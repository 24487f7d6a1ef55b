"""The forward network: embedded inputs, bidirectional context LSTM with
word-level attention, averaging and LSTM mention encoders, and the softmax
type classifier.

``forward_bucket`` runs a whole batch as one padded pass, in input order.
It lays the inputs out time-major, row t*B + b for token t of mention b,
built from index arrays. Each LSTM is one ``lstm_sequence`` tape node, which
orders its sequences by length itself and touches only the real rows,
dropout masks included; attention masks padded scores to -inf. A batch
gives the rows its mentions give one at a time.
``predict_probs`` runs the same pass without a tape over length-sorted
chunks of ``PREDICT_CHUNK`` mentions. Training runs the three LSTMs in
float32 (``TRAIN_DTYPE``) and everything else, inference included, in float64.

The model stores no sizes: d_w is the word embeddings' width, and d_p, d_s,
K and the window are read off its parameter shapes. ``HyperParams`` give the
dropout settings, and the sizes of the fresh weights ``init_params`` draws.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .autodiff import ParamSet, Tensor, concat, lstm_sequence, no_grad, softmax_rows
from .corpus import MentionTriple
from .embeddings import WordEmbeddings, position_rows
from .hierarchy import TypeForest
from .optim import dropout_mask

if TYPE_CHECKING:
    from .training import HyperParams

GATES = 4  # input, forget, output, candidate blocks in the fused layout

# Mentions per inference pass. A chunk's activations for every step (inputs,
# gates and states, ~12 KiB per mention and token) are alive at once; at 32
# mentions predicting stays within ~2 MiB of the peak memory of the per-bucket
# pass it replaced on a 100k-word checkpoint, and is still faster than it.
# 64 mentions were ~20% faster again but peaked ~20 MiB higher.
PREDICT_CHUNK = 32

# Compute dtype of the LSTMs in training. At FIGER sizes numpy's float32 GEMM
# ran at ~2x the float64 rate, a training step ~1.5x as fast, and parameter
# gradients stayed within 3e-6 (relative) of float64's. Inference stays
# float64, so a batch matches one mention at a time to 1e-12.
TRAIN_DTYPE = np.float32


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def _orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def param_shapes(d_w: int, d_p: int, d_s: int, window: int, k: int) -> dict[str, tuple]:
    """Shape of each trainable tensor by name, in creation order: the 2c + 2
    position rows (layout in embeddings), three fused-gate LSTMs, attention
    and the classifier."""
    g = GATES * d_s
    shapes = {"pos_table": (2 * window + 2, d_p)}
    for prefix, d_in in (("ctx_fw", d_w + d_p), ("ctx_bw", d_w + d_p), ("men", d_w)):
        shapes |= {f"{prefix}.w_in": (d_in, g), f"{prefix}.w_rec": (d_s, g), f"{prefix}.bias": (g,)}
    return shapes | {"attn_w": (d_s,), "cls_w": (k, 2 * d_s + d_w), "cls_b": (k,)}


def init_params(hp: HyperParams, embeddings: WordEmbeddings, k: int,
                rng: np.random.Generator) -> ParamSet:
    """Fresh trained parameters: position rows and attention uniform in
    [-0.25, 0.25], glorot LSTM inputs and classifier, orthogonal recurrence,
    zero biases except forget-gate bias 1. Creation order is fixed so a seed
    pins every initial value.
    """
    d_s = hp.d_s
    params = ParamSet()
    for name, shape in param_shapes(embeddings.dim, hp.d_p, d_s, hp.window, k).items():
        kind = name.rpartition(".")[2]
        if kind == "w_in":
            value = np.concatenate([_glorot(rng, shape[0], d_s, (shape[0], d_s))
                                    for _ in range(GATES)], axis=1)
        elif kind == "w_rec":
            value = np.concatenate([_orthogonal(rng, d_s) for _ in range(GATES)], axis=1)
        elif kind == "cls_w":
            value = _glorot(rng, shape[1], k, shape)
        elif kind in ("pos_table", "attn_w"):
            value = rng.uniform(-0.25, 0.25, size=shape)
        else:   # the LSTM and classifier biases
            value = np.zeros(shape)
            if kind == "bias":
                value[d_s:2 * d_s] = 1.0   # forget gate
        params.add(name, value)
    return params


class NfetcModel:
    """Parameters plus the forward pass over windowed mention triples."""

    def __init__(self, hp: HyperParams, embeddings: WordEmbeddings,
                 forest: TypeForest, rng: np.random.Generator | None = None,
                 params: ParamSet | None = None):
        """Fresh weights drawn from ``rng``, or the given ``params``."""
        self.hp = hp
        self.embeddings = embeddings
        self.params = init_params(hp, embeddings, len(forest), rng) if params is None else params

    # -- input assembly -------------------------------------------------------

    def _indices(self, batch: list[MentionTriple]):
        """Arrays of a batch in input order, padded to its longest context:
        context and span lengths (B,), word rows (B, T), position rows (T, B),
        and the extended mention (B, M), i.e. the span plus one context token
        either side, with -1 (the zero vector) for padding and sentence edges."""
        b = len(batch)
        ctx_len = np.array([len(m.tokens) for m in batch])
        start = np.array([m.start for m in batch])
        end = np.array([m.end for m in batch])
        t_len = ctx_len.max()
        words = np.full((b, t_len), -1, dtype=np.intp)
        for row, m in zip(words, batch):
            row[:len(m.tokens)] = self.embeddings.indices(m.tokens)
        window = (self.params["pos_table"].shape[0] - 2) // 2
        positions = position_rows(window, np.arange(t_len)[:, None], start, end)
        ext_len = end - start + 2
        j = np.arange(ext_len.max())
        at = start[:, None] - 1 + j
        inside = (j < ext_len[:, None]) & (at >= 0) & (at < ctx_len[:, None])
        picked = np.take_along_axis(words, np.clip(at, 0, t_len - 1), axis=1)
        return ctx_len, end - start, words, positions, np.where(inside, picked, -1)

    # -- encoders -------------------------------------------------------------

    def _encode(self, prefix: str, blocks: list[Tensor], lengths, reverse: bool,
                keep_in: float, keep_out: float, train: bool, rng) -> Tensor:
        """One LSTM over a time-major batch of column blocks. Input/output
        dropout follows the usual cell-wrapper contract: inputs and emitted
        outputs are masked, the recurrent state is not. The op applies the
        masks, drawn input first over the real tokens only (sum(lengths) rows)."""
        n_real = int(np.sum(lengths))
        p = self.params
        widths = (sum(blk.shape[1] for blk in blocks), p[f"{prefix}.w_rec"].shape[0])
        masks = [dropout_mask((n_real, width), keep, rng) if train and keep < 1.0 else None
                 for width, keep in zip(widths, (keep_in, keep_out))]
        return lstm_sequence(blocks, p[f"{prefix}.w_in"], p[f"{prefix}.w_rec"],
                             p[f"{prefix}.bias"], lengths, reverse, *masks,
                             dtype=TRAIN_DTYPE if train else np.float64)

    # -- full forward -----------------------------------------------------------

    def forward_bucket(self, batch: list[MentionTriple], train: bool = False,
                       rng: np.random.Generator | None = None):
        """Probability rows (B, K) from one padded pass over the whole batch,
        as one tape tensor, plus the intermediate tensors, all in input order.
        Dropout masks are drawn from ``rng`` in a fixed order: forward,
        backward and mention LSTM, input then output."""
        hp = self.hp
        if train and (hp.p_i < 1.0 or hp.p_o < 1.0) and rng is None:
            raise ValueError("training forward with dropout needs an RNG")
        ctx_len, span, words, positions, ext = self._indices(batch)
        b, t_len = words.shape
        d_s = self.params["attn_w"].shape[0]

        # context BiLSTM over (T*B, d_w + d_p) rows: frozen words, trained positions
        x = [Tensor.constant(self.embeddings.vectors(words.T).reshape(t_len * b, -1)),
             self.params["pos_table"].take_rows(positions.reshape(-1))]
        fw = self._encode("ctx_fw", x, ctx_len, False, hp.p_i, hp.p_o, train, rng)
        bw = self._encode("ctx_bw", x, ctx_len, True, hp.p_i, hp.p_o, train, rng)
        context = fw + bw

        # attention: alpha (B, T), padded scores masked to -inf
        w_col = self.params["attn_w"].reshape(d_s, 1)
        scores = context.tanh().matmul(w_col).reshape(t_len, b).transpose()
        pad = np.where(np.arange(t_len) < ctx_len[:, None], 0.0, -np.inf)
        alpha = softmax_rows(scores + Tensor.constant(pad))
        weighted = alpha.transpose().reshape(t_len * b, 1) * context
        r_c = (Tensor.constant(np.ones((1, t_len))).matmul(weighted.reshape(t_len, b * d_s))
               .reshape(b, d_s))

        # mention encoders: the span average, and an LSTM over the extended mention
        j = np.arange(ext.shape[1])
        in_span = (j >= 1) & (j <= span[:, None])
        r_a = Tensor.constant(self.embeddings.vectors(np.where(in_span, ext, -1)).sum(axis=1)
                              / span[:, None])
        ext_len = span + 2
        xm = Tensor.constant(self.embeddings.vectors(ext.T).reshape(ext.size, -1))
        keep_in = hp.p_i if hp.dropout_mention else 1.0
        keep_out = hp.p_o if hp.dropout_mention else 1.0
        hm = self._encode("men", [xm], ext_len, False, keep_in, keep_out, train, rng)
        r_l = hm.take_rows((ext_len - 1) * b + np.arange(b))

        feature = concat([r_c, r_a, r_l], 1)
        logits = feature.matmul(self.params["cls_w"].transpose()) + self.params["cls_b"]
        probs = softmax_rows(logits)
        aux = {"context": context, "alpha": alpha, "r_c": r_c,
               "r_a": r_a, "r_l": r_l, "feature": feature}
        return probs, aux

    def predict_probs(self, triples: list[MentionTriple]) -> np.ndarray:
        """(N, K) inference-mode probabilities, original order, no tape."""
        order = np.argsort([-len(t.tokens) for t in triples], kind="stable")
        out = np.empty((len(triples), self.params["cls_b"].shape[0]))
        with no_grad():
            for lo in range(0, len(triples), PREDICT_CHUNK):
                chunk = order[lo:lo + PREDICT_CHUNK]
                out[chunk] = self.forward_bucket([triples[i] for i in chunk])[0].data
        return out
