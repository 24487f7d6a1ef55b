"""The forward network: embedded inputs, bidirectional context LSTM with
word-level attention, averaging and LSTM mention encoders, and the softmax
type classifier.

``forward_bucket`` runs a whole batch as one packed pass: only real tokens
become rows, time-major and, within a step, longest first, and nothing is
padded. Each LSTM is one ``lstm_sequence`` tape node over those rows,
dropout masks included. One head node runs attention over each mention's
rows and the classifier, and returns its rows in input order. A batch gives
the rows its mentions give one at a time.
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

from .autodiff import ParamSet, Tensor, lstm_sequence, no_grad
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
# On packed chunks, 64, 128 and 256 mentions were no faster and peaked 13, 36
# and 80 MiB higher.
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
    """GATES orthogonal (n, n) blocks side by side, from one stacked QR."""
    q, r = np.linalg.qr(rng.standard_normal((GATES, n, n)))
    return np.concatenate(q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :], axis=1)


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
            value = _orthogonal(rng, d_s)
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


def _packed(lengths) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The packed order of sequences of ``lengths``: every real (sequence,
    step) pair, time-major, and within a step stable longest first, as the
    ``seq`` and ``step`` of each row, plus the rows at each step."""
    lengths = np.asarray(lengths)
    ranked = np.argsort(-lengths, kind="stable")
    step, k = np.nonzero(lengths[ranked] > np.arange(lengths.max())[:, None])
    return ranked[k], step, np.bincount(step)


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
        """Arrays of a batch in input order: context lengths, span starts and
        ends (B,), word rows (B, T), and the extended mention (B, M), i.e. the
        span plus one context token either side, with -1 (the zero vector)
        past each mention's end and at sentence edges."""
        b = len(batch)
        ctx_len = np.array([len(m.tokens) for m in batch])
        start = np.array([m.start for m in batch])
        end = np.array([m.end for m in batch])
        t_len = ctx_len.max()
        words = np.full((b, t_len), -1, dtype=np.intp)
        for row, m in zip(words, batch):
            row[:len(m.tokens)] = self.embeddings.indices(m.tokens)
        ext_len = end - start + 2
        j = np.arange(ext_len.max())
        at = start[:, None] - 1 + j
        inside = (j < ext_len[:, None]) & (at >= 0) & (at < ctx_len[:, None])
        picked = np.take_along_axis(words, np.clip(at, 0, t_len - 1), axis=1)
        return ctx_len, start, end, words, np.where(inside, picked, -1)

    # -- encoders -------------------------------------------------------------

    def _encode(self, prefix: str, blocks: list, n_at, reverse: bool,
                keep_in: float, keep_out: float, train: bool, rng) -> Tensor:
        """One LSTM over a packed batch of column blocks. Input/output
        dropout follows the usual cell-wrapper contract: inputs and emitted
        outputs are masked, the recurrent state is not. The op applies the
        masks, drawn input first over the real tokens only (sum(n_at) rows)."""
        n_real = int(np.sum(n_at))
        p = self.params
        widths = (sum(blk.shape[1] for blk in blocks), p[f"{prefix}.w_rec"].shape[0])
        masks = [(dropout_mask((n_real, width), keep, rng), keep) if train and keep < 1.0 else None
                 for width, keep in zip(widths, (keep_in, keep_out))]
        return lstm_sequence(blocks, p[f"{prefix}.w_in"], p[f"{prefix}.w_rec"],
                             p[f"{prefix}.bias"], n_at, reverse, *masks,
                             dtype=TRAIN_DTYPE if train else np.float64)

    # -- full forward -----------------------------------------------------------

    def forward_bucket(self, batch: list[MentionTriple], train: bool = False,
                       rng: np.random.Generator | None = None):
        """Probability rows (B, K) from one packed pass over the whole batch,
        as one tape tensor, plus numpy ``aux``: the attention weights
        ``alpha`` (B, T), zero past each context's end, and the classifier's
        ``feature`` rows [r_c, r_a, r_l], both in input order. Dropout masks
        are drawn from ``rng`` in a fixed order: forward, backward and
        mention LSTM, input then output."""
        hp = self.hp
        if train and (hp.p_i < 1.0 or hp.p_o < 1.0) and rng is None:
            raise ValueError("training forward with dropout needs an RNG")
        ctx_len, start, end, words, ext = self._indices(batch)
        dtype = TRAIN_DTYPE if train else np.float64
        window = (self.params["pos_table"].shape[0] - 2) // 2

        # context BiLSTM over the real tokens: frozen words, trained positions
        seq, step, n_at = _packed(ctx_len)
        x = [self.embeddings.vectors(words[seq, step]).astype(dtype, copy=False),
             self.params["pos_table"].take_rows(position_rows(window, step, start[seq], end[seq]))]
        fw = self._encode("ctx_fw", x, n_at, False, hp.p_i, hp.p_o, train, rng)
        bw = self._encode("ctx_bw", x, n_at, True, hp.p_i, hp.p_o, train, rng)
        del x   # each LSTM holds its own masked copy of the inputs

        # mention encoders: the span average, and an LSTM over the extended mention
        span = end - start
        j = np.arange(ext.shape[1])
        in_span = (j >= 1) & (j <= span[:, None])
        r_a = self.embeddings.vectors(np.where(in_span, ext, -1)).sum(axis=1) / span[:, None]
        ext_len = span + 2
        m_seq, m_step, m_at = _packed(ext_len)
        keep_in = hp.p_i if hp.dropout_mention else 1.0
        keep_out = hp.p_o if hp.dropout_mention else 1.0
        xm = self.embeddings.vectors(ext[m_seq, m_step]).astype(dtype, copy=False)
        hm = self._encode("men", [xm], m_at, False, keep_in, keep_out, train, rng)
        del xm
        last = np.empty(len(batch), dtype=np.intp)   # row of each mention's final state
        ends = np.flatnonzero(m_step == ext_len[m_seq] - 1)
        last[m_seq[ends]] = ends
        return self._head(fw, bw, r_a, hm, last, seq, step, n_at)

    def _head(self, fw: Tensor, bw: Tensor, r_a: np.ndarray, hm: Tensor, last,
              seq, step, n_at):
        """Attention over the packed context rows ``fw + bw`` and the softmax
        classifier over [r_c, r_a, r_l], as one tape node; see forward_bucket.

        Context row i belongs to mention ``seq[i]`` at ``step[i]``. Its score
        is tanh(row)·attn_w, alpha is each mention's softmax over its rows,
        and r_c their alpha-weighted sum. r_l is row ``last[b]`` of the
        mention-LSTM states ``hm``. The head computes in float64, whatever
        dtype the LSTMs emit, and the node keeps no (R, d_s) array: the
        backward recomputes the context rows and their tanh from fw and bw,
        with at most two (R, d_s) arrays at once, and hands fw and bw the one
        context gradient."""
        attn_w, cls_w, cls_b = self.params["attn_w"], self.params["cls_w"], self.params["cls_b"]
        b, d = n_at[0], attn_w.shape[0]
        offset = np.concatenate([[0], np.cumsum(n_at)])
        ranked = seq[:b]   # step 0 holds every mention, longest first
        context = np.add(fw.data, bw.data, dtype=np.float64)   # exact for float32 rows
        scores = np.full((b, n_at.size), -np.inf)   # input order, -inf past each end
        scores[seq, step] = np.tanh(context) @ attn_w.data
        alpha = np.exp(scores - scores.max(axis=1, keepdims=True))
        alpha /= alpha.sum(axis=1, keepdims=True)
        a = alpha[seq, step]   # each context row's weight
        r_c = np.zeros((b, d))   # mention ranked[k] in row k, summed step by step
        for lo, hi in zip(offset, offset[1:]):
            r_c[:hi - lo] += a[lo:hi, None] * context[lo:hi]
        del context
        feature = np.concatenate([r_c[np.argsort(ranked)], r_a, hm.data[last]], axis=1)
        logits = feature @ cls_w.data.T + cls_b.data
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)

        def backward(g):
            d_logits = probs * (g - (g * probs).sum(axis=1, keepdims=True))
            cls_w._accumulate((feature.T @ d_logits).T)
            cls_b._accumulate(d_logits.sum(axis=0))
            d_feature = d_logits @ cls_w.data
            d_hm = np.zeros(hm.data.shape)   # float64, whatever hm's dtype
            d_hm[last] = d_feature[:, -d:]
            hm._accumulate(d_hm)
            # in place where it can be: the context gradient and one buffer
            d_ctx = d_feature[seq, :d]   # d r_c, for each context row
            d_alpha = np.zeros_like(alpha)
            buf = np.add(fw.data, bw.data, dtype=np.float64)   # the context rows
            buf *= d_ctx
            d_alpha[seq, step] = buf.sum(axis=1)
            d_scores = alpha * (d_alpha - (d_alpha * alpha).sum(axis=1, keepdims=True))
            ds = d_scores[seq, step]
            th = np.tanh(np.add(fw.data, bw.data, out=buf, dtype=np.float64), out=buf)
            attn_w._accumulate(th.T @ ds)
            d_ctx *= a[:, None]
            th *= th
            np.subtract(1.0, th, out=th)
            th *= ds[:, None]
            th *= attn_w.data
            d_ctx += th
            fw._accumulate(d_ctx)
            bw._accumulate(d_ctx)

        out = Tensor(probs, requires_grad=True, parents=(fw, bw, hm, attn_w, cls_w, cls_b),
                     backward=backward)
        return out, {"alpha": alpha, "feature": feature}

    def predict_probs(self, triples: list[MentionTriple]) -> np.ndarray:
        """(N, K) inference-mode probabilities, original order, no tape."""
        order = np.argsort([-len(t.tokens) for t in triples], kind="stable")
        out = np.empty((len(triples), self.params["cls_b"].shape[0]))
        with no_grad():
            for lo in range(0, len(triples), PREDICT_CHUNK):
                chunk = order[lo:lo + PREDICT_CHUNK]
                out[chunk] = self.forward_bucket([triples[i] for i in chunk])[0].data
        return out
