"""The forward network: embedded inputs, bidirectional context LSTM with
word-level attention, averaging and LSTM mention encoders, and the softmax
type classifier.

``forward_bucket`` runs a whole batch as one padded pass. It stable-sorts
the mentions by context length, longest first, and lays the inputs out
time-major, row t*B + b for token t of mention b, built from index arrays.
Each LSTM is one ``lstm_sequence`` tape node that touches only the real
rows, dropout masks included; attention masks padded scores to -inf, and
the mention LSTM runs in its own length order. Rows come back in input
order, and a batch gives the rows its mentions give one at a time.
``predict_probs`` runs the same pass without a tape over length-sorted
chunks of ``PREDICT_CHUNK`` mentions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ParamSet, Tensor, concat, lstm_sequence, no_grad, softmax_rows
from .corpus import MentionTriple
from .embeddings import PositionTable, WordEmbeddings
from .hierarchy import TypeForest
from .optim import dropout_mask

GATES = 4  # input, forget, output, candidate blocks in the fused layout

# Mentions per inference pass. A chunk's activations for every step (inputs,
# gates and states, ~12 KiB per mention and token) are alive at once; at 32
# mentions predicting stays within ~2 MiB of the peak memory of the per-bucket
# pass it replaced on a 100k-word checkpoint, and is still faster than it.
# 64 mentions were ~20% faster again but peaked ~20 MiB higher.
PREDICT_CHUNK = 32


@dataclass(frozen=True)
class ModelConfig:
    d_w: int
    d_p: int
    d_s: int
    k: int
    window: int
    p_in: float = 1.0
    p_out: float = 1.0
    dropout_mention: bool = True

    @property
    def feature_dim(self) -> int:
        return 2 * self.d_s + self.d_w


@dataclass(frozen=True)
class ForwardTrace:
    """Numpy snapshot of one mention's forward pass, for inspection and tests."""

    context_outputs: np.ndarray  # (T, d_s) summed directional LSTM outputs
    alpha: np.ndarray            # (T,) attention weights
    r_c: np.ndarray              # (d_s,) attended context representation
    r_a: np.ndarray              # (d_w,) averaged mention embedding
    r_l: np.ndarray              # (d_s,) mention LSTM representation
    feature: np.ndarray          # (2*d_s + d_w,) concatenated R
    probs: np.ndarray            # (K,) type distribution
    predicted: int               # argmax type index, lowest index on ties


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def _orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _lstm_init(rng: np.random.Generator, d_in: int, d_s: int):
    """Fused-gate LSTM weights: glorot inputs, orthogonal recurrence,
    zero biases except forget-gate bias 1."""
    w_in = np.concatenate([_glorot(rng, d_in, d_s, (d_in, d_s)) for _ in range(GATES)], axis=1)
    w_rec = np.concatenate([_orthogonal(rng, d_s) for _ in range(GATES)], axis=1)
    bias = np.zeros(GATES * d_s)
    bias[d_s:2 * d_s] = 1.0
    return w_in, w_rec, bias


def init_params(config: ModelConfig, embeddings: WordEmbeddings,
                rng: np.random.Generator) -> tuple[ParamSet, PositionTable]:
    """Fresh trainable parameters plus the frozen word embedding entry.

    Creation order is fixed so a seed pins every initial value.
    """
    if embeddings.dim != config.d_w:
        raise ValueError(f"embedding dim {embeddings.dim} does not match "
                         f"configured d_w {config.d_w}")
    params = ParamSet()
    params.add("word_emb", embeddings.matrix, trainable=False)
    table = PositionTable(config.window, config.d_p, rng)
    params.add("pos_table", table.initial)
    d_ctx = config.d_w + config.d_p
    for prefix, d_in in (("ctx_fw", d_ctx), ("ctx_bw", d_ctx), ("men", config.d_w)):
        w_in, w_rec, bias = _lstm_init(rng, d_in, config.d_s)
        params.add(f"{prefix}.w_in", w_in)
        params.add(f"{prefix}.w_rec", w_rec)
        params.add(f"{prefix}.bias", bias)
    params.add("attn_w", rng.uniform(-0.25, 0.25, size=config.d_s))
    params.add("cls_w", _glorot(rng, config.feature_dim, config.k,
                                (config.k, config.feature_dim)))
    params.add("cls_b", np.zeros(config.k))
    return params, table


class NfetcModel:
    """Parameters plus the forward pass over windowed mention triples."""

    def __init__(self, config: ModelConfig, embeddings: WordEmbeddings,
                 forest: TypeForest, rng: np.random.Generator,
                 params: ParamSet | None = None):
        if config.k != len(forest):
            raise ValueError(f"config K={config.k} does not match forest of "
                             f"{len(forest)} types")
        self.config = config
        self.embeddings = embeddings
        self.forest = forest
        if params is None:
            self.params, self.pos_table = init_params(config, embeddings, rng)
        else:
            self.params = params
            self.pos_table = PositionTable(config.window, config.d_p, rng)

    # -- input assembly -------------------------------------------------------

    def _indices(self, batch: list[MentionTriple]):
        """Arrays of a batch sorted by context length, longest first: context
        and span lengths (B,), word rows (B, T), position rows (T, B), and
        the extended mention (B, M), i.e. the span plus one context token
        either side, with -1 (the zero vector) for padding and sentence edges."""
        b = len(batch)
        ctx_len = np.array([len(m.tokens) for m in batch])
        start = np.array([m.start for m in batch])
        end = np.array([m.end for m in batch])
        words = np.full((b, ctx_len[0]), -1, dtype=np.intp)
        for row, m in zip(words, batch):
            row[:len(m.tokens)] = self.embeddings.indices(m.tokens)
        positions = self.pos_table.indices(np.arange(ctx_len[0])[:, None], start, end)
        ext_len = end - start + 2
        j = np.arange(ext_len.max())
        at = start[:, None] - 1 + j
        inside = (j < ext_len[:, None]) & (at >= 0) & (at < ctx_len[:, None])
        picked = np.take_along_axis(words, np.clip(at, 0, ctx_len[0] - 1), axis=1)
        return ctx_len, end - start, words, positions, np.where(inside, picked, -1)

    # -- encoders -------------------------------------------------------------

    def _encode(self, prefix: str, blocks: list[Tensor], lengths, reverse: bool,
                keep_in: float, keep_out: float, train: bool, rng) -> Tensor:
        """One LSTM over a time-major batch of column blocks. Input/output
        dropout follows the usual cell-wrapper contract: inputs and emitted
        outputs are masked, the recurrent state is not. The op applies the
        masks, drawn input first over the real tokens only (sum(lengths) rows)."""
        n_real = int(np.sum(lengths))
        widths = (sum(blk.shape[1] for blk in blocks), self.config.d_s)
        masks = [dropout_mask((n_real, width), keep, rng) if train and keep < 1.0 else None
                 for width, keep in zip(widths, (keep_in, keep_out))]
        p = self.params
        return lstm_sequence(blocks, p[f"{prefix}.w_in"], p[f"{prefix}.w_rec"],
                             p[f"{prefix}.bias"], lengths, reverse, *masks)

    # -- full forward -----------------------------------------------------------

    def forward_bucket(self, batch: list[MentionTriple], train: bool = False,
                       rng: np.random.Generator | None = None):
        """Probability rows (B, K) in input order from one padded pass over
        the whole batch, plus the intermediate tensors in length-sorted order
        (``aux["order"][k]`` is the input index of sorted row k)."""
        cfg = self.config
        if train and (cfg.p_in < 1.0 or cfg.p_out < 1.0) and rng is None:
            raise ValueError("training forward with dropout needs an RNG")
        order = np.argsort([-len(m.tokens) for m in batch], kind="stable")
        batch = [batch[i] for i in order]
        ctx_len, span, words, positions, ext = self._indices(batch)
        b, t_len = words.shape

        # context BiLSTM over (T*B, d_w + d_p) rows: frozen words, trained positions
        x = [Tensor.constant(self.embeddings.vectors(words.T).reshape(t_len * b, -1)),
             self.params["pos_table"].take_rows(positions.reshape(-1))]
        fw = self._encode("ctx_fw", x, ctx_len, False, cfg.p_in, cfg.p_out, train, rng)
        bw = self._encode("ctx_bw", x, ctx_len, True, cfg.p_in, cfg.p_out, train, rng)
        context = fw + bw

        # attention: alpha (B, T), padded scores masked to -inf
        w_col = self.params["attn_w"].reshape(cfg.d_s, 1)
        scores = context.tanh().matmul(w_col).reshape(t_len, b).transpose()
        pad = np.where(np.arange(t_len) < ctx_len[:, None], 0.0, -np.inf)
        alpha = softmax_rows(scores + Tensor.constant(pad))
        weighted = alpha.transpose().reshape(t_len * b, 1) * context
        r_c = (Tensor.constant(np.ones((1, t_len))).matmul(weighted.reshape(t_len, b * cfg.d_s))
               .reshape(b, cfg.d_s))

        # mention encoders: the span average, and an LSTM over the extended
        # mention run in its own length order
        j = np.arange(ext.shape[1])
        in_span = (j >= 1) & (j <= span[:, None])
        r_a = Tensor.constant(self.embeddings.vectors(np.where(in_span, ext, -1)).sum(axis=1)
                              / span[:, None])
        ext_len = span + 2
        men_order = np.argsort(-ext_len, kind="stable")
        xm = Tensor.constant(self.embeddings.vectors(ext[men_order].T).reshape(-1, cfg.d_w))
        keep_in = cfg.p_in if cfg.dropout_mention else 1.0
        keep_out = cfg.p_out if cfg.dropout_mention else 1.0
        hm = self._encode("men", [xm], ext_len[men_order], False, keep_in, keep_out, train, rng)
        rank = np.empty(b, dtype=np.intp)
        rank[men_order] = np.arange(b)
        r_l = hm.take_rows((ext_len - 1) * b + rank)

        feature = concat([r_c, r_a, r_l], 1)
        logits = feature.matmul(self.params["cls_w"].transpose()) + self.params["cls_b"]
        probs = softmax_rows(logits)
        aux = {"order": order, "context": context, "alpha": alpha, "r_c": r_c,
               "r_a": r_a, "r_l": r_l, "feature": feature}
        return probs.take_rows(np.argsort(order)), aux

    def forward(self, triple: MentionTriple, train: bool = False,
                rng: np.random.Generator | None = None) -> ForwardTrace:
        """Single-mention forward pass; deterministic when ``train`` is off."""
        probs, aux = self.forward_bucket([triple], train=train, rng=rng)
        p = probs.data[0]
        return ForwardTrace(
            context_outputs=aux["context"].data.copy(),
            alpha=aux["alpha"].data[0].copy(),
            r_c=aux["r_c"].data[0].copy(),
            r_a=aux["r_a"].data[0].copy(),
            r_l=aux["r_l"].data[0].copy(),
            feature=aux["feature"].data[0].copy(),
            probs=p.copy(),
            predicted=int(np.argmax(p)),
        )

    def forward_batch(self, triples: list[MentionTriple], train: bool = False,
                      rng: np.random.Generator | None = None) -> Tensor:
        """(N, K) probability rows in input order, as one tape tensor from
        one ``forward_bucket`` pass. Dropout masks are drawn from ``rng`` in a
        fixed order: forward, backward and mention LSTM, input then output."""
        if not triples:
            return Tensor.constant(np.zeros((0, self.config.k)))
        return self.forward_bucket(triples, train=train, rng=rng)[0]

    def predict_probs(self, triples: list[MentionTriple]) -> np.ndarray:
        """(N, K) inference-mode probabilities, original order, no tape."""
        order = np.argsort([-len(t.tokens) for t in triples], kind="stable")
        out = np.empty((len(triples), self.config.k))
        with no_grad():
            for lo in range(0, len(triples), PREDICT_CHUNK):
                chunk = order[lo:lo + PREDICT_CHUNK]
                out[chunk] = self.forward_bucket([triples[i] for i in chunk])[0].data
        return out
