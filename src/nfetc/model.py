"""The forward network: embedded inputs, bidirectional context LSTM with
word-level attention, averaging and LSTM mention encoders, and the softmax
type classifier.

``forward_bucket`` runs a whole batch as one packed pass: only real tokens
become rows, time-major and, within a step, longest first, and nothing is
padded. Each LSTM is one ``lstm_sequence`` call over those rows, dropout
masks included. The head runs attention over each mention's rows and the
classifier, and returns its rows in input order. A batch gives the rows its
mentions give one at a time. In training, each of these pieces returns its
hand-derived backward, and ``forward_bucket`` chains them into one closure
that returns every parameter's gradient.
``predict_probs`` runs the same pass without a backward over length-sorted
chunks of ``PREDICT_CHUNK`` mentions. Training runs the three LSTMs in
float32 (``TRAIN_DTYPE``) and everything else, inference included, in float64.

The model stores no sizes: d_w is the word embeddings' width, and d_p, d_s,
K and the window are read off its parameter shapes. ``HyperParams`` give the
dropout settings, and the sizes of the fresh weights ``init_params`` draws.

Position vectors encode each token's relative distance to the mention span:
distances inside [-c, c] index their own row of the trained ``pos_table``,
anything further one shared out-of-range row, 2c + 2 rows in all (as
``param_shapes`` sizes it); ``position_rows`` maps tokens to those rows.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .autodiff import ParamSet, lstm_sequence
from .corpus import MentionTriple
from .embeddings import WordEmbeddings
from .hierarchy import TypeForest
from .optim import dropout_mask

if TYPE_CHECKING:
    from .training import HyperParams

GATES = 4  # input, forget, output, candidate blocks in the fused layout

# Mentions per inference pass. A chunk's activations for every step (one
# input array that both context LSTMs read, gates and states) and the word
# rows it reads from the checkpoint are alive at
# once; no word row is held for the whole input, and eval and predict hold
# one block of chunks (``cli.PREDICT_BLOCK``), not the input. On a 100k-word
# checkpoint and 4,000 mentions (2-core host), while predict still held its
# input's rows and lines, `nfetc predict` at 32, 64, 128 and 256 mentions
# peaked at 76, 87, 112 and 161 MiB, and 128 ran ~25% faster than 32, as
# wider steps make the recurrent GEMMs and the gate math cheaper per row.
# With blocks and the one input array it peaks at ~100 MiB at 128.
PREDICT_CHUNK = 128

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
    position rows (see ``position_rows``), three fused-gate LSTMs, attention
    and the classifier."""
    g = GATES * d_s
    shapes = {"pos_table": (2 * window + 2, d_p)}
    for prefix, d_in in (("ctx_fw", d_w + d_p), ("ctx_bw", d_w + d_p), ("men", d_w)):
        shapes |= {f"{prefix}.w_in": (d_in, g), f"{prefix}.w_rec": (d_s, g), f"{prefix}.bias": (g,)}
    return shapes | {"attn_w": (d_s,), "cls_w": (k, 2 * d_s + d_w), "cls_b": (k,)}


def position_rows(c: int, positions, start, end) -> np.ndarray:
    """Position-table row of token ``positions`` against mention spans
    [start, end) for window ``c``; the three arrays broadcast together.
    ``MentionTriple`` keeps each span inside its context."""
    i, start, end = (np.asarray(a, dtype=np.intp) for a in (positions, start, end))
    d = np.where(i >= end, i - (end - 1), np.where(i < start, i - start, 0))
    return np.where(np.abs(d) <= c, d + c, 2 * c + 1)


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
        params[name] = value
    return params


def _packed(lengths) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The packed order of sequences of ``lengths``: every real (sequence,
    step) pair, time-major, and within a step stable longest first, as the
    ``seq`` and ``step`` of each row, plus the rows at each step."""
    lengths = np.asarray(lengths)
    ranked = np.argsort(-lengths, kind="stable")
    step, k = np.nonzero(lengths[ranked] > np.arange(lengths.max())[:, None])
    return ranked[k], step, np.bincount(step)


def _row_sums(index, g: np.ndarray, rows: int) -> np.ndarray:
    """(rows, d) sums of the rows of ``g`` by their ``index``: each cell sums
    its terms in index order from 0.0, as np.add.at does."""
    cols = g.shape[1]
    cells = (index[:, None] * cols + np.arange(cols)).ravel()
    return np.bincount(cells, weights=g.ravel(), minlength=rows * cols).reshape(rows, cols)


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

    def _encode(self, prefix: str, blocks: list, n_at, reverse: bool, train: bool, rng, record=()):
        """One LSTM over a packed batch of column blocks, and its backward
        when training, with dx for the blocks ``record`` lists. Dropout
        masks inputs at keep ``p_i`` and emitted outputs at ``p_o``, not the
        recurrent state, as the usual cell wrapper does; the op applies the
        masks, drawn input first over the real tokens only (sum(n_at) rows)."""
        n_real = int(np.sum(n_at))
        p = self.params
        widths = (sum(blk.shape[1] for blk in blocks), p[f"{prefix}.w_rec"].shape[0])
        masks = [(dropout_mask((n_real, width), keep, rng), keep) if train and keep < 1.0 else None
                 for width, keep in zip(widths, (self.hp.p_i, self.hp.p_o))]
        return lstm_sequence(blocks, p[f"{prefix}.w_in"], p[f"{prefix}.w_rec"],
                             p[f"{prefix}.bias"], n_at, reverse, *masks,
                             dtype=TRAIN_DTYPE if train else np.float64,
                             record=record if train else None)

    # -- full forward -----------------------------------------------------------

    def forward_bucket(self, batch: list[MentionTriple], train: bool = False,
                       rng: np.random.Generator | None = None):
        """Probability rows (B, K) from one packed pass over the whole batch,
        numpy ``aux``: the attention weights ``alpha`` (B, T), zero past each
        context's end, and the classifier's ``feature`` rows [r_c, r_a, r_l],
        both in input order, and the backward: None unless ``train``.
        ``backward(d_probs)`` maps the gradient of the probability rows to
        the float64 gradient of every parameter, in ``param_shapes`` order;
        it releases each piece's saved arrays as it goes, so it runs once.
        Dropout masks are drawn from ``rng`` in a fixed order: forward,
        backward and mention LSTM, input then output."""
        ctx_len, start, end, words, ext = self._indices(batch)
        # every word row the batch reads, gathered once, the zero vector (-1)
        # first; ``words`` and ``ext`` become row numbers of this table
        used = np.union1d(words, -1)
        table = self.embeddings.vectors(used)
        words, ext = np.searchsorted(used, words), np.searchsorted(used, ext)
        dtype = TRAIN_DTYPE if train else np.float64
        pos_table = self.params["pos_table"]
        window = (pos_table.shape[0] - 2) // 2

        # context BiLSTM over the real tokens: frozen words, trained positions;
        # at inference one float64 array, which both LSTMs read in place
        seq, step, n_at = _packed(ctx_len)
        pos = position_rows(window, step, start[seq], end[seq])
        x = [table[words[seq, step]].astype(dtype, copy=False), pos_table[pos]]
        if not train:
            x = [np.concatenate(x, axis=1)]
        # mention encoders' inputs: the span average, and the extended mention
        span = end - start
        j = np.arange(ext.shape[1])
        in_span = (j >= 1) & (j <= span[:, None])
        r_a = table[np.where(in_span, ext, 0)].sum(axis=1) / span[:, None]
        ext_len = span + 2
        m_seq, m_step, m_at = _packed(ext_len)
        xm = table[ext[m_seq, m_step]].astype(dtype, copy=False)
        del table   # before the LSTMs' peak

        # each records dx for the position block
        fw, fw_back = self._encode("ctx_fw", x, n_at, False, train, rng, record=(1,))
        bw, bw_back = self._encode("ctx_bw", x, n_at, True, train, rng, record=(1,))
        del x   # in training each LSTM holds its own masked copy of the inputs
        hm, men_back = self._encode("men", [xm], m_at, False, train, rng)
        del xm
        last = np.empty(len(batch), dtype=np.intp)   # row of each mention's final state
        ends = np.flatnonzero(m_step == ext_len[m_seq] - 1)
        last[m_seq[ends]] = ends
        probs, aux, head_back = self._head(fw, bw, r_a, hm[last], seq, step, n_at)
        if not train:
            return probs, aux, None
        d_hm_shape = hm.shape   # the head read one row of hm per mention; hm goes free
        chain = [men_back, bw_back, fw_back, head_back]
        n_pos = pos_table.shape[0]

        def backward(d_probs):
            d_ctx, d_last, *head = chain.pop()(d_probs)
            d_pos, *fw_grads = chain.pop()(d_ctx)
            d_pos_bw, *bw_grads = chain.pop()(d_ctx)
            del d_ctx
            d_pos += d_pos_bw   # two terms: the sum does not depend on their order
            del d_pos_bw
            grads = {"pos_table": _row_sums(pos, d_pos, n_pos)}
            del d_pos
            d_hm = np.zeros(d_hm_shape)
            d_hm[last] = d_last
            for prefix, g in (("ctx_fw", fw_grads), ("ctx_bw", bw_grads),
                              ("men", chain.pop()(d_hm))):
                grads |= dict(zip((f"{prefix}.w_in", f"{prefix}.w_rec", f"{prefix}.bias"), g))
            return grads | dict(zip(("attn_w", "cls_w", "cls_b"), head))

        return probs, aux, backward

    def _head(self, fw: np.ndarray, bw: np.ndarray, r_a: np.ndarray, r_l: np.ndarray,
              seq, step, n_at):
        """Attention over the packed context rows ``fw + bw`` and the softmax
        classifier over [r_c, r_a, r_l]; see forward_bucket.

        Context row i belongs to mention ``seq[i]`` at ``step[i]``. Its score
        is tanh(row)·attn_w, alpha is each mention's softmax over its rows,
        and r_c their alpha-weighted sum. ``r_l`` holds each mention's final
        mention-LSTM state. The head computes in float64, whatever dtype the
        LSTMs emit. Returns the probability rows, ``aux`` and the backward,
        which maps their gradient to those of the context rows (both LSTMs
        take the one array), of r_l, attn_w, cls_w and cls_b. It keeps no
        (R, d_s) array of its own: it recomputes the context rows and their
        tanh from fw and bw, with at most two (R, d_s) arrays at once."""
        attn_w, cls_w, cls_b = self.params["attn_w"], self.params["cls_w"], self.params["cls_b"]
        b, d = n_at[0], attn_w.shape[0]
        offset = np.concatenate([[0], np.cumsum(n_at)])
        ranked = seq[:b]   # step 0 holds every mention, longest first
        context = np.add(fw, bw, dtype=np.float64)   # exact for float32 rows
        scores = np.full((b, n_at.size), -np.inf)   # input order, -inf past each end
        scores[seq, step] = np.tanh(context) @ attn_w
        alpha = np.exp(scores - scores.max(axis=1, keepdims=True))
        alpha /= alpha.sum(axis=1, keepdims=True)
        a = alpha[seq, step]   # each context row's weight
        r_c = np.zeros((b, d))   # mention ranked[k] in row k, summed step by step
        for lo, hi in zip(offset, offset[1:]):
            r_c[:hi - lo] += a[lo:hi, None] * context[lo:hi]
        del context
        feature = np.concatenate([r_c[np.argsort(ranked)], r_a, r_l], axis=1)
        logits = feature @ cls_w.T + cls_b
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)

        def backward(g):
            d_logits = probs * (g - (g * probs).sum(axis=1, keepdims=True))
            d_feature = d_logits @ cls_w
            # in place where it can be: the context gradient and one buffer
            d_ctx = d_feature[seq, :d]   # d r_c, for each context row
            d_alpha = np.zeros_like(alpha)
            buf = np.add(fw, bw, dtype=np.float64)   # the context rows
            buf *= d_ctx
            d_alpha[seq, step] = buf.sum(axis=1)
            d_scores = alpha * (d_alpha - (d_alpha * alpha).sum(axis=1, keepdims=True))
            ds = d_scores[seq, step]
            th = np.tanh(np.add(fw, bw, out=buf, dtype=np.float64), out=buf)
            d_attn_w = th.T @ ds
            d_ctx *= a[:, None]
            th *= th
            np.subtract(1.0, th, out=th)
            th *= ds[:, None]
            th *= attn_w
            d_ctx += th
            return (d_ctx, d_feature[:, -d:], d_attn_w, (feature.T @ d_logits).T,
                    d_logits.sum(axis=0))

        return probs, {"alpha": alpha, "feature": feature}, backward

    def predict_probs(self, triples: list[MentionTriple]) -> np.ndarray:
        """(N, K) inference-mode probabilities, original order, no backward."""
        order = np.argsort([-len(t.tokens) for t in triples], kind="stable")
        out = np.empty((len(triples), self.params["cls_b"].shape[0]))
        for lo in range(0, len(triples), PREDICT_CHUNK):
            chunk = order[lo:lo + PREDICT_CHUNK]
            out[chunk] = self.forward_bucket([triples[i] for i in chunk])[0]
        return out
