"""The forward network: embedded inputs, bidirectional context LSTM with
word-level attention, averaging and LSTM mention encoders, and the softmax
type classifier.

All math runs on the autodiff tape in 2-D batch form. ``forward_batch`` is
the one batched entry point: it groups mentions into buckets sharing
(context length, mention length) so one tape node covers the whole bucket,
and a single-mention forward is just a bucket of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ParamSet, Tensor, concat, no_grad, softmax_rows
from .corpus import MentionTriple
from .embeddings import PositionTable, WordEmbeddings
from .hierarchy import TypeForest
from .optim import dropout_mask

GATES = 4  # input, forget, output, candidate blocks in the fused layout


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


def bucket_indices(triples: list[MentionTriple]) -> list[list[int]]:
    """Group mention indices by (context length, mention length) so each
    group runs as one batched tape pass. First-occurrence order."""
    groups: dict[tuple[int, int], list[int]] = {}
    for i, t in enumerate(triples):
        key = (len(t.tokens), t.end - t.start)
        groups.setdefault(key, []).append(i)
    return list(groups.values())


class NfetcModel:
    """Parameters plus the forward pass over windowed mention triples."""

    PAD = "\x00pad\x00"  # never a real token; resolves to the OOV vector

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

    def _context_inputs(self, batch: list[MentionTriple]):
        """Per-timestep (B, d_w + d_p) inputs: frozen word vector next to the
        trainable position row for the token's distance to the mention."""
        t_len = len(batch[0].tokens)
        table = self.params["pos_table"]
        steps = []
        for i in range(t_len):
            words = Tensor.constant(np.stack([self.embeddings.lookup(m.tokens[i])
                                              for m in batch]))
            idx = [self.pos_table.index_for(i, m.start, m.end) for m in batch]
            steps.append(concat([words, table.take_rows(idx)], 1))
        return steps

    def _mention_inputs(self, batch: list[MentionTriple]):
        """Extended mention word vectors: one context token either side of the
        span, padded with the OOV vector at sentence edges."""
        length = batch[0].end - batch[0].start + 2
        steps = []
        for j in range(length):
            rows = []
            for m in batch:
                i = m.start - 1 + j
                tok = m.tokens[i] if 0 <= i < len(m.tokens) else self.PAD
                rows.append(self.embeddings.lookup(tok))
            steps.append(Tensor.constant(np.stack(rows)))
        return steps

    # -- encoders -------------------------------------------------------------

    def _lstm(self, prefix: str, xs: list[Tensor], reverse: bool,
              train: bool, rng, keep_in: float, keep_out: float) -> list[Tensor]:
        """Standard LSTM over the sequence; returns the emitted output per step.

        Input/output dropout follows the usual cell-wrapper contract: inputs
        and emitted outputs are masked, the recurrent state is not.
        """
        w_in = self.params[f"{prefix}.w_in"]
        w_rec = self.params[f"{prefix}.w_rec"]
        bias = self.params[f"{prefix}.bias"]
        d_s = self.config.d_s
        b = xs[0].shape[0]
        h = Tensor.constant(np.zeros((b, d_s)))
        c = Tensor.constant(np.zeros((b, d_s)))
        order = range(len(xs) - 1, -1, -1) if reverse else range(len(xs))
        outputs: list[Tensor | None] = [None] * len(xs)
        for t in order:
            x = xs[t]
            if train and keep_in < 1.0:
                x = x * Tensor.constant(dropout_mask(x.shape, keep_in, rng))
            z = x.matmul(w_in) + h.matmul(w_rec) + bias
            gate_i = z.cols(0, d_s).sigmoid()
            gate_f = z.cols(d_s, d_s).sigmoid()
            gate_o = z.cols(2 * d_s, d_s).sigmoid()
            cand = z.cols(3 * d_s, d_s).tanh()
            c = gate_f * c + gate_i * cand
            h = gate_o * c.tanh()
            out = h
            if train and keep_out < 1.0:
                out = out * Tensor.constant(dropout_mask(out.shape, keep_out, rng))
            outputs[t] = out
        return outputs  # type: ignore[return-value]

    def _context_encoder(self, batch, train, rng) -> list[Tensor]:
        xs = self._context_inputs(batch)
        cfg = self.config
        fw = self._lstm("ctx_fw", xs, False, train, rng, cfg.p_in, cfg.p_out)
        bw = self._lstm("ctx_bw", xs, True, train, rng, cfg.p_in, cfg.p_out)
        return [f + b for f, b in zip(fw, bw)]

    def _attention(self, h_list: list[Tensor]) -> tuple[Tensor, Tensor]:
        """Scores each context output against the attention vector and returns
        (alpha (B,T), attended context r_c (B,d_s))."""
        w_col = self.params["attn_w"].reshape(self.config.d_s, 1)
        scores = concat([h.tanh().matmul(w_col) for h in h_list], 1)
        alpha = softmax_rows(scores)
        r_c = alpha.cols(0, 1) * h_list[0]
        for t in range(1, len(h_list)):
            r_c = r_c + alpha.cols(t, 1) * h_list[t]
        return alpha, r_c

    def _mention_average(self, batch: list[MentionTriple]) -> Tensor:
        rows = [self.embeddings.lookup_many(m.mention_tokens).mean(axis=0)
                for m in batch]
        return Tensor.constant(np.stack(rows))

    def _mention_encoder(self, batch, train, rng) -> Tensor:
        xs = self._mention_inputs(batch)
        cfg = self.config
        keep_in = cfg.p_in if cfg.dropout_mention else 1.0
        keep_out = cfg.p_out if cfg.dropout_mention else 1.0
        outputs = self._lstm("men", xs, False, train, rng, keep_in, keep_out)
        return outputs[-1]

    # -- full forward -----------------------------------------------------------

    def forward_bucket(self, batch: list[MentionTriple], train: bool = False,
                       rng: np.random.Generator | None = None):
        """Probability rows (B, K) for mentions sharing (T, mention length),
        plus the intermediate tensors."""
        if train and (self.config.p_in < 1.0 or self.config.p_out < 1.0) and rng is None:
            raise ValueError("training forward with dropout needs an RNG")
        h_list = self._context_encoder(batch, train, rng)
        alpha, r_c = self._attention(h_list)
        r_a = self._mention_average(batch)
        r_l = self._mention_encoder(batch, train, rng)
        feature = concat([r_c, r_a, r_l], 1)
        logits = feature.matmul(self.params["cls_w"].transpose()) + self.params["cls_b"]
        probs = softmax_rows(logits)
        aux = {"h_list": h_list, "alpha": alpha, "r_c": r_c, "r_a": r_a,
               "r_l": r_l, "feature": feature}
        return probs, aux

    def forward(self, triple: MentionTriple, train: bool = False,
                rng: np.random.Generator | None = None) -> ForwardTrace:
        """Single-mention forward pass; deterministic when ``train`` is off."""
        probs, aux = self.forward_bucket([triple], train=train, rng=rng)
        p = probs.data[0]
        return ForwardTrace(
            context_outputs=np.stack([h.data[0] for h in aux["h_list"]]),
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
        """(N, K) probability rows in input order, as one tape tensor.

        Buckets run in first-occurrence order, which fixes the order in which
        dropout masks are drawn from ``rng``.
        """
        if not triples:
            return Tensor.constant(np.zeros((0, self.config.k)))
        buckets = bucket_indices(triples)
        parts = [self.forward_bucket([triples[i] for i in bucket], train=train, rng=rng)[0]
                 for bucket in buckets]
        return concat(parts, 0).take_rows(np.argsort(np.concatenate(buckets)))

    def predict_probs(self, triples: list[MentionTriple]) -> np.ndarray:
        """(N, K) inference-mode probabilities, original order, no tape."""
        with no_grad():
            return self.forward_batch(triples).data
