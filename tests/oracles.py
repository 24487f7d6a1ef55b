"""Brute-force oracles, implemented on raw strings and sets only, plus the
reference tape ops, the per-step tape LSTM and the one-mention tape network.

The set oracles deliberately avoid the package's own algebra: ancestors are
computed by string-prefix enumeration, terminal sets by pairwise prefix
tests, and metrics by direct set arithmetic, so they can arbitrate the real
code. The reference tape is a generic reverse-mode ``Tensor``; the LSTM
oracle composes only its basic ops, each gradchecked on its own, so it can
arbitrate the fused ``lstm_sequence`` op; the network oracle composes the
same ops and that LSTM, one mention at a time, so it can arbitrate the
batched ``forward_bucket`` and its backward. The reference embedding loader
parses each value with Python's ``float``, one line at a time, so it can
arbitrate the chunked ``np.loadtxt`` parse of ``WordEmbeddings.from_file``.
"""

import numpy as np

from nfetc.embeddings import EmbeddingError, WordEmbeddings
from nfetc.textfile import numbered_lines


# -- the reference tape ----------------------------------------------------------
# A float64 array plus the bookkeeping of a reverse-mode tape, and the
# generic ops that the fused pieces of nfetc (lstm_sequence, the model's
# head, mean_nll, l2_penalty) replaced, as methods and operators, so the
# tests compose scalar losses and the reference networks below from them;
# test_autodiff gradchecks each.


class Tensor:
    """An array and, when ``requires_grad``, its gradient ``.grad`` after a
    ``backward()`` from a scalar that depends on it. Constants built from
    data keep ``requires_grad`` False, so no gradient is taken for them."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, parents=()):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = tuple(parents)
        self._backward = None

    @staticmethod
    def constant(data) -> "Tensor":
        return Tensor(data)

    @staticmethod
    def parameter(data) -> "Tensor":
        return Tensor(data, requires_grad=True)

    @property
    def shape(self):
        return self.data.shape

    def backward(self) -> None:
        """Run every recorded closure from this scalar, in reverse
        topological order, so each node's gradient is complete before it
        passes it on."""
        topo, visited, stack = [], set(), [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
            elif id(node) not in visited and node.requires_grad:
                visited.add(id(node))
                stack.append((node, True))
                stack.extend((p, False) for p in node._parents)
        self.grad = np.ones(())
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = np.asarray(grad, dtype=np.float64)
        self.grad = grad if self.grad is None else self.grad + grad

    def take_rows(self, indices) -> "Tensor":
        """Gather rows by integer index; backward scatter-adds (shared rows sum)."""
        idx = np.asarray(indices, dtype=np.intp)
        out = Tensor(self.data[idx], requires_grad=self.requires_grad, parents=(self,))
        if out.requires_grad:
            def backward(g):
                full = np.zeros_like(self.data)
                np.add.at(full, idx, g)
                self._accumulate(full)
            out._backward = backward
        return out



def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` by summing over broadcast axes."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _coerce(other) -> Tensor:
    return other if isinstance(other, Tensor) else Tensor.constant(other)


def _add(self, other):
    other = _coerce(other)
    out = Tensor(self.data + other.data,
                 requires_grad=self.requires_grad or other.requires_grad,
                 parents=(self, other))
    if out.requires_grad:
        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g, other.data.shape))
        out._backward = backward
    return out


def _mul(self, other):
    other = _coerce(other)
    out = Tensor(self.data * other.data,
                 requires_grad=self.requires_grad or other.requires_grad,
                 parents=(self, other))
    if out.requires_grad:
        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.data, other.data.shape))
        out._backward = backward
    return out


def _matmul(self, other):
    """Strict 2-D matrix product (m,k) @ (k,n) -> (m,n)."""
    other = _coerce(other)
    if self.data.ndim != 2 or other.data.ndim != 2:
        raise ValueError(f"matmul needs 2-D operands, got {self.data.shape} @ {other.data.shape}")
    if self.data.shape[1] != other.data.shape[0]:
        raise ValueError(f"matmul shape mismatch: {self.data.shape} @ {other.data.shape}")
    out = Tensor(self.data @ other.data,
                 requires_grad=self.requires_grad or other.requires_grad,
                 parents=(self, other))
    if out.requires_grad:
        def backward(g):
            if self.requires_grad:
                self._accumulate(g @ other.data.T)
            if other.requires_grad:
                other._accumulate(self.data.T @ g)
        out._backward = backward
    return out


def _transpose(self):
    if self.data.ndim != 2:
        raise ValueError(f"transpose needs a 2-D tensor, got shape {self.data.shape}")
    out = Tensor(self.data.T, requires_grad=self.requires_grad, parents=(self,))
    if out.requires_grad:
        out._backward = lambda g: self._accumulate(g.T)
    return out


def _reshape(self, *shape):
    out = Tensor(self.data.reshape(*shape), requires_grad=self.requires_grad, parents=(self,))
    if out.requires_grad:
        out._backward = lambda g: self._accumulate(g.reshape(self.data.shape))
    return out


def _tanh(self):
    y = np.tanh(self.data)
    out = Tensor(y, requires_grad=self.requires_grad, parents=(self,))
    if out.requires_grad:
        out._backward = lambda g: self._accumulate(g * (1.0 - y * y))
    return out


def _sum(self):
    out = Tensor(self.data.sum(), requires_grad=self.requires_grad, parents=(self,))
    if out.requires_grad:
        out._backward = lambda g: self._accumulate(np.broadcast_to(g, self.data.shape))
    return out


Tensor.__add__ = _add
Tensor.__mul__ = Tensor.__rmul__ = _mul
Tensor.matmul = _matmul
Tensor.transpose = _transpose
Tensor.reshape = _reshape
Tensor.tanh = _tanh
Tensor.sum = _sum


def concat(tensors: list, axis: int) -> Tensor:
    """Join tensors along ``axis``; backward splits the gradient back."""
    datas = [t.data for t in tensors]
    out = Tensor(np.concatenate(datas, axis=axis),
                 requires_grad=any(t.requires_grad for t in tensors),
                 parents=tuple(tensors))
    if out.requires_grad:
        bounds = np.cumsum([d.shape[axis] for d in datas])[:-1]
        def backward(g):
            for t, part in zip(tensors, np.split(g, bounds, axis=axis)):
                if t.requires_grad:
                    t._accumulate(part)
        out._backward = backward
    return out


def softmax_rows(m: Tensor) -> Tensor:
    """Row-wise softmax of a 2-D tensor (independent distribution per row)."""
    if m.data.ndim != 2:
        raise ValueError(f"softmax_rows needs a 2-D tensor, got shape {m.data.shape}")
    if m.data.shape[1] == 0:
        raise ValueError("softmax over empty rows")
    e = np.exp(m.data - m.data.max(axis=1, keepdims=True))
    s = e / e.sum(axis=1, keepdims=True)
    out = Tensor(s, requires_grad=m.requires_grad, parents=(m,))
    if out.requires_grad:
        out._backward = lambda g: m._accumulate(s * (g - (g * s).sum(axis=1, keepdims=True)))
    return out


def brute_ancestors(path: str) -> set:
    parts = path.split("/")[1:]
    return {"/" + "/".join(parts[:i]) for i in range(1, len(parts))}


def brute_expand(path: str) -> set:
    return {path} | brute_ancestors(path)


def brute_terminal_set(labels) -> set:
    labels = set(labels)
    return {y for y in labels
            if not any(other != y and other.startswith(y + "/") for other in labels)}


def brute_single_path(labels) -> bool:
    terminals = brute_terminal_set(labels)
    if len(terminals) != 1:
        return False
    (t,) = terminals
    return all(y == t or t.startswith(y + "/") for y in labels)


def random_forest_paths(rng: np.random.Generator, max_types: int = 50,
                        max_depth: int = 4) -> list:
    """A random prefix-closed slash-path set (each parent present)."""
    segments = list("abcdefgh")
    paths = set()
    target = int(rng.integers(1, max_types + 1))
    guard = 0
    while len(paths) < target and guard < 400:
        guard += 1
        if not paths or rng.random() < 0.3:
            candidate = "/" + str(rng.choice(segments))
        else:
            base = str(rng.choice(sorted(paths)))
            if base.count("/") >= max_depth:
                continue
            candidate = base + "/" + str(rng.choice(segments))
        paths.add(candidate)
    return sorted(paths)


def brute_pair_metrics(pairs):
    """(strict, macro_p, macro_r, macro_f1, micro_p, micro_r, micro_f1) by
    direct counting over (gold set, predicted set) tuples."""
    n = len(pairs)
    strict = sum(1 for g, p in pairs if set(g) == set(p)) / n
    mp = sum(len(set(g) & set(p)) / len(set(p)) for g, p in pairs) / n
    mr = sum(len(set(g) & set(p)) / len(set(g)) for g, p in pairs) / n
    hit = sum(len(set(g) & set(p)) for g, p in pairs)
    up = hit / sum(len(set(p)) for _, p in pairs)
    ur = hit / sum(len(set(g)) for g, _ in pairs)

    def f1(p, r):
        return 0.0 if p + r == 0 else 2 * p * r / (p + r)

    return strict, mp, mr, f1(mp, mr), up, ur, f1(up, ur)


def tape_sigmoid(x):
    """Logistic sigmoid composed from tape ops: 0.5 * (1 + tanh(x / 2))."""
    return (x * 0.5).tanh() * 0.5 + 0.5


def tape_cols(m, start: int, length: int):
    """Column slice [:, start:start + length] composed from tape ops."""
    return m.transpose().take_rows(np.arange(start, start + length)).transpose()


def tape_lstm(xs, w_in, w_rec, bias, reverse=False):
    """The per-step LSTM the fused ``lstm_sequence`` op replaced, recorded
    node by node on the tape: ``xs`` is one (B, d_in) tensor per step of
    equal-length sequences; returns the emitted (B, d_s) state per step."""
    d_s = w_rec.shape[0]
    b = xs[0].shape[0]
    h = Tensor.constant(np.zeros((b, d_s)))
    c = Tensor.constant(np.zeros((b, d_s)))
    outputs = [None] * len(xs)
    for t in (range(len(xs) - 1, -1, -1) if reverse else range(len(xs))):
        z = xs[t].matmul(w_in) + h.matmul(w_rec) + bias
        gate_i = tape_sigmoid(tape_cols(z, 0, d_s))
        gate_f = tape_sigmoid(tape_cols(z, d_s, d_s))
        gate_o = tape_sigmoid(tape_cols(z, 2 * d_s, d_s))
        cand = tape_cols(z, 3 * d_s, d_s).tanh()
        c = gate_f * c + gate_i * cand
        h = gate_o * c.tanh()
        outputs[t] = h
    return outputs


def tape_params(params) -> dict:
    """A trainable Tensor over each array of a ParamSet, by name, sharing
    its memory."""
    return {name: Tensor.parameter(value) for name, value in params.items()}


def tape_forward(model, m, p):
    """The network for one mention ``m`` with the weights ``p`` (Tensors by
    name, as ``tape_params`` gives them), recorded node by node on the tape
    without dropout; returns its (1, K) probabilities. It reads the words and position rows itself: a distance
    of d tokens from the span takes row d + c inside the window and the
    shared row 2c + 1 beyond it, and the extended mention's steps outside
    the sentence take the zero vector."""
    emb = model.embeddings
    c = (p["pos_table"].shape[0] - 2) // 2
    rows = {w: i for i, w in enumerate(emb.words)}

    def word(k):
        inside = 0 <= k < len(m.tokens) and m.tokens[k] in rows
        vec = emb.matrix[rows[m.tokens[k]]] if inside else np.zeros(emb.dim)
        return Tensor.constant(vec.reshape(1, -1))

    def position(k):
        d = k - m.start if k < m.start else max(0, k - (m.end - 1))
        return p["pos_table"].take_rows([d + c if abs(d) <= c else 2 * c + 1])

    steps = [concat([word(k), position(k)], 1) for k in range(len(m.tokens))]
    fw = tape_lstm(steps, p["ctx_fw.w_in"], p["ctx_fw.w_rec"], p["ctx_fw.bias"])
    bw = tape_lstm(steps, p["ctx_bw.w_in"], p["ctx_bw.w_rec"], p["ctx_bw.bias"], reverse=True)
    context = concat([f + b for f, b in zip(fw, bw)], 0)              # (T, d_s)
    w_col = p["attn_w"].reshape(p["attn_w"].shape[0], 1)
    alpha = softmax_rows(context.tanh().matmul(w_col).transpose())    # (1, T)
    r_c = alpha.matmul(context)
    r_a = Tensor.constant(sum(word(k).data for k in range(m.start, m.end)) / (m.end - m.start))
    extended = [word(k) for k in range(m.start - 1, m.end + 1)]
    r_l = tape_lstm(extended, p["men.w_in"], p["men.w_rec"], p["men.bias"])[-1]
    feature = concat([r_c, r_a, r_l], 1)
    return softmax_rows(feature.matmul(p["cls_w"].transpose()) + p["cls_b"])


def reference_embeddings(path) -> WordEmbeddings:
    """Load ``word v1 .. v_dw`` lines; d_w is fixed by the first line."""
    words: list[str] = []
    rows: list[list[float]] = []
    linenos: list[int] = []
    seen = set()
    dim = None
    for lineno, line in numbered_lines(path, EmbeddingError):
        parts = line.split()
        if not parts:
            continue
        word, values = parts[0], parts[1:]
        if dim is None:
            dim = len(values)
            if dim == 0:
                raise EmbeddingError(f"{path}:{lineno}: no vector values")
        elif len(values) != dim:
            raise EmbeddingError(f"{path}:{lineno}: expected {dim} values, "
                                 f"got {len(values)}")
        if word in seen:
            raise EmbeddingError(f"{path}:{lineno}: duplicate word {word!r}")
        seen.add(word)
        try:
            rows.append([float(v) for v in values])
        except ValueError:
            raise EmbeddingError(f"{path}:{lineno}: non-numeric value") from None
        words.append(word)
        linenos.append(lineno)
    if not words:
        raise EmbeddingError(f"{path}: empty embedding file")
    matrix = np.array(rows, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
    if bad.size:
        raise EmbeddingError(f"{path}:{linenos[bad[0]]}: non-finite value")
    return WordEmbeddings(words, matrix)

