"""Dense float64 tensors with reverse-mode gradient recording; only the
fused ``lstm_sequence`` op may compute in another dtype inside.

Every operation appends a node to an implicit tape (the graph hanging off
its output tensor, whose parents are the inputs that need a gradient) with a
hand-derived backward closure. ``backward()`` on a scalar runs the closures
in reverse topological order, releasing each node, so it runs once per graph.
Each op's gradients are checked against central finite differences in the
test suite; composition is then automatic.

Shapes are kept 1-D or 2-D throughout. Elementwise ops broadcast like numpy
and the backward pass sums gradients over broadcast axes.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

_GRAD_ENABLED = True


@contextmanager
def no_grad():
    """Disable tape recording inside the block (inference / evaluation)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def _released(grad):
    raise RuntimeError("backward() reached a released graph: a graph is swept once")


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` by summing over broadcast axes."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A float64 array plus the tape bookkeeping needed for backprop.

    ``requires_grad`` marks tensors that participate in gradient
    computation; it propagates through ops. Constants built from data keep
    it False so the backward pass never walks into them.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "__weakref__")

    def __init__(self, data, requires_grad=False, parents=(), backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad and _GRAD_ENABLED
        self._parents = tuple(p for p in parents if p.requires_grad) if self.requires_grad else ()
        self._backward = backward if self.requires_grad else None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def constant(data) -> "Tensor":
        return Tensor(data, requires_grad=False)

    @staticmethod
    def parameter(data) -> "Tensor":
        t = Tensor(data, requires_grad=True)
        t.requires_grad = True  # parameters stay trainable even under no_grad
        return t

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- backward pass --------------------------------------------------------

    def backward(self) -> None:
        """Reverse-mode sweep from this scalar through the recorded graph. Each
        node drops its closure, parents and (unless a leaf) grad once run."""
        if self.data.shape != ():
            raise ValueError(f"backward() requires a scalar loss, got shape {self.data.shape}")
        topo: list[Tensor] = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited or not node.requires_grad:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        self.grad = np.ones((), dtype=np.float64)
        while topo:
            node = topo.pop()
            if node._backward is not None:
                node._backward(node.grad)
                node._backward, node._parents, node.grad = _released, (), None

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.asarray(grad, dtype=np.float64)
        else:
            self.grad = self.grad + grad

    # -- elementwise arithmetic (numpy broadcasting rules) ---------------------

    def _coerce(self, other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor.constant(other)

    def __add__(self, other):
        other = self._coerce(other)
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

    def __mul__(self, other):
        other = self._coerce(other)
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

    __rmul__ = __mul__

    # -- linear algebra ---------------------------------------------------------

    def matmul(self, other: "Tensor") -> "Tensor":
        """Strict 2-D matrix product (m,k) @ (k,n) -> (m,n)."""
        other = self._coerce(other)
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

    def transpose(self) -> "Tensor":
        if self.data.ndim != 2:
            raise ValueError(f"transpose needs a 2-D tensor, got shape {self.data.shape}")
        out = Tensor(self.data.T, requires_grad=self.requires_grad, parents=(self,))
        if out.requires_grad:
            out._backward = lambda g: self._accumulate(g.T)
        return out

    def reshape(self, *shape) -> "Tensor":
        out = Tensor(self.data.reshape(*shape), requires_grad=self.requires_grad, parents=(self,))
        if out.requires_grad:
            out._backward = lambda g: self._accumulate(g.reshape(self.data.shape))
        return out

    # -- nonlinearities ----------------------------------------------------------

    def tanh(self) -> "Tensor":
        y = np.tanh(self.data)
        out = Tensor(y, requires_grad=self.requires_grad, parents=(self,))
        if out.requires_grad:
            out._backward = lambda g: self._accumulate(g * (1.0 - y * y))
        return out

    # -- reductions ----------------------------------------------------------------

    def sum(self) -> "Tensor":
        out = Tensor(self.data.sum(), requires_grad=self.requires_grad, parents=(self,))
        if out.requires_grad:
            out._backward = lambda g: self._accumulate(np.broadcast_to(g, self.data.shape))
        return out

    # -- structural ops ---------------------------------------------------------------

    def take_rows(self, indices) -> "Tensor":
        """Gather rows by integer index; backward scatter-adds (shared rows sum)."""
        idx = np.asarray(indices, dtype=np.intp)
        out = Tensor(self.data[idx], requires_grad=self.requires_grad, parents=(self,))
        if out.requires_grad:
            def backward(g):   # each cell sums its terms in index order from 0.0, as np.add.at does
                rows, cols = self.data.shape[0], self.data[:1].size
                cells = (idx.reshape(-1, 1) % rows * cols + np.arange(cols)).ravel()
                full = np.bincount(cells, weights=g.ravel(), minlength=rows * cols)
                self._accumulate(full.reshape(self.data.shape))
            out._backward = backward
        return out


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


def _drop(a: np.ndarray, mask, cols=slice(None)) -> np.ndarray:
    """``a`` times the ``cols`` of a (keep bits, keep_prob) dropout ``mask``, in place,
    then float32(1/keep_prob): bit for bit ``a`` times 0 or float32(1/keep_prob)."""
    if mask is not None:
        a *= mask[0][:, cols]
        a *= np.float32(1.0 / mask[1])
    return a


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # the tanh form cannot overflow for large |x|
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def lstm_sequence(x: list[Tensor], w_in: Tensor, w_rec: Tensor, bias: Tensor,
                  lengths, reverse: bool = False, mask_in=None, mask_out=None,
                  dtype=np.float64) -> Tensor:
    """A fused-gate LSTM over a padded, time-major batch, as one tape node.

    ``x`` is a list of column blocks with the same rows, in ``w_in`` row
    order; row t*B + b is step t of sequence b. ``lengths`` may come in any
    order: the op stable-sorts the sequences longest first, so the sequences
    running at step t are the first n_t of that order and no step touches
    padding. Gate column blocks are input, forget, output, candidate.
    ``reverse`` runs each sequence from its own last step back to step 0.
    Returns the (T*B, d_s) states, zero on padded rows.

    Dropout masks ``mask_in`` and ``mask_out`` are (bits, keep_prob) pairs of
    (R, d_in) and (R, d_s) bits for the R = sum(lengths) real rows in
    time-major order, step t's rows after step t-1's and, within a step, in
    stable longest-first order. The masked input feeds the gates and the
    masked output is emitted; the recurrent state stays unmasked (Zaremba et
    al., 1409.2329).

    Only h·W_rec runs per step: x·W_in, dW_in and dW_rec are one GEMM each
    over all real rows (Appleyard, Kočiský & Blunsom, arXiv 1604.01946).
    ``dtype`` holds the input rows, weights, masks, states and BPTT buffers;
    the output and every gradient are float64, so float32 keeps float64
    master weights (Micikevicius et al., arXiv 1710.03740).
    """
    blocks = list(x)
    shapes = [blk.data.shape for blk in blocks]
    lengths = np.asarray(lengths, dtype=np.intp)
    b = lengths.size
    rows = shapes[0][0]
    if b == 0 or rows % b or any(len(s) != 2 or s[0] != rows for s in shapes):
        raise ValueError(f"lstm_sequence: input blocks {shapes} do not split "
                         f"into {b} sequences of equal rows")
    steps = rows // b
    if lengths.min() < 1 or lengths.max() > steps:
        raise ValueError(f"lstm_sequence: lengths must be in [1, {steps}], got {lengths.tolist()}")
    d = w_rec.data.shape[0]
    perm = np.argsort(-lengths, kind="stable")
    live = lengths[perm][None, :] > np.arange(steps)[:, None]
    real = (np.arange(steps)[:, None] * b + perm)[live]   # step t: rows t*B + perm[:n_t]
    if any(m is not None and len(m[0]) != real.size for m in (mask_in, mask_out)):
        raise ValueError(f"lstm_sequence: dropout masks need {real.size} rows, one per real step")
    n_at = live.sum(axis=1)
    offset = np.concatenate([[0], np.cumsum(n_at)])
    order = range(steps - 1, -1, -1) if reverse else range(steps)
    record = _GRAD_ENABLED and any(t.requires_grad for t in (*blocks, w_in, w_rec, bias))

    xr = _drop(np.concatenate([blk.data[real] for blk in blocks], axis=1, dtype=dtype), mask_in)
    w_in_c, w_rec_c = w_in.data.astype(dtype, copy=False), w_rec.data.astype(dtype, copy=False)
    gates = xr @ w_in_c   # biased and activated in place below
    gates += bias.data.astype(dtype, copy=False)
    if record:   # the states before each real step, and tanh of its cell state
        h_prev, c_prev, tanh_c = np.zeros((3, real.size, d), dtype)
    h, c = np.zeros((2, b, d), dtype)   # sequence perm[k] in row k
    hr = np.empty((real.size, d), dtype)   # emitted states in real-row order
    for t in order:
        n = n_at[t]
        z = gates[offset[t]:offset[t] + n]
        z += h[:n] @ w_rec_c
        z[:, :3 * d] = _sigmoid(z[:, :3 * d])
        z[:, 3 * d:] = np.tanh(z[:, 3 * d:])
        if record:
            h_prev[offset[t]:offset[t] + n] = h[:n]
            c_prev[offset[t]:offset[t] + n] = c[:n]
        c[:n] = z[:, d:2 * d] * c[:n] + z[:, :d] * z[:, 3 * d:]
        tc = np.tanh(c[:n])
        if record:
            tanh_c[offset[t]:offset[t] + n] = tc
        h[:n] = z[:, 2 * d:3 * d] * tc
        hr[offset[t]:offset[t] + n] = h[:n]
    out = np.zeros((rows, d))   # float64, as Tensor holds it: no second copy
    out[real] = _drop(hr, mask_out)

    result = Tensor(out, requires_grad=record, parents=(*blocks, w_in, w_rec, bias))
    if not record:
        return result
    bounds = np.cumsum([0] + [s[1] for s in shapes])
    # the backward holds only the blocks it returns a dx to, so constants go free
    trained = [(blk, slice(lo, hi)) for blk, lo, hi in zip(blocks, bounds, bounds[1:])
               if blk.requires_grad]

    def backward(g):
        g = _drop(g[real], mask_out).astype(dtype, copy=False)
        dz = np.empty_like(gates)
        dh = np.zeros((b, d), dtype)
        dc = np.zeros((b, d), dtype)
        w_rec_t = w_rec_c.T
        for t in reversed(order):
            n = n_at[t]
            s = slice(offset[t], offset[t] + n)
            i, f, o, cand = (gates[s, k * d:(k + 1) * d] for k in range(4))
            tc = tanh_c[s]
            dh_t = g[s] + dh[:n]
            dc_t = dc[:n] + dh_t * o * (1.0 - tc * tc)
            dz[s, :d] = dc_t * cand * i * (1.0 - i)
            dz[s, d:2 * d] = dc_t * c_prev[s] * f * (1.0 - f)
            dz[s, 2 * d:3 * d] = dh_t * tc * o * (1.0 - o)
            dz[s, 3 * d:] = dc_t * i * (1.0 - cand * cand)
            dh[:n] = dz[s] @ w_rec_t
            dc[:n] = dc_t * f
        for blk, cols in trained:   # frozen blocks skip their dx GEMM
            dx = np.zeros_like(blk.data)
            dx[real] = _drop(dz @ w_in_c[cols].T, mask_in, cols)
            blk._accumulate(dx)
        if w_in.requires_grad:
            w_in._accumulate(xr.T @ dz)
        if w_rec.requires_grad:
            w_rec._accumulate(h_prev.T @ dz)
        if bias.requires_grad:
            bias._accumulate(dz.sum(axis=0))

    result._backward = backward
    return result


class ParamSet:
    """Named trained tensors, in insertion order, which keeps training
    byte-deterministic. The frozen word vectors live in ``WordEmbeddings``."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, data) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name}")
        t = Tensor.parameter(data)
        if not np.all(np.isfinite(t.data)):
            raise ValueError(f"parameter {name} has non-finite values")
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def items(self):
        return list(self._params.items())

    def zero_grads(self) -> None:
        for t in self._params.values():
            t.grad = None

    def copy_values(self) -> dict[str, np.ndarray]:
        return {n: t.data.copy() for n, t in self._params.items()}

    def load_values(self, values: dict[str, np.ndarray]) -> None:
        for n, t in self._params.items():
            src = values[n]
            if src.shape != t.data.shape:
                raise ValueError(f"shape mismatch loading {n}: {src.shape} vs {t.data.shape}")
            t.data = np.array(src, dtype=np.float64)


def gradients(loss: Tensor, params: ParamSet) -> dict[str, np.ndarray]:
    """Reverse-mode gradients of a scalar loss for every parameter.

    Parameters the loss does not reach get a zero gradient of matching shape.
    """
    if loss.data.shape != ():
        raise ValueError(f"loss must be scalar, got shape {loss.data.shape}")
    params.zero_grads()
    loss.backward()
    out = {}
    for name, t in params.items():
        out[name] = t.grad if t.grad is not None else np.zeros_like(t.data)
    return out
