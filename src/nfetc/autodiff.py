"""Dense float64 tensors with reverse-mode gradient recording, and the
fused LSTM node; only ``lstm_sequence`` may compute in another dtype, and
its output keeps that dtype. Every gradient is float64.

A network is a few fused nodes, each with a hand-derived backward closure:
a row gather, the LSTMs over packed rows (every real step of a batch, none
of its padding), the model's head and the loss. Each appends a node to an
implicit tape (the graph hanging off its output tensor, whose parents are
the inputs that need a gradient). ``backward()`` on a scalar runs the
closures in reverse topological order, releasing each node, so it runs once
per graph. Each node's gradients are checked against central finite
differences in the test suite, where the generic ops the fused nodes
replaced still compose the reference network.
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


class Tensor:
    """An array, float64 unless ``dtype`` says otherwise, plus the tape
    bookkeeping needed for backprop; its gradient is float64 either way.

    ``requires_grad`` marks tensors that participate in gradient
    computation; it propagates through ops. Constants built from data keep
    it False so the backward pass never walks into them.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "__weakref__")

    def __init__(self, data, requires_grad=False, parents=(), backward=None, dtype=np.float64):
        self.data = np.asarray(data, dtype=dtype)
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


def _drop(a: np.ndarray, mask, at=slice(None)) -> np.ndarray:
    """``a`` times the entries ``at`` of a (keep bits, keep_prob) dropout ``mask``, in
    place, then float32(1/keep_prob): bit for bit ``a`` times 0 or float32(1/keep_prob)."""
    if mask is not None:
        a *= mask[0][at]
        a *= np.float32(1.0 / mask[1])
    return a


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # the tanh form cannot overflow for large |x|
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def lstm_sequence(x: list, w_in: Tensor, w_rec: Tensor, bias: Tensor, n_at,
                  reverse: bool = False, mask_in=None, mask_out=None,
                  dtype=np.float64) -> Tensor:
    """A fused-gate LSTM over a packed batch of sequences, as one tape node.

    ``n_at[t]`` sequences run at step t, so ``n_at`` is positive and
    non-increasing. The batch is packed time-major: step t's R_t = n_at[t]
    rows follow step t-1's, and sequence k of the longest-first order is row
    k of every step it runs. ``x`` is a list of column blocks of these
    R = sum(n_at) rows, in ``w_in`` row order: Tensors, or arrays for
    constant blocks, which may come in ``dtype`` already. Gate column blocks
    are input, forget, output, candidate. ``reverse`` runs each sequence from
    its own last step back to step 0. Returns the (R, d_s) states, in the
    same rows.

    Dropout masks ``mask_in`` and ``mask_out`` are (bits, keep_prob) pairs of
    (R, d_in) and (R, d_s) bits. The masked input feeds the gates and the
    masked output is emitted; the recurrent state stays unmasked (Zaremba et
    al., 1409.2329).

    Only h·W_rec runs per step: x·W_in, dW_in and dW_rec are one GEMM each
    over all rows (Appleyard, Kočiský & Blunsom, arXiv 1604.01946).
    ``dtype`` holds the input rows, weights, masks, states, BPTT buffers and
    the output; every gradient is float64, so float32 keeps float64 master
    weights (Micikevicius et al., arXiv 1710.03740). For the backward the
    node keeps the masked input, the gates, and each step's state before it
    and cell state after it; it recomputes tanh of the cell state rather
    than store it (Gruslys et al., arXiv 1606.03401).
    """
    blocks = list(x)
    datas = [blk.data if isinstance(blk, Tensor) else blk for blk in blocks]
    n_at = np.asarray(n_at, dtype=np.intp)
    if n_at.size == 0 or n_at[-1] < 1 or np.any(np.diff(n_at) > 0):
        raise ValueError(f"lstm_sequence: rows per step must be positive and "
                         f"non-increasing, got {n_at.tolist()}")
    offset = np.concatenate([[0], np.cumsum(n_at)])
    rows = offset[-1]
    shapes = [a.shape for a in datas]
    if any(len(s) != 2 or s[0] != rows for s in shapes):
        raise ValueError(f"lstm_sequence: input blocks {shapes} do not hold the "
                         f"{rows} rows of steps {n_at.tolist()}")
    if any(m is not None and len(m[0]) != rows for m in (mask_in, mask_out)):
        raise ValueError(f"lstm_sequence: dropout masks need {rows} rows, one per row of x")
    d = w_rec.data.shape[0]
    order = range(n_at.size - 1, -1, -1) if reverse else range(n_at.size)
    bounds = np.cumsum([0] + [s[1] for s in shapes])
    # the backward holds only the blocks it returns a dx to, so constants go free
    trained = [(blk, slice(lo, hi)) for blk, lo, hi in zip(blocks, bounds, bounds[1:])
               if isinstance(blk, Tensor) and blk.requires_grad]
    record = _GRAD_ENABLED and bool(trained or any(t.requires_grad for t in (w_in, w_rec, bias)))

    xr = _drop(np.concatenate(datas, axis=1, dtype=dtype), mask_in)
    w_in_c, w_rec_c = w_in.data.astype(dtype, copy=False), w_rec.data.astype(dtype, copy=False)
    gates = xr @ w_in_c   # biased and activated in place below
    gates += bias.data.astype(dtype, copy=False)
    if record:   # the state before each step, and the cell state after it
        h_prev, cells = np.empty((2, rows, d), dtype)
    h, c = np.zeros((2, n_at[0], d), dtype)   # sequence k in row k
    hr = np.empty((rows, d), dtype)   # the emitted states
    for t in order:
        s = slice(offset[t], offset[t + 1])
        n = n_at[t]
        z = gates[s]
        z += h[:n] @ w_rec_c
        z[:, :3 * d] = _sigmoid(z[:, :3 * d])
        z[:, 3 * d:] = np.tanh(z[:, 3 * d:])
        if record:
            h_prev[s] = h[:n]
        c[:n] = z[:, d:2 * d] * c[:n] + z[:, :d] * z[:, 3 * d:]
        if record:
            cells[s] = c[:n]
        h[:n] = z[:, 2 * d:3 * d] * np.tanh(c[:n])
        hr[s] = h[:n]

    result = Tensor(_drop(hr, mask_out), requires_grad=record,
                    parents=(*[blk for blk, _ in trained], w_in, w_rec, bias), dtype=dtype)
    if not record:
        return result

    def backward(g):
        dz = gates   # each step's gate gradients overwrite its gates once read
        dh = np.zeros((n_at[0], d), dtype)
        dc = np.zeros((n_at[0], d), dtype)
        w_rec_t = w_rec_c.T
        for t in reversed(order):
            n = n_at[t]
            s = slice(offset[t], offset[t + 1])
            i, f, o, cand = (gates[s, k * d:(k + 1) * d] for k in range(4))
            c_prev = np.zeros((n, d), dtype)   # the cell state of the step run before t
            before = t + 1 if reverse else t - 1
            if 0 <= before < n_at.size:
                m = min(n, n_at[before])
                c_prev[:m] = cells[offset[before]:offset[before] + m]
            tc = np.tanh(cells[s])
            # masked on a copy: the head hands the forward and backward LSTMs one array
            dh_t = _drop(g[s].copy(), mask_out, s).astype(dtype, copy=False)
            dh_t += dh[:n]
            dc_t = dc[:n] + dh_t * o * (1.0 - tc * tc)
            dz_t = (dc_t * cand * i * (1.0 - i), dc_t * c_prev * f * (1.0 - f),
                    dh_t * tc * o * (1.0 - o), dc_t * i * (1.0 - cand * cand))
            dc[:n] = dc_t * f
            for k, block in enumerate(dz_t):
                dz[s, k * d:(k + 1) * d] = block
            dh[:n] = dz[s] @ w_rec_t
        for blk, cols in trained:   # frozen blocks skip their dx GEMM
            blk._accumulate(_drop(dz @ w_in_c[cols].T, mask_in, np.s_[:, cols]))
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


def gradients(losses: list[Tensor], params: ParamSet) -> dict[str, np.ndarray]:
    """Reverse-mode gradients of the sum of scalar ``losses`` for every
    parameter, one graph swept after another: the graphs may share leaves only.

    Parameters the losses do not reach get a zero gradient of matching shape.
    """
    for loss in losses:
        if loss.data.shape != ():
            raise ValueError(f"loss must be scalar, got shape {loss.data.shape}")
    params.zero_grads()
    for loss in losses:
        loss.backward()
    out = {}
    for name, t in params.items():
        out[name] = t.grad if t.grad is not None else np.zeros_like(t.data)
    return out
