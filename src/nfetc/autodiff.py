"""The fused LSTM over packed rows, with its hand-derived backward, and
``ParamSet``, the dict of named trained parameters.

The network is fixed, so its backward is one explicit chain rather than a
tape: each fused piece (this LSTM, the model's head) computes in numpy and,
when asked to record, returns a closure that maps the gradient of its
output to the gradients of its inputs; ``NfetcModel.forward_bucket`` chains
them, and the loss functions return their gradient with their value. Only
``lstm_sequence`` may compute in another dtype than float64, and its output
keeps that dtype; every gradient is float64. Each piece's gradients are
checked against central finite differences in the test suite, where a
reference tape of generic ops still composes the networks the fused pieces
replaced.

``ParamSet`` adds to ``dict`` only the snapshot copy and restore that early
stopping uses; storing a value checks nothing.
"""

from __future__ import annotations

import numpy as np


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


def lstm_sequence(x: list, w_in: np.ndarray, w_rec: np.ndarray, bias: np.ndarray, n_at,
                  reverse: bool = False, mask_in=None, mask_out=None,
                  dtype=np.float64, record=None):
    """A fused-gate LSTM over a packed batch of sequences.

    ``n_at[t]`` sequences run at step t, so ``n_at`` is positive and
    non-increasing, as ``model._packed`` makes it. The batch is packed
    time-major: step t's R_t = n_at[t] rows follow step t-1's, and sequence
    k of the longest-first order is row k of every step it runs. ``x`` is a
    list of column blocks of these R = sum(n_at) rows, in ``w_in`` row
    order, which may come in ``dtype`` already; one block in ``dtype`` is
    read in place unless it is masked, so two calls can share it and
    neither writes to it. Gate column blocks are input, forget, output,
    candidate.
    ``reverse`` runs each sequence from its own last step back to step 0.
    Returns the (R, d_s) states, in the same rows, and their backward.

    The backward is None unless ``record`` lists the blocks of ``x`` that
    take a gradient (possibly none). ``backward(g)`` maps the gradient of
    the states to the dx of each listed block, then dW_in, dW_rec and dbias;
    it overwrites the gates the op keeps, so it runs once. A block that is
    not listed skips its dx GEMM.

    Dropout masks ``mask_in`` and ``mask_out`` are (bits, keep_prob) pairs of
    (R, d_in) and (R, d_s) bits. The masked input feeds the gates and the
    masked output is emitted; the recurrent state stays unmasked (Zaremba et
    al., 1409.2329).

    Only h·W_rec runs per step: x·W_in, dW_in and dW_rec are one GEMM each
    over all rows (Appleyard, Kočiský & Blunsom, arXiv 1604.01946).
    ``dtype`` holds the input rows, weights, masks, states, BPTT buffers and
    the output; every gradient is float64, so float32 keeps float64 master
    weights (Micikevicius et al., arXiv 1710.03740). For the backward the
    op keeps the masked input, the gates, and each step's state before it
    and cell state after it; it recomputes tanh of the cell state rather
    than store it (Gruslys et al., arXiv 1606.03401).
    """
    n_at = np.asarray(n_at, dtype=np.intp)
    offset = np.concatenate([[0], np.cumsum(n_at)])
    rows = offset[-1]
    d = w_rec.shape[0]
    order = range(n_at.size - 1, -1, -1) if reverse else range(n_at.size)
    bounds = np.cumsum([0] + [a.shape[1] for a in x])

    if len(x) == 1 and mask_in is None:   # read in place: the caller may share it
        xr = x[0].astype(dtype, copy=False)
    else:
        xr = _drop(np.concatenate(x, axis=1, dtype=dtype), mask_in)
    w_in_c, w_rec_c = w_in.astype(dtype, copy=False), w_rec.astype(dtype, copy=False)
    gates = xr @ w_in_c   # biased and activated in place below
    gates += bias.astype(dtype, copy=False)
    if record is not None:   # the state before each step, and the cell state after it
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
        if record is not None:
            h_prev[s] = h[:n]
        c[:n] = z[:, d:2 * d] * c[:n] + z[:, :d] * z[:, 3 * d:]
        if record is not None:
            cells[s] = c[:n]
        h[:n] = z[:, 2 * d:3 * d] * np.tanh(c[:n])
        hr[s] = h[:n]
    if record is None:
        return _drop(hr, mask_out), None
    cols = [slice(bounds[k], bounds[k + 1]) for k in record]

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
        dx = [_drop(dz @ w_in_c[c].T, mask_in, np.s_[:, c]) for c in cols]
        return tuple(np.asarray(a, dtype=np.float64)
                     for a in (*dx, xr.T @ dz, h_prev.T @ dz, dz.sum(axis=0)))

    return _drop(hr, mask_out), backward


class ParamSet(dict):
    """Named trained float64 arrays, in insertion order, which keeps training
    byte-deterministic. Each value is finite float64 where it enters:
    ``init_params`` draws it, ``checkpoint.load`` checks it and ``train``
    checks every step. The frozen word vectors live in ``WordEmbeddings``."""

    def copy_values(self) -> dict[str, np.ndarray]:
        return {n: a.copy() for n, a in self.items()}

    def load_values(self, values: dict[str, np.ndarray]) -> None:
        for n in self:
            self[n] = np.array(values[n], dtype=np.float64)
