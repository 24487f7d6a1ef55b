"""Brute-force oracles, implemented on raw strings and sets only, plus the
per-step tape LSTM.

The set oracles deliberately avoid the package's own algebra: ancestors are
computed by string-prefix enumeration, terminal sets by pairwise prefix
tests, and metrics by direct set arithmetic, so they can arbitrate the real
code. The LSTM oracle composes only the basic tape ops, each gradchecked on
its own, so it can arbitrate the fused ``lstm_sequence`` op.
"""

import numpy as np

from nfetc.autodiff import Tensor


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
