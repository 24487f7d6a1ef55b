"""Training objectives: cross-entropy, its noise-tolerant variant that picks
the currently most probable candidate type, hierarchy-aware probability
adjustment, and L2 regularization.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .autodiff import ParamSet
from .corpus import MentionTriple
from .hierarchy import TypeForest

# floor inside log(); keeps a saturated softmax from producing -inf
PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class LossConfig:
    """Objective switches.

    lam scales the L2 penalty over the trained parameters. beta tunes how much
    ancestor probability mass is credited to each type before the loss; the
    adjustment is active only when ``hier`` is set. ``hier_at_inference``
    adjusts the rows before the prediction argmax too.
    """

    lam: float = 0.0
    beta: float = 0.0
    hier: bool = False
    hier_at_inference: bool = False

    def __post_init__(self):
        for name in ("lam", "beta"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {v}")


def hierarchical_adjust_rows(p_rows: np.ndarray, forest: TypeForest, beta: float) -> np.ndarray:
    """Row-wise adjustment of (B, K) probability rows: each type gains beta
    times the summed probability of its proper ancestors, then every row is
    renormalized back to a distribution."""
    if beta == 0.0:
        return p_rows
    q = p_rows + (p_rows @ forest.ancestor_matrix().T) * beta
    return q / q.sum(axis=1, keepdims=True)


def l2_penalty(params: ParamSet, lam: float) -> tuple[float, Iterator[tuple[str, np.ndarray]]]:
    """lam times the summed squares of every parameter, and its gradient
    2·lam·θ as (name, array) pairs, none when lam is 0. Each array is made
    as it is read, so a step that reads them after its backward never holds
    a second copy of every parameter during it."""
    if lam == 0.0:
        return 0.0, iter(())
    items = params.items()
    total = sum((a * a).sum() for _, a in items)
    return total * lam, ((n, 2.0 * lam * a) for n, a in items)


def select_candidate(p_values: np.ndarray, candidates) -> int:
    """Most probable candidate index, lowest index on ties. The selection is
    a constant of the current step: no gradient flows through the choice."""
    cand = sorted(candidates)
    return cand[int(np.argmax(p_values[cand]))]


def mean_nll(probs: np.ndarray, triples: list[MentionTriple], config: LossConfig,
             forest: TypeForest) -> tuple[float, np.ndarray]:
    """Mean negative log likelihood over (B, K) probability rows, without the
    L2 term, and its gradient with respect to the rows.

    With ``hier`` and beta > 0 the rows are adjusted first. Each mention's
    gold type is the candidate terminal those rows rate highest: on a
    mention of one candidate, as every filtered one is, that is plain
    cross-entropy. Picked probabilities are floored at PROB_FLOOR, and a
    floored entry passes no gradient.

    The gradient is derived by hand and repeats, operation for operation, the
    rounding of the adjustment, pick, floor, log and mean composed as
    separate ops.
    """
    p, b, beta = probs, len(triples), config.beta
    adjust = config.hier and beta > 0
    rows = hierarchical_adjust_rows(p, forest, beta) if adjust else p
    gold = [select_candidate(rows[i], [forest.index(t) for t in triple.terminals])
            for i, triple in enumerate(triples)]
    at = (np.arange(b), np.asarray(gold, dtype=np.intp))
    picked = rows[at]
    floored = np.maximum(picked, PROB_FLOOR)

    grad = np.zeros_like(p)
    grad[at] = np.where(picked > PROB_FLOOR, -(1.0 / float(b)) / floored, 0.0)
    if adjust:   # back through q / q.sum(axis=1), then q = p + beta p A^T
        anc = forest.ancestor_matrix()
        q = p + (p @ anc.T) * beta
        s = q.sum(axis=1, keepdims=True)
        grad = grad / s + (-grad * q / (s * s)).sum(axis=1, keepdims=True)
        grad = grad + (grad * beta) @ anc
    return (-np.log(floored)).sum() / float(b), grad


def inference_adjust(probs: np.ndarray, forest: TypeForest, config: LossConfig) -> np.ndarray:
    """Distribution rows as the predictor should see them: adjusted only when
    the config asks for hierarchy awareness at inference time."""
    if not (config.hier and config.hier_at_inference):
        return probs
    return hierarchical_adjust_rows(probs, forest, config.beta)
