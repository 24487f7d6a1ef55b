"""Training objectives: cross-entropy, its noise-tolerant variant that picks
the currently most probable candidate type, hierarchy-aware probability
adjustment, and L2 regularization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ParamSet, Tensor, no_grad
from .corpus import MentionTriple
from .hierarchy import TypeForest

# floor inside log(); keeps a saturated softmax from producing -inf
PROB_FLOOR = 1e-12

MODES = ("standard", "variant")


@dataclass(frozen=True)
class LossConfig:
    """Objective switches.

    lam scales the L2 penalty over the trained parameters. beta tunes how much
    ancestor probability mass is credited to each type before the loss; the
    adjustment is active only when ``hier`` is set. ``mode`` picks between
    plain cross-entropy on a single gold type and the variant that selects
    the most probable candidate terminal each step. ``hier_at_inference``
    optionally applies the adjustment before the prediction argmax too, and
    ``select_on_adjusted`` controls whether the variant's selection reads the
    adjusted or the raw distribution.
    """

    lam: float = 0.0
    beta: float = 0.0
    mode: str = "standard"
    hier: bool = False
    hier_at_inference: bool = False
    select_on_adjusted: bool = True

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")
        if self.beta < 0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")


def hierarchical_adjust_rows(p_rows: Tensor, forest: TypeForest, beta: float) -> Tensor:
    """Row-wise adjustment of (B, K) probability rows: each type gains beta
    times the summed probability of its proper ancestors, then every row is
    renormalized back to a distribution."""
    if p_rows.data.ndim != 2:
        raise ValueError(f"expected 2-D probability rows, got shape {p_rows.data.shape}")
    if p_rows.data.shape[1] != len(forest):
        raise ValueError(f"row width {p_rows.data.shape[1]} does not match "
                         f"forest of {len(forest)} types")
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    if beta == 0.0:
        return p_rows
    anc_t = Tensor.constant(forest.ancestor_matrix().T)
    q = p_rows + p_rows.matmul(anc_t) * beta
    return q / q.row_sums()


def l2_penalty(params: ParamSet, lam: float) -> Tensor:
    """lam times the summed squares of every parameter."""
    if lam < 0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    if lam == 0.0:
        return Tensor.constant(0.0)
    total = Tensor.constant(0.0)
    for _, t in params.items():
        total = total + (t * t).sum()
    return total * lam


def select_candidate(p_values: np.ndarray, candidates) -> int:
    """Most probable candidate index, lowest index on ties. The selection is
    a constant of the current step: no gradient flows through the choice."""
    cand = sorted(candidates)
    if not cand:
        raise ValueError("empty candidate set")
    return cand[int(np.argmax(p_values[cand]))]


def mean_nll(probs: Tensor, triples: list[MentionTriple], config: LossConfig,
             forest: TypeForest) -> Tensor:
    """Mean negative log likelihood over (B, K) probability rows, without the
    L2 term.

    Standard mode requires a single candidate terminal per mention (filtered
    data); variant mode selects among the candidates each step.
    """
    if not triples:
        raise ValueError("empty batch")
    if probs.data.shape != (len(triples), len(forest)):
        raise ValueError(f"probability rows {probs.data.shape} do not match "
                         f"{len(triples)} mentions over {len(forest)} types")
    rows = hierarchical_adjust_rows(probs, forest, config.beta) if config.hier else probs
    selection_source = rows.data if config.select_on_adjusted else probs.data
    gold = []
    for b, triple in enumerate(triples):
        cand = sorted(forest.index(t) for t in triple.terminals)
        if config.mode == "standard":
            if len(cand) != 1:
                raise ValueError(
                    f"standard cross-entropy needs a single candidate terminal, "
                    f"got {len(cand)}; filter the corpus or use variant mode")
            gold.append(cand[0])
        else:
            gold.append(select_candidate(selection_source[b], cand))
    picked = rows.pick_rows(gold)
    return (-(picked.clip_min(PROB_FLOOR).log())).mean()


def inference_adjust(probs: np.ndarray, forest: TypeForest, config: LossConfig) -> np.ndarray:
    """Distribution rows as the predictor should see them: adjusted only when
    the config asks for hierarchy awareness at inference time."""
    if not (config.hier and config.hier_at_inference):
        return probs
    with no_grad():
        return hierarchical_adjust_rows(Tensor.constant(probs), forest, config.beta).data
