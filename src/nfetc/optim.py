"""Adam updates, inverted-dropout masks, and the shared seeded RNG.

All randomness in the package flows through ``make_rng``: a PCG64-backed
numpy Generator. PCG64's bit stream is versioned and stable across
platforms, so a seed pins the full training trajectory.
"""

from __future__ import annotations

import numpy as np

from .autodiff import ParamSet


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


# Adam's decay rates and denominator floor (Kingma & Ba, arXiv 1412.6980)
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class AdamState:
    """Per-parameter first/second moment accumulators plus the step counter."""

    def __init__(self, params: ParamSet):
        self.step = 0
        self.m = {n: np.zeros_like(a) for n, a in params.items()}
        self.v = {n: np.zeros_like(a) for n, a in params.items()}


def adam_step(params: ParamSet, grads: dict[str, np.ndarray], state: AdamState,
              lr: float) -> None:
    """One bias-corrected Adam update of every parameter, in place, by the
    gradient of the same name and shape; ``HyperParams`` checks ``lr``."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    for name, value in params.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        m_hat = m / bc1
        v_hat = v / bc2
        value -= lr * m_hat / (np.sqrt(v_hat) + EPS)


def dropout_mask(shape, keep_prob: float, rng: np.random.Generator) -> np.ndarray:
    """Keep bits of an inverted-dropout mask, one byte each: True with
    probability keep_prob. ``lstm_sequence`` scales kept entries by
    1/keep_prob, so inference needs no rescaling. Drawn from float32
    uniforms, a FIGER-size step's six masks took ~3/4 of the float64 time.
    The model draws no mask at keep_prob 1, and ``HyperParams`` keeps it in
    (0, 1].
    """
    return rng.random(shape, dtype=np.float32) < keep_prob
