"""Strict accuracy and loose macro / loose micro F1 over predicted
type-paths versus gold label sets.

The scorers take a nonempty list of (gold, predicted) pairs of nonempty
frozensets, one per mention: a labeled corpus line needs a label, a
prediction expands to at least its own type, and ``nfetc eval`` rejects an
input without mentions.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus
from .hierarchy import TypeForest
from .loss import LossConfig, inference_adjust


def strict_accuracy(pairs: list[tuple]) -> float:
    """Fraction of pairs whose sets match exactly."""
    return sum(1 for gold, predicted in pairs if gold == predicted) / len(pairs)


def _f1(p: float, r: float) -> float:
    return 0.0 if p + r == 0 else 2 * p * r / (p + r)


def loose_macro_f1(pairs: list[tuple]) -> tuple[float, float, float]:
    """Per-pair precision and recall averaged over pairs, then combined.

    The F1 is the harmonic mean of the averaged precision and recall, the
    convention the fine-grained typing literature inherits.
    """
    p = sum(len(gold & predicted) / len(predicted) for gold, predicted in pairs) / len(pairs)
    r = sum(len(gold & predicted) / len(gold) for gold, predicted in pairs) / len(pairs)
    return p, r, _f1(p, r)


def loose_micro_f1(pairs: list[tuple]) -> tuple[float, float, float]:
    """Precision and recall over globally pooled intersection counts."""
    hit = sum(len(gold & predicted) for gold, predicted in pairs)
    p = hit / sum(len(predicted) for _, predicted in pairs)
    r = hit / sum(len(gold) for gold, _ in pairs)
    return p, r, _f1(p, r)


@dataclass(frozen=True)
class Metrics:
    strict: float
    macro_p: float
    macro_r: float
    macro_f1: float
    micro_p: float
    micro_r: float
    micro_f1: float

    def as_text(self) -> str:
        return " ".join(f"{k}={v:.4f}" for k, v in dataclasses.asdict(self).items()) + "\n"

    def as_json(self) -> str:
        return json.dumps(dataclasses.asdict(self))


def score_pairs(pairs: list[tuple]) -> Metrics:
    mp, mr, mf = loose_macro_f1(pairs)
    up, ur, uf = loose_micro_f1(pairs)
    return Metrics(strict=strict_accuracy(pairs), macro_p=mp, macro_r=mr,
                   macro_f1=mf, micro_p=up, micro_r=ur, micro_f1=uf)


def pairs_for(corpus: Corpus, predictions: list[int], forest: TypeForest) -> list[tuple]:
    """Gold sets as labeled in the corpus, one predicted type index per
    mention expanded to its full path."""
    return [(frozenset(triple.labels), frozenset(forest.expand_to_path(forest.path_of(idx))))
            for triple, idx in zip(corpus, predictions)]


def evaluate(model, corpus: Corpus, forest: TypeForest, config: LossConfig) -> Metrics:
    """Forward every mention in infer mode, take each row's argmax (of the
    rows adjusted when the config asks for it) and score all three metrics."""
    probs = inference_adjust(model.predict_probs(corpus), forest, config)
    return score_pairs(pairs_for(corpus, [int(i) for i in np.argmax(probs, axis=1)], forest))


def per_type_accuracy(corpus: Corpus, pairs: list[tuple]) -> dict[str, float]:
    """Strict-match rate of the corpus's ``pairs`` grouped by gold terminal
    type (multi-terminal mentions count toward each of their terminals)."""
    hits: dict[str, list[int]] = {}
    for triple, (gold, predicted) in zip(corpus, pairs):
        for term in triple.terminals:
            hits.setdefault(term, []).append(1 if gold == predicted else 0)
    return {t: sum(v) / len(v) for t, v in sorted(hits.items())}
