"""Strict accuracy and loose macro / loose micro F1 over predicted
type-paths versus gold label sets.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus
from .hierarchy import TypeForest
from .loss import LossConfig, inference_adjust


@dataclass(frozen=True)
class EvalPair:
    """One mention's gold label set against the predicted type-path set."""

    gold: frozenset
    predicted: frozenset

    def __post_init__(self):
        if not self.gold or not self.predicted:
            raise ValueError("gold and predicted sets must be nonempty")


def strict_accuracy(pairs: list[EvalPair]) -> float:
    """Fraction of pairs whose sets match exactly."""
    if not pairs:
        raise ValueError("no pairs to score")
    return sum(1 for p in pairs if p.gold == p.predicted) / len(pairs)


def _f1(p: float, r: float) -> float:
    return 0.0 if p + r == 0 else 2 * p * r / (p + r)


def loose_macro_f1(pairs: list[EvalPair]) -> tuple[float, float, float]:
    """Per-pair precision and recall averaged over pairs, then combined.

    The F1 is the harmonic mean of the averaged precision and recall, the
    convention the fine-grained typing literature inherits.
    """
    if not pairs:
        raise ValueError("no pairs to score")
    p = sum(len(x.gold & x.predicted) / len(x.predicted) for x in pairs) / len(pairs)
    r = sum(len(x.gold & x.predicted) / len(x.gold) for x in pairs) / len(pairs)
    return p, r, _f1(p, r)


def loose_micro_f1(pairs: list[EvalPair]) -> tuple[float, float, float]:
    """Precision and recall over globally pooled intersection counts."""
    if not pairs:
        raise ValueError("no pairs to score")
    hit = sum(len(x.gold & x.predicted) for x in pairs)
    p = hit / sum(len(x.predicted) for x in pairs)
    r = hit / sum(len(x.gold) for x in pairs)
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


def score_pairs(pairs: list[EvalPair]) -> Metrics:
    mp, mr, mf = loose_macro_f1(pairs)
    up, ur, uf = loose_micro_f1(pairs)
    return Metrics(strict=strict_accuracy(pairs), macro_p=mp, macro_r=mr,
                   macro_f1=mf, micro_p=up, micro_r=ur, micro_f1=uf)


def predict_indices(model, corpus: Corpus, forest: TypeForest,
                    config: LossConfig) -> list[int]:
    """Predicted type index per mention, the argmax of the model's batched
    ``predict_probs`` rows (adjusted when the config asks for it)."""
    probs = inference_adjust(model.predict_probs(list(corpus)), forest, config)
    return [int(i) for i in np.argmax(probs, axis=1)]


def pairs_for(corpus: Corpus, predictions: list[int], forest: TypeForest) -> list[EvalPair]:
    """Gold sets as labeled in the corpus; predictions expanded to full paths."""
    if len(predictions) != len(corpus):
        raise ValueError(f"{len(predictions)} predictions for {len(corpus)} mentions")
    out = []
    for triple, idx in zip(corpus, predictions):
        if not triple.labels:
            raise ValueError("cannot score an unlabeled mention")
        predicted = frozenset(forest.expand_to_path(forest.path_of(idx)))
        out.append(EvalPair(gold=frozenset(triple.labels), predicted=predicted))
    return out


def evaluate(model, corpus: Corpus, forest: TypeForest, config: LossConfig) -> Metrics:
    """Forward every mention in infer mode and score all three metrics."""
    predictions = predict_indices(model, corpus, forest, config)
    return score_pairs(pairs_for(corpus, predictions, forest))


def per_type_accuracy(corpus: Corpus, predictions: list[int],
                      forest: TypeForest) -> dict[str, float]:
    """Strict-match rate grouped by gold terminal type (multi-terminal
    mentions count toward each of their terminals)."""
    hits: dict[str, list[int]] = {}
    pairs = pairs_for(corpus, predictions, forest)
    for triple, pair in zip(corpus, pairs):
        for term in triple.terminals:
            hits.setdefault(term, []).append(1 if pair.gold == pair.predicted else 0)
    return {t: sum(v) / len(v) for t, v in sorted(hits.items())}
