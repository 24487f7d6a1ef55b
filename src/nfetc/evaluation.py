"""Strict accuracy and loose macro / loose micro F1 over predicted
type-paths versus gold label sets.

A ``Tally`` scores (gold, predicted) pairs of nonempty frozensets, one per
mention, and at least one: a labeled corpus line needs a label, a
prediction expands to at least its own type, and ``nfetc eval`` rejects an
input without mentions.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import sys
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus
from .hierarchy import TypeForest
from .loss import LossConfig, inference_adjust


# From Python 3.12 on ``sum`` adds floats with Neumaier's compensation.
COMPENSATED = sys.version_info >= (3, 12)


class FloatSum:
    """A running sum of floats that, added to term by term, ends at what
    ``sum`` over the same terms in the same order gives on this
    interpreter: one plain ``+`` per term before Python 3.12, Neumaier's
    compensated sum (CPython's ``sum``) from 3.12 on."""

    def __init__(self):
        self.total = self.error = 0.0

    def add(self, x: float) -> None:
        t = self.total + x
        if COMPENSATED:
            big, small = (self.total, x) if abs(self.total) >= abs(x) else (x, self.total)
            self.error += (big - t) + small
        self.total = t

    def value(self) -> float:
        return self.total + self.error if self.error else self.total


def _f1(p: float, r: float) -> float:
    return 0.0 if p + r == 0 else 2 * p * r / (p + r)


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


class Tally:
    """The sums the metrics are formed from, which pairs are added to in
    order, a block at a time if need be: the same floats as one ``sum``
    over all pairs (``FloatSum``).

    Strict accuracy is the share of pairs whose sets match exactly. Loose
    macro averages each pair's precision and recall over the pairs, loose
    micro pools their intersection counts; either F1 is the harmonic mean
    of its precision and recall, the convention the fine-grained typing
    literature inherits."""

    def __init__(self):
        self.pairs = self.exact = self.common = self.predicted = self.gold = 0
        self.precision, self.recall = FloatSum(), FloatSum()   # per pair, for macro
        self.by_terminal: dict[str, list[int]] = {}   # terminal -> [exact, pairs]

    def add(self, pairs, mentions=None):
        """Count each (gold, predicted) pair; given the mentions they score,
        also under each of the mention's gold terminals."""
        terminals = itertools.repeat(()) if mentions is None else (m.terminals for m in mentions)
        for (gold, predicted), terms in zip(pairs, terminals):
            common, exact = len(gold & predicted), gold == predicted
            self.pairs += 1
            self.exact += exact
            self.precision.add(common / len(predicted))
            self.recall.add(common / len(gold))
            self.common += common
            self.predicted += len(predicted)
            self.gold += len(gold)
            for term in terms:
                counts = self.by_terminal.setdefault(term, [0, 0])
                counts[0] += exact
                counts[1] += 1

    def metrics(self) -> Metrics:
        mp, mr = self.precision.value() / self.pairs, self.recall.value() / self.pairs
        up, ur = self.common / self.predicted, self.common / self.gold
        return Metrics(strict=self.exact / self.pairs, macro_p=mp, macro_r=mr,
                       macro_f1=_f1(mp, mr), micro_p=up, micro_r=ur, micro_f1=_f1(up, ur))

    def per_type(self) -> dict[str, float]:
        """Strict accuracy by gold terminal type, in type order
        (multi-terminal mentions count toward each of their terminals)."""
        return {t: exact / n for t, (exact, n) in sorted(self.by_terminal.items())}


def score_pairs(pairs: list[tuple]) -> Metrics:
    tally = Tally()
    tally.add(pairs)
    return tally.metrics()


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
