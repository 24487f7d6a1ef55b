import functools
import json
import operator
import sys
from pathlib import Path

import numpy as np
import pytest

from nfetc import evaluation
from nfetc.cli import main
from nfetc.corpus import Corpus, CorpusError, MentionTriple, parse_corpus
from nfetc.evaluation import Metrics, Tally, evaluate, pairs_for, score_pairs
from nfetc.hierarchy import TypeForest
from nfetc.loss import LossConfig
from nfetc.optim import make_rng
from oracles import brute_pair_metrics

MINI = Path(__file__).parent / "fixtures" / "mini"
CHECKPOINT = Path(__file__).parent / "fixtures" / "ckpt_v1" / "model.ckpt"


@pytest.fixture(scope="module")
def forest():
    return TypeForest.from_file(MINI / "types.txt")


@pytest.fixture(scope="module")
def corpus(forest):
    return parse_corpus(MINI / "corpus.tsv", forest, tag="mini")


@pytest.fixture(scope="module")
def manifest():
    with open(MINI / "manifest.json") as fh:
        return json.load(fh)


def pair(gold, predicted):
    return frozenset(gold), frozenset(predicted)


# -- single-pair arithmetic -----------------------------------------------------


def test_overly_general_prediction_worked_example():
    m = score_pairs([pair({"/person", "/person/athlete"}, {"/person"})])
    assert (m.macro_p, m.macro_r) == (1.0, 0.5)
    assert m.macro_f1 == pytest.approx(2.0 / 3.0, abs=1e-15)
    # one pair: pooled counts coincide with the per-pair average
    assert (m.micro_p, m.micro_r, m.micro_f1) == (m.macro_p, m.macro_r, m.macro_f1)
    assert m.strict == 0.0


def test_exact_match_scores_one():
    m = score_pairs([pair({"/a", "/a/b"}, {"/a", "/a/b"})])
    assert m == Metrics(*[1.0] * 7)


def test_disjoint_sets_score_zero():
    m = score_pairs([pair({"/a"}, {"/b"})])
    assert m == Metrics(*[0.0] * 7)


def test_pair_order_is_irrelevant():
    pairs = [pair({"/a"}, {"/a"}), pair({"/b"}, {"/c"}),
             pair({"/a", "/a/b"}, {"/a"})]
    shuffled = [pairs[2], pairs[0], pairs[1]]
    assert score_pairs(pairs) == score_pairs(shuffled)


def test_singleton_sets_collapse_macro_and_micro():
    rng = make_rng(13)
    names = [f"/t{i}" for i in range(6)]
    pairs = [pair({names[int(rng.integers(6))]}, {names[int(rng.integers(6))]})
             for _ in range(40)]
    m = score_pairs(pairs)
    assert m.macro_p == m.micro_p == m.macro_r == m.micro_r == m.strict


def test_empty_sets_rejected(forest, tmp_path):
    # neither set of a pair can be empty: a line of a corpus to score needs a
    # label, and a prediction expands to at least its own type
    p = tmp_path / "c.tsv"
    p.write_text("0 1\tJordan\t\n")
    with pytest.raises(CorpusError, match="missing labels"):
        parse_corpus(p, forest)
    assert all(t in forest.expand_to_path(t) for t in forest.types())


@pytest.mark.parametrize("fields", [
    pytest.param(("strict",), id="strict_accuracy"),
    pytest.param(("macro_p", "macro_r", "macro_f1"), id="loose_macro_f1"),
    pytest.param(("micro_p", "micro_r", "micro_f1"), id="loose_micro_f1"),
])
def test_no_pairs_rejected(fields, tmp_path, monkeypatch, capsys):
    # an eval input without mentions is rejected, naming the file, before any
    # pair is counted or any of the metric's fields formed from no pairs
    calls = []
    monkeypatch.setattr(evaluation.Tally, "add", lambda self, *a: calls.append(a))
    monkeypatch.setattr(evaluation.Tally, "metrics", lambda self: calls.append("metrics"))
    empty = tmp_path / "empty.tsv"
    empty.write_text("\n")
    code = main(["eval", "--set", f"checkpoint={CHECKPOINT}", "--set", f"input={empty}"])
    assert code == 1
    out, err = capsys.readouterr()
    assert err == f"error: {empty}: no mentions to score\n"
    assert not any(f in out for f in fields)
    assert calls == []


def test_a_tally_added_in_blocks_gives_one_sum_over_the_pairs():
    # each sum takes one term per pair in order, so blocks of any size give
    # the floats of ``sum`` over all pairs on the interpreter that runs this
    rng = make_rng(7)
    universe = [f"/u{i}" for i in range(9)]
    raw = [(frozenset(rng.choice(universe, size=int(rng.integers(1, 4)), replace=False).tolist()),
            frozenset(rng.choice(universe, size=int(rng.integers(1, 4)), replace=False).tolist()))
           for _ in range(1000)]
    whole = score_pairs(raw)
    for size in (1, 7, 999):
        tally = Tally()
        for lo in range(0, len(raw), size):
            tally.add(raw[lo:lo + size])
        assert tally.metrics() == whole
    n = len(raw)
    mp = sum(len(g & p) / len(p) for g, p in raw) / n
    mr = sum(len(g & p) / len(g) for g, p in raw) / n
    assert (whole.macro_p, whole.macro_r, whole.macro_f1) == (mp, mr, 2 * mp * mr / (mp + mr))
    common = sum(len(g & p) for g, p in raw)
    assert (whole.micro_p, whole.micro_r) == (common / sum(len(p) for _, p in raw),
                                              common / sum(len(g) for g, _ in raw))
    assert whole.strict == sum(g == p for g, p in raw) / n


@pytest.mark.parametrize("compensated", [False, True])
def test_a_float_sum_ends_where_sum_does(monkeypatch, compensated):
    # plain adds before Python 3.12, Neumaier's compensation from 3.12 on
    monkeypatch.setattr(evaluation, "COMPENSATED", compensated)
    for terms, want in [([0.1] * 10, 1.0 if compensated else 0.9999999999999999),
                        ([1.0, 1e100, 1.0, -1e100], 2.0 if compensated else 0.0),
                        ([], 0.0)]:
        total = evaluation.FloatSum()
        for x in terms:
            total.add(x)
        assert total.value() == want
    terms = make_rng(3).random(1000).tolist()
    total = evaluation.FloatSum()
    for x in terms:
        total.add(x)
    if compensated == (sys.version_info >= (3, 12)):   # this interpreter's sum
        assert total.value() == sum(terms)
    if not compensated:
        assert total.value() == functools.reduce(operator.add, terms, 0.0)


def test_agrees_with_counting_oracle():
    rng = make_rng(99)
    universe = [f"/u{i}" for i in range(12)]
    for _ in range(300):
        n = int(rng.integers(1, 30))
        raw = []
        for _ in range(n):
            gold = rng.choice(universe, size=int(rng.integers(1, 5)), replace=False)
            pred = rng.choice(universe, size=int(rng.integers(1, 5)), replace=False)
            raw.append((set(gold.tolist()), set(pred.tolist())))
        got = score_pairs([pair(g, p) for g, p in raw])
        want = brute_pair_metrics(raw)
        assert np.allclose([got.strict, got.macro_p, got.macro_r, got.macro_f1,
                            got.micro_p, got.micro_r, got.micro_f1],
                           want, atol=1e-12)


# -- corpus-level wiring ----------------------------------------------------------


def test_pairs_for_expands_predictions(corpus, forest):
    athlete = forest.index("/person/athlete")
    pairs = pairs_for(corpus, [athlete] * len(corpus), forest)
    assert all(predicted == {"/person", "/person/athlete"} for _, predicted in pairs)
    assert pairs[0][0] == {"/person", "/person/athlete"}
    assert pairs[3][0] == {"/person/coach"}  # gold stays as labeled


def test_pairs_for_guards(corpus, forest, tmp_path):
    # pairs_for's input is checked where it enters: a corpus to score is parsed
    # with its labels required, and one prediction comes from each mention's row
    p = tmp_path / "unlabeled.tsv"
    p.write_text("0 1\tJordan\n")
    with pytest.raises(CorpusError, match="expected 3 tab-separated fields"):
        parse_corpus(p, forest)
    assert len(pairs_for(corpus, [0] * len(corpus), forest)) == len(corpus)


def test_stub_predictor_matches_manifest(corpus, forest, manifest):
    athlete = forest.index("/person/athlete")
    m = score_pairs(pairs_for(corpus, [athlete] * len(corpus), forest))
    want = manifest["majority_stub"]
    assert want["predicts"] == "/person/athlete"
    for key in ("strict", "macro_p", "macro_r", "macro_f1",
                "micro_p", "micro_r", "micro_f1"):
        assert getattr(m, key) == pytest.approx(want[key], abs=1e-12)


def test_per_type_accuracy_groups_by_terminal(corpus, forest):
    athlete = forest.index("/person/athlete")
    tally = Tally()
    tally.add(pairs_for(corpus, [athlete] * len(corpus), forest), corpus)
    got = tally.per_type()
    assert got == {"/location": 0.0, "/organization": 0.0,
                   "/organization/company": 0.0,
                   "/person/athlete": 0.25, "/person/coach": 0.0}
    assert list(got) == sorted(got)


class RowStub:
    """Stands in for the model: fixed probability rows, no tape."""

    def __init__(self, rows):
        self.rows = np.asarray(rows, dtype=np.float64)

    def predict_probs(self, triples):
        return self.rows[:len(triples)]


def scored(corpus, predictions, forest):
    """The metrics of one predicted type index per mention."""
    return score_pairs(pairs_for(corpus, predictions, forest))


def test_evaluate_scores_the_argmax_of_each_batched_row(corpus, forest):
    coach = forest.index("/person/coach")
    one_hot = RowStub(np.tile(np.eye(len(forest))[coach], (len(corpus), 1)))
    assert evaluate(one_hot, corpus, forest, LossConfig()) == scored(
        corpus, [coach] * len(corpus), forest)

    stub = RowStub(np.tile([0.1, 0.2, 0.05, 0.3, 0.2, 0.15], (len(corpus), 1)))
    assert evaluate(stub, corpus, forest, LossConfig()) == scored(
        corpus, [3] * len(corpus), forest)


def test_evaluate_applies_inference_adjustment():
    forest = TypeForest(["/organization", "/person", "/person/athlete"])
    m = MentionTriple(("x",), 0, 1, ("/person",), frozenset({"/person"}))
    corpus = Corpus([m])
    stub = RowStub([[0.38, 0.32, 0.30]])

    assert evaluate(stub, corpus, forest, LossConfig()) == scored(corpus, [0], forest)
    cfg = LossConfig(beta=1.0, hier=True, hier_at_inference=True)
    # athlete absorbs person's mass: .30 + .32 beats .38
    assert evaluate(stub, corpus, forest, cfg) == scored(corpus, [2], forest)
    off = LossConfig(beta=1.0, hier=True, hier_at_inference=False)
    assert evaluate(stub, corpus, forest, off) == scored(corpus, [0], forest)
    assert scored(corpus, [0], forest) != scored(corpus, [2], forest)


# -- report formats ---------------------------------------------------------------


def test_metrics_text_format():
    m = Metrics(strict=0.5, macro_p=1.0, macro_r=0.25, macro_f1=0.4,
                micro_p=0.125, micro_r=1.0 / 3.0, micro_f1=0.18181818)
    assert m.as_text() == ("strict=0.5000 macro_p=1.0000 macro_r=0.2500 "
                           "macro_f1=0.4000 micro_p=0.1250 micro_r=0.3333 "
                           "micro_f1=0.1818\n")


def test_metrics_json_round_trip():
    m = Metrics(strict=0.5, macro_p=1.0, macro_r=0.25, macro_f1=0.4,
                micro_p=0.125, micro_r=1.0 / 3.0, micro_f1=0.2)
    got = json.loads(m.as_json())
    assert got == {"strict": 0.5, "macro_p": 1.0, "macro_r": 0.25,
                   "macro_f1": 0.4, "micro_p": 0.125, "micro_r": 1.0 / 3.0,
                   "micro_f1": 0.2}
