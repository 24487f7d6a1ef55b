import functools
import math

import numpy as np
import pytest

from gradcheck import STEP, TOLERANCE, fd_gradient, max_rel_error
from nfetc.autodiff import ParamSet
from nfetc import training as training_module
from nfetc.corpus import Corpus, CorpusError, MentionTriple, parse_line
from nfetc.embeddings import WordEmbeddings
from nfetc.hierarchy import TypeForest
from nfetc.loss import (LossConfig, PROB_FLOOR, hierarchical_adjust_rows,
                        inference_adjust, l2_penalty, mean_nll,
                        select_candidate)
from nfetc.model import NfetcModel
from nfetc.optim import make_rng
from nfetc.training import select_variant, train, training_corpus
from hparams import figer_hp
from oracles import Tensor, brute_ancestors, random_forest_paths, softmax_rows


def brute_adjust(paths, p, beta):
    """String-prefix oracle for the ancestor-credit adjustment."""
    q = np.array([p[i] + beta * sum(p[paths.index(a)]
                                    for a in brute_ancestors(y) if a in paths)
                  for i, y in enumerate(paths)])
    return q / q.sum()


def mention(labels, forest, tokens=("x",), start=0, end=1):
    return MentionTriple(tuple(tokens), start, end, tuple(labels),
                         frozenset(forest.terminal_set(labels)))


PERSON = TypeForest(["/organization", "/person", "/person/athlete"])


def tiny_embeddings():
    return WordEmbeddings(["x", "y"], np.array([[0.1, -0.2, 0.3], [0.2, 0.1, -0.1]]))


def flat_forest(k):
    """k root types; index i is /t<i> for k <= 10."""
    return TypeForest([f"/t{i}" for i in range(k)])


def one_row_loss(p, labels, forest, params=None, lam=0.0):
    """The batched objective on a batch of one: mean NLL plus the L2 term."""
    nll, _ = mean_nll(np.array([p], dtype=np.float64), [mention(labels, forest)],
                      LossConfig(), forest)
    return nll + l2_penalty(params if params is not None else ParamSet(), lam)[0]


# -- hierarchical adjustment ----------------------------------------------------


def test_adjust_hand_example():
    # indices sorted: 0=/organization, 1=/person, 2=/person/athlete
    p = np.array([[0.2, 0.5, 0.3]])
    q = hierarchical_adjust_rows(p, PERSON, beta=0.4)
    # athlete gains 0.4 * p(person); row renormalizes by 1.2
    assert np.allclose(q, [[0.2 / 1.2, 0.5 / 1.2, 0.5 / 1.2]], atol=1e-15)


def test_adjust_beta_zero_is_identity():
    p = np.array([[0.2, 0.5, 0.3]])
    assert hierarchical_adjust_rows(p, PERSON, beta=0.0) is p


def test_adjust_flat_forest_is_identity():
    flat = TypeForest(["/a", "/b", "/c"])
    p = np.array([[0.1, 0.6, 0.3]])
    q = hierarchical_adjust_rows(p, flat, beta=0.7)
    assert np.allclose(q, p, atol=1e-15)


def test_adjust_matches_prefix_oracle():
    rng = make_rng(42)
    for _ in range(300):
        paths = random_forest_paths(rng, max_types=20, max_depth=4)
        forest = TypeForest(paths)
        assert forest.types() == paths
        p = rng.uniform(0.0, 1.0, size=len(paths))
        p /= p.sum()
        beta = float(rng.uniform(0.0, 1.0))
        got = hierarchical_adjust_rows(np.array([p]), forest, beta)
        assert np.allclose(got[0], brute_adjust(paths, p, beta), atol=1e-12)


def test_adjust_outputs_are_distributions():
    rng = make_rng(7)
    for _ in range(200):
        paths = random_forest_paths(rng, max_types=30)
        forest = TypeForest(paths)
        rows = rng.uniform(0.0, 1.0, size=(4, len(paths)))
        rows /= rows.sum(axis=1, keepdims=True)
        q = hierarchical_adjust_rows(rows, forest, 0.5)
        assert np.allclose(q.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(q >= 0)


def test_adjust_only_descendants_gain():
    # pre-normalization, types without ancestors keep their mass exactly
    p = np.array([0.2, 0.5, 0.3])
    anc = PERSON.ancestor_matrix()
    raw = p + 0.4 * (p @ anc.T)
    assert raw[0] == p[0] and raw[1] == p[1]
    assert raw[2] > p[2]


def test_adjust_shape_guards():
    # the adjustment's inputs are checked where they enter: beta by the loss
    # settings (the CLI makes them through select_variant), and the rows are
    # the model's (B, K) rows, whose width a checkpoint's classifier must
    # match to its forest
    for settings in (LossConfig, functools.partial(select_variant, "NFETC-hier(r)")):
        with pytest.raises(ValueError, match="beta must be finite and >= 0"):
            settings(beta=-0.1)
    model = NfetcModel(figer_hp(d_p=2, d_s=2, window=1), tiny_embeddings(), PERSON,
                       make_rng(0))
    assert model.predict_probs([mention(["/person"], PERSON)] * 2).shape == (2, len(PERSON))


# -- penalties and plain cross-entropy ------------------------------------------


def make_params(values):
    return ParamSet((f"p{i}", np.asarray(v, dtype=np.float64)) for i, v in enumerate(values))


def test_l2_sums_squares_of_trainables_only():
    params = make_params([[1.0, 2.0], [3.0]])
    assert l2_penalty(params, 0.5)[0] == pytest.approx(0.5 * 14.0, abs=1e-15)
    # a model's penalty covers its parameters, not the frozen word vectors
    model = NfetcModel(figer_hp(d_p=2, d_s=2, window=1),
                       WordEmbeddings(["a"], np.full((1, 3), 10.0)),
                       TypeForest(["/a", "/b"]), make_rng(0))
    want = sum(float((a ** 2).sum()) for _, a in model.params.items())
    assert l2_penalty(model.params, 1.0)[0] == pytest.approx(want, rel=1e-12)


def test_l2_is_one_node_with_gradient_two_lam_theta():
    params = make_params([[1.0, -2.0], [3.0]])
    value, pairs = l2_penalty(params, 0.25)
    grads = dict(pairs)
    assert value == 0.25 * 14.0
    assert list(grads) == [n for n, _ in params.items()]
    for name, a in params.items():
        assert np.array_equal(grads[name], 2 * 0.25 * a)


def test_l2_zero_lambda_is_free():
    params = make_params([[1.0, 2.0]])
    zero, pairs = l2_penalty(params, 0.0)
    assert zero == 0.0
    assert list(pairs) == []  # no gradient term to add


def test_l2_gradient_matches_finite_differences():
    params = make_params([make_rng(8).normal(size=(2, 3)), make_rng(9).normal(size=4)])
    grads = dict(l2_penalty(params, 0.3)[1])
    for name, value in params.items():
        numeric = fd_gradient(lambda: l2_penalty(params, 0.3)[0], value, STEP)
        assert max_rel_error(grads[name], numeric) < TOLERANCE


def test_l2_rejects_negative():
    # l2_penalty takes the run's lam, which its loss settings check
    for settings in (LossConfig, functools.partial(select_variant, "NFETC(f)")):
        with pytest.raises(ValueError, match="lam must be finite and >= 0"):
            settings(lam=-1.0)


def test_cross_entropy_certain_prediction_is_zero():
    loss = one_row_loss([0.0, 1.0, 0.0], ["/person"], PERSON)  # gold index 1
    assert loss == 0.0


def test_cross_entropy_half_is_log_two():
    loss = one_row_loss([0.5, 0.25, 0.25], ["/organization"], PERSON)  # gold 0
    assert loss == pytest.approx(math.log(2.0), abs=1e-15)


def test_cross_entropy_floors_zero_probability():
    loss = one_row_loss([1.0, 0.0], ["/t1"], flat_forest(2))
    assert loss == pytest.approx(-math.log(PROB_FLOOR), abs=1e-9)
    assert math.isfinite(loss)


def test_cross_entropy_adds_l2():
    params = make_params([[2.0]])
    loss = one_row_loss([0.5, 0.5], ["/t0"], flat_forest(2), params=params, lam=0.1)
    assert loss == pytest.approx(math.log(2.0) + 0.4, abs=1e-12)


# -- candidate selection and the variant objective -------------------------------


def test_select_candidate_picks_most_probable():
    p = np.array([0.7, 0.2, 0.1])
    assert select_candidate(p, [0, 1]) == 0
    assert select_candidate(p, [1, 2]) == 1
    assert select_candidate(np.array([0.1, 0.2, 0.7]), [0, 1, 2]) == 2


def test_select_candidate_tie_takes_lowest_index():
    p = np.array([0.4, 0.4, 0.2])
    assert select_candidate(p, [0, 1]) == 0
    assert select_candidate(p, {1, 0}) == 0  # order of the input set is irrelevant


def test_select_candidate_empty_rejected():
    # the candidates are a training mention's terminals: a training line
    # without labels is rejected where it is parsed, and labels have a terminal
    with pytest.raises(CorpusError, match="missing labels"):
        parse_line("0 1\tx\t", PERSON, {})
    assert all(PERSON.terminal_set([t]) == {t} for t in PERSON.types())


def test_variant_equals_standard_on_singleton():
    # on one candidate the selecting loss is standard cross-entropy, which is
    # all an (f) variant's filtered corpus asks of it
    rng = make_rng(3)
    for _ in range(50):
        p = rng.uniform(0.01, 1.0, size=5)
        p /= p.sum()
        gold = int(rng.integers(5))
        a = one_row_loss(p, [f"/t{gold}"], flat_forest(5))
        assert abs(a + math.log(p[gold])) <= 1e-12


def test_variant_worked_example():
    # candidates /organization (0) and /person (1)
    loss = one_row_loss([0.7, 0.2, 0.1], ["/organization", "/person"], PERSON)
    assert loss == pytest.approx(-math.log(0.7), abs=1e-15)


def test_variant_is_minimum_over_candidates():
    rng = make_rng(14)
    for _ in range(100):
        p = rng.uniform(0.01, 1.0, size=6)
        p /= p.sum()
        k = int(rng.integers(1, 7))
        cand = sorted(rng.choice(6, size=k, replace=False).tolist())
        got = one_row_loss(p, [f"/t{c}" for c in cand], flat_forest(6))
        best = min(-math.log(p[c]) for c in cand)
        assert got == pytest.approx(best, abs=1e-12)


# -- batch objective -------------------------------------------------------------


def rows_for(*dists):
    return np.array(dists, dtype=np.float64)


def test_mean_nll_single_row_matches_cross_entropy():
    config = LossConfig()
    m = mention(["/person"], PERSON)
    got, _ = mean_nll(rows_for([0.2, 0.5, 0.3]), [m], config, PERSON)
    assert PERSON.index("/person") == 1
    assert got == pytest.approx(-math.log(0.5), abs=1e-15)


def test_mean_nll_duplicated_row_unchanged():
    config = LossConfig()
    m = mention(["/person"], PERSON)
    one, _ = mean_nll(rows_for([0.2, 0.5, 0.3]), [m], config, PERSON)
    two, _ = mean_nll(rows_for([0.2, 0.5, 0.3], [0.2, 0.5, 0.3]), [m, m],
                   config, PERSON)
    assert two == pytest.approx(one, abs=1e-15)


def test_mean_nll_mixed_batch_is_plain_average():
    config = LossConfig()
    batch = [mention(["/person"], PERSON), mention(["/organization"], PERSON)]
    probs = rows_for([0.2, 0.5, 0.3], [0.25, 0.5, 0.25])
    got, _ = mean_nll(probs, batch, config, PERSON)
    want = (-math.log(0.5) - math.log(0.25)) / 2.0
    assert got == pytest.approx(want, abs=1e-15)


def test_filtered_variants_train_on_one_candidate():
    # the (f) variants train on the filtered corpus: a mention with two
    # candidate terminals never reaches their loss, which on the one
    # candidate left is cross-entropy against it
    noisy = mention(["/person", "/organization"], PERSON)
    single = mention(["/person/athlete"], PERSON)
    for name in ("NFETC(f)", "NFETC-hier(f)"):
        choice, config = select_variant(name, beta=0.4)
        assert training_corpus(Corpus([noisy, single]), choice, PERSON) == [single]
        athlete = (0.2 + 0.4 * 0.3) / 1.12 if config.hier else 0.2
        got, _ = mean_nll(rows_for([0.5, 0.3, 0.2]), [single], config, PERSON)
        assert got == pytest.approx(-math.log(athlete), abs=1e-14)


def test_mean_nll_variant_selects_per_row():
    config = LossConfig()
    noisy = mention(["/person", "/organization"], PERSON)  # candidates {0, 1}
    got, _ = mean_nll(rows_for([0.2, 0.5, 0.3]), [noisy], config, PERSON)
    assert got == pytest.approx(-math.log(0.5), abs=1e-15)
    got, _ = mean_nll(rows_for([0.6, 0.1, 0.3]), [noisy], config, PERSON)
    assert got == pytest.approx(-math.log(0.6), abs=1e-15)


def test_mean_nll_hier_reads_adjusted_rows():
    config = LossConfig(beta=0.4, hier=True)
    m = mention(["/person/athlete"], PERSON)
    got, _ = mean_nll(rows_for([0.2, 0.5, 0.3]), [m], config, PERSON)
    assert got == pytest.approx(-math.log(0.5 / 1.2), abs=1e-14)


def test_selection_source_switch():
    # candidates athlete (idx 2) and organization (idx 0); raw argmax is 0,
    # but the variant selects on the adjusted rows it scores, whose argmax
    # flips to 2 because athlete inherits person's mass
    forest = PERSON
    noisy = mention(["/person/athlete", "/organization"], forest)
    probs = rows_for([0.38, 0.32, 0.30])

    config = LossConfig(beta=1.0, hier=True)
    q = np.array([0.38, 0.32, 0.62]) / 1.32
    got, _ = mean_nll(probs, [noisy], config, forest)
    assert got == pytest.approx(-math.log(q[2]), abs=1e-14)


def test_mean_nll_floors_zero_rows():
    config = LossConfig()
    m = mention(["/person"], PERSON)
    got, _ = mean_nll(rows_for([1.0, 0.0, 0.0]), [m], config, PERSON)
    assert got == pytest.approx(-math.log(PROB_FLOOR), abs=1e-9)


def test_mean_nll_guards():
    # train, the objective's one caller, rejects an empty corpus, so mean_nll
    # never sees an empty batch
    corpus = Corpus([mention(["/person"], PERSON)])
    hp = figer_hp(d_p=2, d_s=2, window=1, batch=2, epochs=1)
    with pytest.raises(ValueError, match="nonempty"):
        train(Corpus([]), corpus, tiny_embeddings(), PERSON, hp, LossConfig())


def test_cross_entropy_rejects_rows(monkeypatch):
    # mean_nll does not check its rows: train, its one caller, hands it one
    # (K,) row per mention of each batch, the last batch short
    seen, real = [], training_module.mean_nll

    def recording(probs, triples, config, forest):
        seen.append((probs.shape, len(triples)))
        return real(probs, triples, config, forest)

    monkeypatch.setattr(training_module, "mean_nll", recording)
    corpus = Corpus([mention(["/person"], PERSON), mention(["/organization"], PERSON),
                     mention(["/person/athlete"], PERSON, tokens=("x", "y"))])
    hp = figer_hp(d_p=2, d_s=2, window=1, batch=2, epochs=1)
    train(corpus, corpus, tiny_embeddings(), PERSON, hp, LossConfig())
    assert seen == [((2, len(PERSON)), 2), ((1, len(PERSON)), 1)]


def test_batch_loss_adds_one_l2_term():
    params = make_params([[3.0]])
    config = LossConfig(lam=0.01)
    m = mention(["/person"], PERSON)
    probs = rows_for([0.2, 0.5, 0.3], [0.2, 0.5, 0.3])
    got = mean_nll(probs, [m, m], config, PERSON)[0] + l2_penalty(params, config.lam)[0]
    assert got == pytest.approx(-math.log(0.5) + 0.09, abs=1e-14)


# -- inference-time adjustment ----------------------------------------------------


def test_inference_adjust_disabled_paths():
    rows = np.array([[0.2, 0.5, 0.3]])
    assert inference_adjust(rows, PERSON, LossConfig()) is rows
    off = LossConfig(beta=0.4, hier=True, hier_at_inference=False)
    assert inference_adjust(rows, PERSON, off) is rows


def test_inference_adjust_applies_when_asked():
    rows = np.array([[0.2, 0.5, 0.3]])
    on = LossConfig(beta=0.4, hier=True, hier_at_inference=True)
    got = inference_adjust(rows, PERSON, on)
    assert isinstance(got, np.ndarray)
    assert np.allclose(got, [[0.2 / 1.2, 0.5 / 1.2, 0.5 / 1.2]], atol=1e-15)


# -- config validation -------------------------------------------------------------


@pytest.mark.parametrize("kwargs,message", [
    ({"lam": -0.1}, "lam"),
    ({"beta": -0.4}, "beta"),
    ({"lam": -math.inf}, "lam"),
    ({"lam": math.nan}, "lam"),
    ({"lam": math.inf}, "lam"),
    ({"beta": math.nan}, "beta"),
    ({"beta": math.inf}, "beta"),
])
def test_loss_config_validation(kwargs, message):
    with pytest.raises(ValueError, match=message):
        LossConfig(**kwargs)


# -- gradients through the objective ------------------------------------------------


def logits_loss(logits, batch, config, forest):
    """(value, gradient) of mean NLL plus L2 over the softmax rows of
    ``logits``, which are also the one parameter the L2 term sees."""
    params = ParamSet(logits=logits)
    x = Tensor.parameter(logits)
    probs = softmax_rows(x)
    nll, d_probs = mean_nll(probs.data, batch, config, forest)
    l2, d_l2 = l2_penalty(params, config.lam)
    (probs * Tensor.constant(d_probs)).sum().backward()
    return nll + l2, x.grad + dict(d_l2).get("logits", 0.0)


def gradcheck_batch(forest, rng, size=3, most=3):
    """Random mentions over ``forest``, each of one to ``most`` candidate labels."""
    types = forest.types()
    return [mention(rng.choice(types, size=int(rng.integers(1, min(most, len(types)) + 1)),
                               replace=False).tolist(), forest)
            for _ in range(size)]


# one case per (lam, beta, hier); beta without hier and hier at beta 0
# adjust nothing
@pytest.mark.parametrize("config", [
    LossConfig(),
    LossConfig(lam=0.01),
    LossConfig(beta=0.4, hier=True),
    LossConfig(beta=0.4, hier=True, lam=0.01),
    LossConfig(beta=1.0, hier=True),
    LossConfig(beta=1.0, hier=True, lam=0.01),
    LossConfig(beta=0.4),
    LossConfig(hier=True, lam=0.01),
])
def test_loss_gradient_matches_finite_differences(config):
    forest = PERSON
    batch = [mention(["/person", "/organization"], forest),
             mention(["/person"], forest),
             mention(["/person/athlete"], forest)]
    rng = make_rng(5)
    cases = [(forest, batch)]
    for _ in range(4):
        forest = TypeForest(random_forest_paths(rng, max_types=8, max_depth=3))
        cases.append((forest, gradcheck_batch(forest, rng)))
    for forest, batch in cases:
        logits = rng.normal(size=(len(batch), len(forest)))
        _, grad = logits_loss(logits, batch, config, forest)
        numeric = fd_gradient(lambda: logits_loss(logits, batch, config, forest)[0],
                              logits, STEP)
        assert max_rel_error(grad, numeric) < TOLERANCE


# -- the fused objective's backward ---------------------------------------------------


def probs_grad(rows, batch, config, forest=PERSON):
    """(loss, gradient) of mean_nll taken directly over the rows."""
    return mean_nll(np.array(rows, dtype=np.float64), batch, config, forest)


def test_mean_nll_gradient_is_minus_one_over_p_over_batch():
    # d/dp of -mean(log p[gold]) is -1 / (B p) at each row's gold entry
    # and nothing anywhere else
    batch = [mention(["/person/athlete"], PERSON), mention(["/organization"], PERSON)]
    _, grad = probs_grad([[0.2, 0.5, 0.3], [0.25, 0.5, 0.25]], batch, LossConfig())
    assert np.array_equal(grad, [[0.0, 0.0, -1.0 / (2 * 0.3)],
                                 [-1.0 / (2 * 0.25), 0.0, 0.0]])
    _, grad = probs_grad([[5.0, 7.0, 9.0]], [mention(["/person"], PERSON)], LossConfig())
    assert np.array_equal(grad, [[0.0, -1.0 / 7.0, 0.0]])


@pytest.mark.parametrize("config,organization", [
    (LossConfig(), 0.5),
    (LossConfig(beta=0.4, hier=True), 0.5 / 1.1),
], ids=["plain", "hier"])
def test_mean_nll_floor_blocks_gradient(config, organization):
    # a gold entry at or below the floor adds -log(PROB_FLOOR) and passes no
    # gradient: its row stays exactly zero, with no RuntimeWarning on the way
    batch = [mention(["/person"], PERSON), mention(["/person"], PERSON),
             mention(["/organization"], PERSON)]
    rows = [[1.0, 0.0, 0.0], [0.9, 1e-15, 0.1], [0.5, 0.25, 0.25]]
    value, grad = probs_grad(rows, batch, config)
    want = (-2 * math.log(PROB_FLOOR) - math.log(organization)) / 3
    assert value == pytest.approx(want, rel=1e-12)
    assert np.array_equal(grad[:2], np.zeros((2, 3)))
    assert grad[2, 0] != 0.0
    _, grad = probs_grad([[1.0 - PROB_FLOOR, PROB_FLOOR, 0.0]], batch[:1], config)
    assert np.array_equal(grad, np.zeros((1, 3)))   # exactly at the floor: blocked too


def test_mean_nll_renormalization_gradient():
    # on a flat forest the adjustment only renormalizes: -log(p_g / s) has
    # gradient (1/s - [j == g] / p_g) / B, so every column gets the 1/s share
    forest = flat_forest(3)
    config = LossConfig(beta=0.5, hier=True)
    rows = [[1.0, 2.0, 1.0], [3.0, 4.0, 1.0]]
    batch = [mention(["/t1"], forest), mention(["/t0"], forest)]
    value, grad = probs_grad(rows, batch, config, forest)
    assert value == pytest.approx((-math.log(2.0 / 4.0) - math.log(3.0 / 8.0)) / 2, rel=1e-14)
    want = np.array([[1 / 4, 1 / 4 - 1 / 2, 1 / 4], [1 / 8 - 1 / 3, 1 / 8, 1 / 8]]) / 2
    assert np.allclose(grad, want, rtol=0, atol=1e-15)


# "standard": one candidate per mention, the filtered corpus of an (f)
# variant; "variant": one to three candidates, the raw corpus of an (r) variant
@pytest.mark.parametrize("most", [1, 3], ids=["standard", "variant"])
def test_hier_beta_zero_is_the_plain_pick(most):
    rng = make_rng(11)
    forest = TypeForest(random_forest_paths(rng, max_types=12))
    batch = gradcheck_batch(forest, rng, size=8, most=most)
    rows = rng.dirichlet(np.ones(len(forest)), size=8)
    plain = probs_grad(rows, batch, LossConfig(), forest)
    hier = probs_grad(rows, batch, LossConfig(hier=True, beta=0.0), forest)
    assert plain[0] == hier[0]
    assert np.array_equal(plain[1], hier[1])

