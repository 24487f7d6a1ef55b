import math
from types import SimpleNamespace

import numpy as np
import pytest

from gradcheck import STEP, TOLERANCE, fd_gradient, max_rel_error
from nfetc.autodiff import Tensor, concat, gradients
from nfetc.corpus import MentionTriple
from nfetc.embeddings import WordEmbeddings
from nfetc.hierarchy import TypeForest
from nfetc.loss import LossConfig, l2_penalty, mean_nll
from nfetc import model as model_module
from nfetc.model import NfetcModel
from nfetc.optim import make_rng
from nfetc.training import HyperParams
from oracles import tape_forward

VOCAB = ["the", "cat", "sat", "on", "mat", "dog", "ran", "big", "red", "fox"]
D_W = 4


def make_embeddings(rng_seed: int = 11) -> WordEmbeddings:
    rng = make_rng(rng_seed)
    return WordEmbeddings(VOCAB, rng.uniform(-0.4, 0.4, size=(len(VOCAB), D_W)))


def make_forest() -> TypeForest:
    return TypeForest(["/a", "/a/b", "/c"])


def make_model(seed: int = 3, **overrides) -> NfetcModel:
    fields = dict(d_p=3, d_s=3, window=2, p_i=1.0, p_o=1.0)
    fields.update(overrides)
    return NfetcModel(HyperParams(**fields), make_embeddings(), make_forest(),
                      make_rng(seed))


def triple(tokens, start, end, labels=("/a",)):
    forest = make_forest()
    return MentionTriple(tuple(tokens), start, end, tuple(labels),
                         frozenset(forest.terminal_set(labels)))


def zero_params(model: NfetcModel, names=None) -> None:
    for name, tensor in model.params.items():
        if names is None or name in names:
            tensor.data[:] = 0.0


def one(model: NfetcModel, t: MentionTriple) -> SimpleNamespace:
    """One mention's inference pass, read off a one-mention batch: its
    (T, d_s) context rows, (T,) attention weights, r_c, r_a, r_l, feature,
    (K,) probabilities and predicted index (the lowest one on ties)."""
    probs, aux = model.forward_bucket([t])
    p = probs.data[0]
    return SimpleNamespace(context=aux["context"].data, alpha=aux["alpha"].data[0],
                           **{k: aux[k].data[0] for k in ("r_c", "r_a", "r_l", "feature")},
                           probs=p, predicted=int(np.argmax(p)))


T4 = triple(["the", "cat", "sat", "on"], 1, 2)


@pytest.fixture
def float64_training(monkeypatch):
    """Train-mode LSTMs in float64, for the identities that hold exactly
    only there: batch = one at a time, train = inference at keep 1, and
    finite differences through a training forward."""
    monkeypatch.setattr(model_module, "TRAIN_DTYPE", np.float64)


# -- initialization ------------------------------------------------------------


def test_init_param_order_is_fixed():
    model = make_model()
    # the frozen word vectors are the embeddings', not a parameter
    assert [n for n, _ in model.params.items()] == [
        "pos_table",
        "ctx_fw.w_in", "ctx_fw.w_rec", "ctx_fw.bias",
        "ctx_bw.w_in", "ctx_bw.w_rec", "ctx_bw.bias",
        "men.w_in", "men.w_rec", "men.bias",
        "attn_w", "cls_w", "cls_b",
    ]
    assert all(t.requires_grad for n, t in model.params.items())


def test_init_shapes():
    model = make_model(d_p=5, d_s=6, window=4)
    d_ctx = D_W + 5
    assert model.params["pos_table"].shape == (2 * 4 + 2, 5)
    assert model.params["ctx_fw.w_in"].shape == (d_ctx, 4 * 6)
    assert model.params["ctx_fw.w_rec"].shape == (6, 4 * 6)
    assert model.params["men.w_in"].shape == (D_W, 4 * 6)
    assert model.params["attn_w"].shape == (6,)
    assert model.params["cls_w"].shape == (3, 2 * 6 + D_W)
    assert model.params["cls_b"].shape == (3,)


def test_init_forget_gate_bias_is_one():
    model = make_model()
    d_s = 3
    for prefix in ("ctx_fw", "ctx_bw", "men"):
        bias = model.params[f"{prefix}.bias"].data
        assert np.all(bias[d_s:2 * d_s] == 1.0)
        assert np.all(bias[:d_s] == 0.0) and np.all(bias[2 * d_s:] == 0.0)


def test_init_recurrent_blocks_orthogonal():
    model = make_model()
    d_s = 3
    w = model.params["ctx_fw.w_rec"].data
    for g in range(4):
        block = w[:, g * d_s:(g + 1) * d_s]
        assert np.allclose(block.T @ block, np.eye(d_s), atol=1e-12)


def test_init_deterministic_per_seed():
    a = make_model(seed=5).params.copy_values()
    b = make_model(seed=5).params.copy_values()
    c = make_model(seed=6).params.copy_values()
    assert all(np.array_equal(a[n], b[n]) for n in a)
    assert any(not np.array_equal(a[n], c[n]) for n in a)


def test_init_shapes_follow_embedding_dim():
    # d_w is the embedding matrix's width; no setting can disagree with it
    wide = WordEmbeddings(VOCAB, np.ones((len(VOCAB), D_W + 2)))
    model = NfetcModel(HyperParams(d_p=3, d_s=3, window=2), wide, make_forest(),
                       make_rng(1))
    assert model.embeddings.matrix.shape == (len(VOCAB), D_W + 2)
    assert model.params["ctx_fw.w_in"].shape == (D_W + 2 + 3, 12)
    assert model.params["men.w_in"].shape == (D_W + 2, 12)
    assert model.params["cls_w"].shape == (3, 2 * 3 + D_W + 2)
    assert one(model, T4).feature.shape == (2 * 3 + D_W + 2,)


def test_classifier_shapes_follow_forest_size():
    # K is the forest's size; no setting can disagree with it
    forest = TypeForest(["/a", "/a/b", "/c", "/c/d", "/e"])
    model = NfetcModel(HyperParams(d_p=3, d_s=3, window=2), make_embeddings(),
                       forest, make_rng(1))
    assert model.params["cls_w"].shape == (len(forest), 2 * 3 + D_W)
    assert model.params["cls_b"].shape == (len(forest),)
    assert model.predict_probs([T4]).shape == (1, len(forest))
    assert model.predict_probs([]).shape == (0, len(forest))


# -- input order ---------------------------------------------------------------


def test_batch_rows_stay_in_input_order():
    # the LSTM op orders sequences by length; the model permutes nothing, so
    # every intermediate row k belongs to input mention k
    ts = [triple(["cat"], 0, 1),
          triple(["cat", "sat"], 0, 1),
          triple(["dog"], 0, 1),
          triple(["dog", "ran"], 0, 2),
          triple(["mat", "the"], 1, 2)]
    model = make_model()
    probs, aux = model.forward_bucket(ts)
    assert "order" not in aux
    for k, t in enumerate(ts):
        single = one(model, t)
        assert np.allclose(aux["alpha"].data[k, :len(t.tokens)], single.alpha, atol=1e-12)
        for name in ("r_c", "r_a", "r_l", "feature"):
            assert np.allclose(aux[name].data[k], getattr(single, name), atol=1e-12)
        assert np.allclose(probs.data[k], single.probs, atol=1e-12)


# -- structural zero cases -----------------------------------------------------


def test_all_zero_weights_give_uniform_distribution():
    model = make_model()
    zero_params(model)
    trace = one(model, T4)
    assert np.allclose(trace.context, 0.0, atol=1e-15)
    assert np.allclose(trace.r_c, 0.0, atol=1e-15)
    assert np.allclose(trace.r_l, 0.0, atol=1e-15)
    assert np.allclose(trace.alpha, 0.25, atol=1e-15)
    assert np.allclose(trace.probs, 1.0 / 3.0, atol=1e-15)
    assert trace.predicted == 0


def test_zero_weights_keep_mention_average():
    # averaging reads frozen word vectors only, so zeroing weights leaves it
    model = make_model()
    emb = make_embeddings()
    zero_params(model)
    trace = one(model, triple(["cat", "sat", "dog"], 0, 2))
    want = emb.vectors(emb.indices(["cat", "sat"])).sum(axis=0) / 2.0
    assert np.allclose(trace.r_a, want, atol=1e-15)
    assert np.allclose(trace.feature[3:3 + D_W], want, atol=1e-15)


def test_bias_alone_picks_the_class():
    model = make_model()
    zero_params(model)
    model.params["cls_b"].data[:] = [0.0, 10.0, 0.0]
    trace = one(model, T4)
    assert trace.predicted == 1
    assert trace.probs[1] > 0.99


def test_directional_outputs_sum():
    model = make_model(seed=9)
    saved = model.params.copy_values()

    zero_params(model, {"ctx_bw.w_in", "ctx_bw.w_rec", "ctx_bw.bias"})
    fw_only = one(model, T4).context
    model.params.load_values(saved)

    zero_params(model, {"ctx_fw.w_in", "ctx_fw.w_rec", "ctx_fw.bias"})
    bw_only = one(model, T4).context
    model.params.load_values(saved)

    full = one(model, T4).context
    assert np.array_equal(full, fw_only + bw_only)


# -- attention -----------------------------------------------------------------


def test_attention_single_token_is_certain():
    model = make_model()
    trace = one(model, triple(["cat"], 0, 1))
    assert trace.alpha.shape == (1,)
    assert trace.alpha[0] == 1.0


def test_zero_attention_vector_averages_context():
    model = make_model()
    model.params["attn_w"].data[:] = 0.0
    trace = one(model, T4)
    assert np.allclose(trace.alpha, 0.25, atol=1e-15)
    assert np.allclose(trace.r_c, trace.context.mean(axis=0), atol=1e-14)


def test_attention_hand_computed_two_steps():
    model = make_model(seed=4, d_s=2)
    model.params["attn_w"].data[:] = [1.0, -1.0]
    trace = one(model, triple(["cat", "sat"], 0, 1))
    (h1, h2) = trace.context

    s1 = math.tanh(h1[0]) - math.tanh(h1[1])
    s2 = math.tanh(h2[0]) - math.tanh(h2[1])
    e1, e2 = math.exp(s1), math.exp(s2)
    a1, a2 = e1 / (e1 + e2), e2 / (e1 + e2)
    assert np.allclose(trace.alpha, [a1, a2], atol=1e-15)
    want = a1 * h1 + a2 * h2
    assert np.allclose(trace.r_c, want, atol=1e-15)


def test_attention_weights_sum_to_one():
    model = make_model()
    trace = one(model, triple(["the", "cat", "sat", "on", "mat"], 2, 4))
    assert trace.alpha.shape == (5,)
    assert trace.alpha.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(trace.alpha > 0)


# -- mention inputs ------------------------------------------------------------


def extended_mention(model, m):
    """Word vectors of the extended mention the mention LSTM reads."""
    ext = model._indices([m])[-1][0]
    return model.embeddings.vectors(ext)


def test_mention_inputs_pad_with_zero_at_edges():
    model = make_model()
    emb = make_embeddings()

    at_start = triple(["cat", "sat", "on"], 0, 1)
    steps = extended_mention(model, at_start)
    assert len(steps) == 3  # one either side of the single-token span
    assert np.array_equal(steps[0], np.zeros(D_W))
    assert np.array_equal(steps[1], emb.vectors(emb.indices(["cat"]))[0])
    assert np.array_equal(steps[2], emb.vectors(emb.indices(["sat"]))[0])

    at_end = triple(["cat", "sat", "on"], 2, 3)
    steps = extended_mention(model, at_end)
    assert np.array_equal(steps[0], emb.vectors(emb.indices(["sat"]))[0])
    assert np.array_equal(steps[2], np.zeros(D_W))


def test_pad_token_is_out_of_vocabulary():
    # sentence edges take the out-of-vocabulary index, i.e. the zero vector
    model = make_model()
    emb = make_embeddings()
    ext = model._indices([triple(["zzz", "cat"], 0, 2)])[-1][0]
    assert ext.tolist() == [-1, -1, emb.indices(["cat"])[0], -1]
    assert emb.indices(["zzz"]).tolist() == [-1]
    assert np.array_equal(emb.vectors(ext[[0, 1, 3]]), np.zeros((3, D_W)))


# -- forward consistency -------------------------------------------------------


def test_inference_is_deterministic():
    model = make_model(p_i=0.5, p_o=0.5)
    a = one(model, T4)
    b = one(model, T4)
    assert np.array_equal(a.probs, b.probs)
    assert np.array_equal(a.alpha, b.alpha)


def test_probabilities_are_normalized():
    model = make_model()
    trace = one(model, T4)
    assert trace.probs.shape == (3,)
    assert trace.probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(trace.probs > 0)


def test_feature_is_concatenation():
    model = make_model()
    trace = one(model, T4)
    assert trace.feature.shape == (2 * 3 + D_W,)
    assert np.array_equal(trace.feature,
                          np.concatenate([trace.r_c, trace.r_a, trace.r_l]))


def test_duplicated_rows_identical():
    model = make_model()
    probs, _ = model.forward_bucket([T4, T4])
    assert np.array_equal(probs.data[0], probs.data[1])


def test_batched_inference_matches_single(mini_batch):
    model = make_model()
    batched = model.predict_probs(mini_batch)
    single = np.stack([one(model, t).probs for t in mini_batch])
    assert np.allclose(batched, single, atol=1e-12)


@pytest.fixture
def mini_batch():
    return [
        triple(["the", "cat", "sat", "on"], 1, 2),
        triple(["dog", "ran"], 0, 1),
        triple(["big", "red", "fox", "ran"], 2, 3),   # same shape as first
        triple(["mat"], 0, 1),
        triple(["the", "dog", "sat", "on"], 1, 3),    # same T, longer mention
    ]


def test_position_rows_affect_output():
    model = make_model()
    before = one(model, T4).probs
    model.params["pos_table"].data += 0.5
    after = one(model, T4).probs
    assert not np.array_equal(before, after)


def test_predictor_callable_matches_forward(mini_batch):
    model = make_model()
    predicted = np.argmax(model.predict_probs(mini_batch), axis=1).tolist()
    assert predicted == [one(model, t).predicted for t in mini_batch]


def test_predict_probs_of_nothing_is_zero_rows():
    model = make_model()
    probs = model.predict_probs([])
    assert probs.shape == (0, 3)
    assert probs.dtype == np.float64


@pytest.mark.usefixtures("float64_training")
def test_forward_batch_objective_matches_single_mention_sum():
    # keep = 1: the padded batch must equal one mention at a time exactly,
    # in the objective and in every parameter gradient
    model = make_model(seed=13)
    forest = make_forest()
    config = LossConfig(lam=0.01, beta=0.4, mode="variant", hier=True)
    batch = [triple(["dog", "ran"], 0, 1, ("/c",)),
             triple(["the", "cat", "sat", "on"], 1, 2, ("/a/b", "/c")),
             triple(["mat"], 0, 1, ("/a", "/a/b")),
             triple(["big", "red", "fox", "ran", "on"], 2, 4, ("/a",)),
             triple(["the", "dog", "sat", "on"], 1, 3, ("/a", "/c")),
             triple(["red", "mat"], 1, 2, ("/c",))]

    want = None
    for m in batch:
        part = mean_nll(model.forward_bucket([m], train=True)[0], [m], config,
                        forest) * (1.0 / len(batch))
        want = part if want is None else want + part
    want = want + l2_penalty(model.params, config.lam)
    want_grads = gradients(want, model.params)
    probs = model.forward_bucket(batch, train=True)[0]
    got = mean_nll(probs, batch, config, forest) + l2_penalty(model.params, config.lam)
    got_grads = gradients(got, model.params)

    single = np.concatenate([model.predict_probs([m]) for m in batch])
    assert np.max(np.abs(probs.data - single)) <= 1e-12
    assert abs(float(got.data) - float(want.data)) <= 1e-12
    assert set(got_grads) == set(want_grads)
    for name, grad in want_grads.items():
        assert np.max(np.abs(got_grads[name] - grad)) <= 1e-12, name


@pytest.mark.usefixtures("float64_training")
def test_forward_bucket_matches_the_tape_network():
    # the padded batch against the one-mention network composed of
    # gradchecked tape ops: probabilities, objective and every gradient
    model = make_model(seed=17)
    forest = make_forest()
    config = LossConfig(lam=0.0, beta=0.4, mode="variant", hier=True)
    batch = [triple(["the", "cat", "sat", "on", "mat", "big"], 0, 1, ("/a/b", "/c")),
             triple(["mat"], 0, 1, ("/c",)),                  # a 1-token context
             triple(["dog", "zzz", "ran", "qq"], 2, 4, ("/a",)),
             triple(["big", "red", "fox", "ran", "on", "mat", "cat"], 5, 7, ("/a", "/a/b")),
             triple(["yyy", "the", "dog"], 0, 2, ("/c",)),
             triple(["red", "fox", "sat", "on", "the"], 2, 3, ("/a",))]
    window = 2
    # sentence edges on both sides, out-of-vocabulary tokens inside and
    # beside spans, and tokens beyond the window on both sides
    assert any(m.start == 0 for m in batch) and any(m.end == len(m.tokens) > 1 for m in batch)
    assert any(m.start - window > 0 for m in batch)
    assert any(len(m.tokens) - m.end > window for m in batch)
    assert not all(t in VOCAB for m in batch for t in m.tokens)

    got_probs = model.forward_bucket(batch, train=True)[0]
    got = mean_nll(got_probs, batch, config, forest)
    got_grads = gradients(got, model.params)
    want_probs = concat([tape_forward(model, m) for m in batch], 0)
    want = mean_nll(want_probs, batch, config, forest)
    want_grads = gradients(want, model.params)

    assert np.max(np.abs(got_probs.data - want_probs.data)) <= 1e-12
    assert abs(float(got.data) - float(want.data)) <= 1e-12
    assert set(got_grads) == set(want_grads) == {n for n, _ in model.params.items()}
    for name, grad in want_grads.items():
        assert np.any(grad != 0.0), name
        assert np.max(np.abs(got_grads[name] - grad)) <= 1e-12, name


def test_float32_training_step_tracks_float64(monkeypatch):
    # the same masks and weights: float32 LSTMs move the objective, the
    # probabilities and every parameter gradient by float32 rounding only
    forest = make_forest()
    config = LossConfig(lam=0.01, beta=0.4, mode="variant", hier=True)
    batch = [triple(["dog", "ran"], 0, 1, ("/c",)),
             triple(["the", "cat", "sat", "on", "mat", "big", "red"], 1, 3, ("/a/b", "/c")),
             triple(["mat"], 0, 1, ("/a", "/a/b")),
             triple(["big", "red", "fox", "ran", "on"], 2, 4, ("/a",)),
             triple(["the", "dog", "sat", "on"], 1, 3, ("/a", "/c"))]
    model = make_model(seed=13, p_i=0.7, p_o=0.9)
    runs = []
    for dtype in (np.float64, np.float32):
        monkeypatch.setattr(model_module, "TRAIN_DTYPE", dtype)
        probs = model.forward_bucket(batch, train=True, rng=make_rng(6))[0]
        loss = mean_nll(probs, batch, config, forest) + l2_penalty(model.params, config.lam)
        runs.append((probs.data, loss.data, gradients(loss, model.params)))
    (want_probs, want_loss, want_grads), (probs, loss, grads) = runs
    assert probs.dtype == loss.dtype == np.float64
    assert np.max(np.abs(probs - want_probs)) <= 1e-4 * np.max(want_probs)
    assert abs(loss - want_loss) <= 1e-4 * abs(want_loss)
    assert set(grads) == set(want_grads)
    for name, want in want_grads.items():
        assert grads[name].dtype == np.float64, name
        assert np.max(np.abs(grads[name] - want)) <= 1e-4 * np.max(np.abs(want)), name


def count_tape_nodes(monkeypatch, model, batch, config):
    """requires_grad tensors one training step records."""
    count = [0]
    init = Tensor.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        count[0] += self.requires_grad

    monkeypatch.setattr(Tensor, "__init__", counting)
    probs = model.forward_bucket(batch, train=True, rng=make_rng(2))[0]
    gradients(mean_nll(probs, batch, config, make_forest()), model.params)
    monkeypatch.setattr(Tensor, "__init__", init)
    return count[0]


def test_tape_size_does_not_grow_with_batch(monkeypatch):
    model = make_model(p_i=0.7, p_o=0.9)
    config = LossConfig(mode="variant")
    words = VOCAB + ["zzz"]
    rng = make_rng(6)
    big = []
    for _ in range(64):
        n = int(rng.integers(1, 9))
        start = int(rng.integers(0, n))
        end = int(rng.integers(start + 1, min(n, start + 3) + 1))
        big.append(triple([words[int(k)] for k in rng.integers(0, len(words), n)],
                          start, end, ("/a", "/c")))
    assert len({(len(m.tokens), m.end - m.start) for m in big}) > 10
    small = count_tape_nodes(monkeypatch, model, big[:4], config)
    assert small == count_tape_nodes(monkeypatch, model, big, config)


def test_six_dropout_masks_per_batch(monkeypatch):
    model = make_model(p_i=0.7, p_o=0.9)
    calls = []
    draw = model_module.dropout_mask
    monkeypatch.setattr(model_module, "dropout_mask",
                        lambda *args: calls.append(args[0]) or draw(*args))
    batch = [T4, triple(["dog", "ran"], 0, 1), triple(["mat", "on"], 0, 2)]
    model.forward_bucket(batch, train=True, rng=make_rng(1))
    # masks cover real tokens only, never a padded row
    context = sum(len(m.tokens) for m in batch)
    mention = sum(m.end - m.start + 2 for m in batch)
    d_in, d_s = D_W + 3, 3
    assert calls == [(context, d_in), (context, d_s), (context, d_in), (context, d_s),
                     (mention, D_W), (mention, d_s)]
    # the batch is ragged: its padded shapes have more rows
    assert context < len(batch) * len(T4.tokens) and mention < len(batch) * 4


def test_gradients_do_not_alias_parameters():
    # first gradients are kept without a copy; none may share a parameter's memory
    model = make_model(p_i=0.7, p_o=0.9)
    batch = [T4, triple(["dog", "ran"], 0, 1), triple(["mat"], 0, 1)]
    probs = model.forward_bucket(batch, train=True, rng=make_rng(5))[0]
    loss = (mean_nll(probs, batch, LossConfig(mode="variant"), make_forest())
            + l2_penalty(model.params, 0.01))
    grads = gradients(loss, model.params)
    assert set(grads) == {name for name, _ in model.params.items()}
    for name, grad in grads.items():
        for other, tensor in model.params.items():
            assert not np.shares_memory(grad, tensor.data), (name, other)


# -- dropout -------------------------------------------------------------------


def test_training_dropout_needs_rng():
    model = make_model(p_i=0.5)
    with pytest.raises(ValueError, match="needs an RNG"):
        model.forward_bucket([T4], train=True)


def test_dropout_perturbs_training_forward():
    model = make_model(p_i=0.5, p_o=0.5)
    plain = one(model, T4).probs
    probs, _ = model.forward_bucket([T4], train=True, rng=make_rng(0))
    assert not np.array_equal(probs.data[0], plain)


def test_dropout_reproducible_under_seed():
    model = make_model(p_i=0.5, p_o=0.5)
    a, _ = model.forward_bucket([T4], train=True, rng=make_rng(12))
    b, _ = model.forward_bucket([T4], train=True, rng=make_rng(12))
    assert np.array_equal(a.data, b.data)


@pytest.mark.usefixtures("float64_training")
def test_keep_prob_one_trains_like_inference():
    model = make_model()
    probs, _ = model.forward_bucket([T4], train=True)
    assert np.array_equal(probs.data[0], one(model, T4).probs)


def test_mention_dropout_can_be_disabled():
    on = make_model(p_i=0.5, p_o=0.5, dropout_mention=True)
    off = make_model(p_i=0.5, p_o=0.5, dropout_mention=False)
    off.params.load_values(on.params.copy_values())
    # identical seeds: the context encoders consume the same mask stream, so
    # any difference comes from the mention encoder skipping its masks
    a, _ = on.forward_bucket([T4], train=True, rng=make_rng(4))
    b, _ = off.forward_bucket([T4], train=True, rng=make_rng(4))
    assert not np.array_equal(a.data, b.data)
    assert np.array_equal(one(on, T4).probs, one(off, T4).probs)


# -- gradients -----------------------------------------------------------------


def nll_for(model, batch, gold_col, train=False, seed=None):
    rng = make_rng(seed) if seed is not None else None
    probs, _ = model.forward_bucket(batch, train=train, rng=rng)
    picked = probs.pick_rows(gold_col)
    return (picked.log() * -1.0).mean()


@pytest.mark.parametrize("name", [
    "pos_table", "ctx_fw.w_in", "ctx_fw.w_rec", "ctx_fw.bias",
    "ctx_bw.w_rec", "men.w_in", "men.bias", "attn_w", "cls_w", "cls_b",
])
def test_gradients_match_finite_differences(name):
    model = make_model(seed=21)
    batch = [T4, triple(["dog", "ran", "on", "mat"], 0, 1), triple(["red", "fox"], 1, 2)]
    gold = [1, 2, 0]

    loss = nll_for(model, batch, gold)
    grads = gradients(loss, model.params)

    tensor = model.params[name]
    numeric = fd_gradient(lambda: nll_for(model, batch, gold).data.item(),
                          tensor.data, STEP)
    assert max_rel_error(grads[name], numeric) < TOLERANCE


@pytest.mark.usefixtures("float64_training")
def test_gradients_with_dropout_masks_held_fixed():
    model = make_model(seed=8, p_i=0.7, p_o=0.9)
    batch = [T4]

    loss = nll_for(model, batch, [1], train=True, seed=77)
    grads = gradients(loss, model.params)

    tensor = model.params["ctx_fw.w_in"]
    numeric = fd_gradient(
        lambda: nll_for(model, batch, [1], train=True, seed=77).data.item(),
        tensor.data, STEP)
    assert max_rel_error(grads["ctx_fw.w_in"], numeric) < TOLERANCE


def test_word_embeddings_get_no_gradient():
    model = make_model()
    loss = nll_for(model, [T4], [0])
    grads = gradients(loss, model.params)
    assert "word_emb" not in grads
    assert set(grads) == {name for name, _ in model.params.items()}


def test_word_matrix_is_shared_read_only():
    # one matrix, owned by the embeddings: read-only, never copied into the
    # model or its snapshots, and untouched by restoring one
    emb = make_embeddings()
    matrix = emb.matrix
    assert not matrix.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        matrix[0, 0] = 1.0
    model = NfetcModel(HyperParams(d_p=3, d_s=3, window=2), emb, make_forest(), make_rng(3))
    assert model.embeddings.matrix is matrix
    snapshot = model.params.copy_values()
    assert not any(np.shares_memory(a, matrix) for a in snapshot.values())
    assert sum(a.nbytes for a in snapshot.values()) == sum(
        t.data.nbytes for _, t in model.params.items())
    model.params.load_values(snapshot)
    assert model.embeddings.matrix is matrix and not matrix.flags.writeable
