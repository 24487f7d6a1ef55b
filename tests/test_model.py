import math

import numpy as np
import pytest

from gradcheck import STEP, TOLERANCE, fd_gradient, max_rel_error
from nfetc.autodiff import Tensor, gradients
from nfetc.corpus import MentionTriple
from nfetc.embeddings import WordEmbeddings
from nfetc.hierarchy import TypeForest
from nfetc.loss import LossConfig, l2_penalty, mean_nll
from nfetc import model as model_module
from nfetc.model import ModelConfig, NfetcModel, init_params
from nfetc.optim import make_rng

VOCAB = ["the", "cat", "sat", "on", "mat", "dog", "ran", "big", "red", "fox"]
D_W = 4


def make_embeddings(rng_seed: int = 11) -> WordEmbeddings:
    rng = make_rng(rng_seed)
    return WordEmbeddings(VOCAB, rng.uniform(-0.4, 0.4, size=(len(VOCAB), D_W)))


def make_forest() -> TypeForest:
    return TypeForest(["/a", "/a/b", "/c"])


def make_model(seed: int = 3, **overrides) -> NfetcModel:
    fields = dict(d_w=D_W, d_p=3, d_s=3, k=3, window=2)
    fields.update(overrides)
    config = ModelConfig(**fields)
    return NfetcModel(config, make_embeddings(), make_forest(), make_rng(seed))


def triple(tokens, start, end, labels=("/a",)):
    forest = make_forest()
    return MentionTriple(tuple(tokens), start, end, tuple(labels),
                         frozenset(forest.terminal_set(labels)))


def zero_params(model: NfetcModel, names=None) -> None:
    for name, tensor in model.params.trainable_items():
        if names is None or name in names:
            tensor.data[:] = 0.0


T4 = triple(["the", "cat", "sat", "on"], 1, 2)


# -- initialization ------------------------------------------------------------


def test_init_param_order_is_fixed():
    model = make_model()
    assert list(model.params) == [
        "word_emb", "pos_table",
        "ctx_fw.w_in", "ctx_fw.w_rec", "ctx_fw.bias",
        "ctx_bw.w_in", "ctx_bw.w_rec", "ctx_bw.bias",
        "men.w_in", "men.w_rec", "men.bias",
        "attn_w", "cls_w", "cls_b",
    ]
    assert not model.params.is_trainable("word_emb")
    assert all(model.params.is_trainable(n) for n in model.params
               if n != "word_emb")


def test_init_shapes():
    model = make_model()
    cfg = model.config
    d_ctx = cfg.d_w + cfg.d_p
    assert model.params["pos_table"].shape == (2 * cfg.window + 2, cfg.d_p)
    assert model.params["ctx_fw.w_in"].shape == (d_ctx, 4 * cfg.d_s)
    assert model.params["ctx_fw.w_rec"].shape == (cfg.d_s, 4 * cfg.d_s)
    assert model.params["men.w_in"].shape == (cfg.d_w, 4 * cfg.d_s)
    assert model.params["attn_w"].shape == (cfg.d_s,)
    assert model.params["cls_w"].shape == (cfg.k, 2 * cfg.d_s + cfg.d_w)
    assert model.params["cls_b"].shape == (cfg.k,)


def test_init_forget_gate_bias_is_one():
    model = make_model()
    d_s = model.config.d_s
    for prefix in ("ctx_fw", "ctx_bw", "men"):
        bias = model.params[f"{prefix}.bias"].data
        assert np.all(bias[d_s:2 * d_s] == 1.0)
        assert np.all(bias[:d_s] == 0.0) and np.all(bias[2 * d_s:] == 0.0)


def test_init_recurrent_blocks_orthogonal():
    model = make_model()
    d_s = model.config.d_s
    w = model.params["ctx_fw.w_rec"].data
    for g in range(4):
        block = w[:, g * d_s:(g + 1) * d_s]
        assert np.allclose(block.T @ block, np.eye(d_s), atol=1e-12)


def test_init_deterministic_per_seed():
    a = make_model(seed=5).params.copy_values()
    b = make_model(seed=5).params.copy_values()
    c = make_model(seed=6).params.copy_values()
    assert all(np.array_equal(a[n], b[n]) for n in a)
    assert any(not np.array_equal(a[n], c[n]) for n in a if n != "word_emb")


def test_init_rejects_dim_mismatch():
    config = ModelConfig(d_w=D_W + 1, d_p=3, d_s=3, k=3, window=2)
    with pytest.raises(ValueError, match="does not match configured d_w"):
        init_params(config, make_embeddings(), make_rng(1))


def test_model_rejects_forest_size_mismatch():
    config = ModelConfig(d_w=D_W, d_p=3, d_s=3, k=5, window=2)
    with pytest.raises(ValueError, match="does not match forest"):
        NfetcModel(config, make_embeddings(), make_forest(), make_rng(1))


# -- length sort ---------------------------------------------------------------


def test_batch_is_sorted_by_context_length_stably():
    ts = [triple(["cat"], 0, 1),
          triple(["cat", "sat"], 0, 1),
          triple(["dog"], 0, 1),
          triple(["dog", "ran"], 0, 2),
          triple(["mat", "the"], 1, 2)]
    _, aux = make_model().forward_bucket(ts)
    assert aux["order"].tolist() == [1, 3, 4, 0, 2]
    assert sorted(aux["order"].tolist()) == list(range(len(ts)))


# -- structural zero cases -----------------------------------------------------


def test_all_zero_weights_give_uniform_distribution():
    model = make_model()
    zero_params(model)
    trace = model.forward(T4)
    assert np.allclose(trace.context_outputs, 0.0, atol=1e-15)
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
    trace = model.forward(triple(["cat", "sat", "dog"], 0, 2))
    want = emb.vectors(emb.indices(["cat", "sat"])).sum(axis=0) / 2.0
    assert np.allclose(trace.r_a, want, atol=1e-15)
    assert np.allclose(trace.feature[3:3 + D_W], want, atol=1e-15)


def test_bias_alone_picks_the_class():
    model = make_model()
    zero_params(model)
    model.params["cls_b"].data[:] = [0.0, 10.0, 0.0]
    trace = model.forward(T4)
    assert trace.predicted == 1
    assert trace.probs[1] > 0.99


def test_directional_outputs_sum():
    model = make_model(seed=9)
    saved = model.params.copy_values()

    zero_params(model, {"ctx_bw.w_in", "ctx_bw.w_rec", "ctx_bw.bias"})
    fw_only = model.forward(T4).context_outputs
    model.params.load_values(saved)

    zero_params(model, {"ctx_fw.w_in", "ctx_fw.w_rec", "ctx_fw.bias"})
    bw_only = model.forward(T4).context_outputs
    model.params.load_values(saved)

    full = model.forward(T4).context_outputs
    assert np.array_equal(full, fw_only + bw_only)


# -- attention -----------------------------------------------------------------


def test_attention_single_token_is_certain():
    model = make_model()
    trace = model.forward(triple(["cat"], 0, 1))
    assert trace.alpha.shape == (1,)
    assert trace.alpha[0] == 1.0


def test_zero_attention_vector_averages_context():
    model = make_model()
    model.params["attn_w"].data[:] = 0.0
    trace = model.forward(T4)
    assert np.allclose(trace.alpha, 0.25, atol=1e-15)
    assert np.allclose(trace.r_c, trace.context_outputs.mean(axis=0), atol=1e-14)


def test_attention_hand_computed_two_steps():
    model = make_model(seed=4, d_s=2)
    model.params["attn_w"].data[:] = [1.0, -1.0]
    trace = model.forward(triple(["cat", "sat"], 0, 1))
    (h1, h2) = trace.context_outputs

    s1 = math.tanh(h1[0]) - math.tanh(h1[1])
    s2 = math.tanh(h2[0]) - math.tanh(h2[1])
    e1, e2 = math.exp(s1), math.exp(s2)
    a1, a2 = e1 / (e1 + e2), e2 / (e1 + e2)
    assert np.allclose(trace.alpha, [a1, a2], atol=1e-15)
    want = a1 * h1 + a2 * h2
    assert np.allclose(trace.r_c, want, atol=1e-15)


def test_attention_weights_sum_to_one():
    model = make_model()
    trace = model.forward(triple(["the", "cat", "sat", "on", "mat"], 2, 4))
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
    model = make_model(p_in=0.5, p_out=0.5)
    a = model.forward(T4)
    b = model.forward(T4)
    assert np.array_equal(a.probs, b.probs)
    assert np.array_equal(a.alpha, b.alpha)


def test_probabilities_are_normalized():
    model = make_model()
    trace = model.forward(T4)
    assert trace.probs.shape == (3,)
    assert trace.probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(trace.probs > 0)


def test_feature_is_concatenation():
    model = make_model()
    trace = model.forward(T4)
    cfg = model.config
    assert trace.feature.shape == (cfg.feature_dim,)
    assert np.array_equal(trace.feature,
                          np.concatenate([trace.r_c, trace.r_a, trace.r_l]))


def test_duplicated_rows_identical():
    model = make_model()
    probs, _ = model.forward_bucket([T4, T4])
    assert np.array_equal(probs.data[0], probs.data[1])


def test_batched_inference_matches_single(mini_batch):
    model = make_model()
    batched = model.predict_probs(mini_batch)
    single = np.stack([model.forward(t).probs for t in mini_batch])
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
    before = model.forward(T4).probs
    model.params["pos_table"].data += 0.5
    after = model.forward(T4).probs
    assert not np.array_equal(before, after)


def test_predictor_callable_matches_forward(mini_batch):
    model = make_model()
    predicted = np.argmax(model.predict_probs(mini_batch), axis=1).tolist()
    assert predicted == [model.forward(t).predicted for t in mini_batch]


def test_forward_batch_of_nothing_is_zero_rows():
    model = make_model()
    assert model.forward_batch([]).shape == (0, 3)
    assert model.predict_probs([]).shape == (0, 3)


def test_forward_batch_objective_matches_single_mention_sum():
    # keep = 1: the padded batch must equal one mention at a time exactly,
    # in the objective and in every parameter gradient
    model = make_model(seed=13)
    config = LossConfig(lam=0.01, beta=0.4, mode="variant", hier=True)
    batch = [triple(["dog", "ran"], 0, 1, ("/c",)),
             triple(["the", "cat", "sat", "on"], 1, 2, ("/a/b", "/c")),
             triple(["mat"], 0, 1, ("/a", "/a/b")),
             triple(["big", "red", "fox", "ran", "on"], 2, 4, ("/a",)),
             triple(["the", "dog", "sat", "on"], 1, 3, ("/a", "/c")),
             triple(["red", "mat"], 1, 2, ("/c",))]

    want = None
    for m in batch:
        part = mean_nll(model.forward_batch([m], train=True), [m], config,
                        model.forest) * (1.0 / len(batch))
        want = part if want is None else want + part
    want = want + l2_penalty(model.params, config.lam)
    want_grads = gradients(want, model.params)
    probs = model.forward_batch(batch, train=True)
    got = mean_nll(probs, batch, config, model.forest) + l2_penalty(model.params, config.lam)
    got_grads = gradients(got, model.params)

    single = np.concatenate([model.predict_probs([m]) for m in batch])
    assert np.max(np.abs(probs.data - single)) <= 1e-12
    assert abs(got.item() - want.item()) <= 1e-12
    assert set(got_grads) == set(want_grads)
    for name, grad in want_grads.items():
        assert np.max(np.abs(got_grads[name] - grad)) <= 1e-12, name


def count_tape_nodes(monkeypatch, model, batch, config):
    """requires_grad tensors one training step records."""
    count = [0]
    init = Tensor.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        count[0] += self.requires_grad

    monkeypatch.setattr(Tensor, "__init__", counting)
    probs = model.forward_batch(batch, train=True, rng=make_rng(2))
    gradients(mean_nll(probs, batch, config, model.forest), model.params)
    monkeypatch.setattr(Tensor, "__init__", init)
    return count[0]


def test_tape_size_does_not_grow_with_batch(monkeypatch):
    model = make_model(p_in=0.7, p_out=0.9)
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
    model = make_model(p_in=0.7, p_out=0.9)
    calls = []
    draw = model_module.dropout_mask
    monkeypatch.setattr(model_module, "dropout_mask",
                        lambda *args: calls.append(args[0]) or draw(*args))
    batch = [T4, triple(["dog", "ran"], 0, 1), triple(["mat", "on"], 0, 2)]
    model.forward_batch(batch, train=True, rng=make_rng(1))
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
    model = make_model(p_in=0.7, p_out=0.9)
    batch = [T4, triple(["dog", "ran"], 0, 1), triple(["mat"], 0, 1)]
    probs = model.forward_batch(batch, train=True, rng=make_rng(5))
    loss = (mean_nll(probs, batch, LossConfig(mode="variant"), model.forest)
            + l2_penalty(model.params, 0.01))
    grads = gradients(loss, model.params)
    assert set(grads) == {name for name, _ in model.params.trainable_items()}
    for name, grad in grads.items():
        for other, tensor in model.params.items():
            assert not np.shares_memory(grad, tensor.data), (name, other)


# -- dropout -------------------------------------------------------------------


def test_training_dropout_needs_rng():
    model = make_model(p_in=0.5)
    with pytest.raises(ValueError, match="needs an RNG"):
        model.forward_bucket([T4], train=True)


def test_dropout_perturbs_training_forward():
    model = make_model(p_in=0.5, p_out=0.5)
    plain = model.forward(T4).probs
    probs, _ = model.forward_bucket([T4], train=True, rng=make_rng(0))
    assert not np.array_equal(probs.data[0], plain)


def test_dropout_reproducible_under_seed():
    model = make_model(p_in=0.5, p_out=0.5)
    a, _ = model.forward_bucket([T4], train=True, rng=make_rng(12))
    b, _ = model.forward_bucket([T4], train=True, rng=make_rng(12))
    assert np.array_equal(a.data, b.data)


def test_keep_prob_one_trains_like_inference():
    model = make_model()
    probs, _ = model.forward_bucket([T4], train=True)
    assert np.array_equal(probs.data[0], model.forward(T4).probs)


def test_mention_dropout_can_be_disabled():
    on = make_model(p_in=0.5, p_out=0.5, dropout_mention=True)
    off = make_model(p_in=0.5, p_out=0.5, dropout_mention=False)
    off.params.load_values(on.params.copy_values())
    # identical seeds: the context encoders consume the same mask stream, so
    # any difference comes from the mention encoder skipping its masks
    a, _ = on.forward_bucket([T4], train=True, rng=make_rng(4))
    b, _ = off.forward_bucket([T4], train=True, rng=make_rng(4))
    assert not np.array_equal(a.data, b.data)
    assert np.array_equal(on.forward(T4).probs, off.forward(T4).probs)


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


def test_gradients_with_dropout_masks_held_fixed():
    model = make_model(seed=8, p_in=0.7, p_out=0.9)
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
