import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from gradcheck import STEP, TOLERANCE, fd_gradient, max_rel_error
from nfetc.autodiff import lstm_sequence
from nfetc.corpus import Corpus, MentionTriple
from nfetc.embeddings import WordEmbeddings
from nfetc.hierarchy import TypeForest
from nfetc.loss import LossConfig, l2_penalty, mean_nll
from nfetc import model as model_module
from nfetc.model import NfetcModel, position_rows
from nfetc.optim import make_rng
from nfetc.training import gradients, train
from hparams import figer_hp
from oracles import Tensor, concat, tape_forward, tape_params

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
    return NfetcModel(figer_hp(**fields), make_embeddings(), make_forest(),
                      make_rng(seed))


def triple(tokens, start, end, labels=("/a",)):
    forest = make_forest()
    return MentionTriple(tuple(tokens), start, end, tuple(labels),
                         frozenset(forest.terminal_set(labels)))


def zero_params(model: NfetcModel, names=None) -> None:
    for name, value in model.params.items():
        if names is None or name in names:
            value[:] = 0.0


def feature_blocks(model: NfetcModel, feature: np.ndarray) -> dict:
    """A feature row and its column blocks r_c, r_a and r_l."""
    d_s, d_w = model.params["attn_w"].shape[0], model.embeddings.dim
    return {"r_c": feature[:d_s], "r_a": feature[d_s:d_s + d_w],
            "r_l": feature[d_s + d_w:], "feature": feature}


def context_rows(model: NfetcModel, t: MentionTriple) -> np.ndarray:
    """The (T, d_s) context states fw + bw of mention ``t``, from the two
    LSTMs run on their own; a mention alone packs to its steps in order."""
    p, emb = model.params, model.embeddings
    window = (p["pos_table"].shape[0] - 2) // 2
    positions = position_rows(window, np.arange(len(t.tokens)), t.start, t.end)
    x = [emb.vectors(emb.indices(t.tokens)), p["pos_table"][positions]]
    fw, bw = (lstm_sequence(x, p[f"{d}.w_in"], p[f"{d}.w_rec"], p[f"{d}.bias"],
                            [1] * len(t.tokens), d == "ctx_bw")[0]
              for d in ("ctx_fw", "ctx_bw"))
    return fw + bw


def one(model: NfetcModel, t: MentionTriple) -> SimpleNamespace:
    """One mention's inference pass, read off a one-mention batch: its
    (T, d_s) context rows, (T,) attention weights, r_c, r_a, r_l, feature,
    (K,) probabilities and predicted index (the lowest one on ties)."""
    probs, aux, _ = model.forward_bucket([t])
    p = probs[0]
    return SimpleNamespace(context=context_rows(model, t), alpha=aux["alpha"][0],
                           **feature_blocks(model, aux["feature"][0]),
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
    assert all(a.dtype == np.float64 for _, a in model.params.items())


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
        bias = model.params[f"{prefix}.bias"]
        assert np.all(bias[d_s:2 * d_s] == 1.0)
        assert np.all(bias[:d_s] == 0.0) and np.all(bias[2 * d_s:] == 0.0)


def test_init_recurrent_blocks_orthogonal():
    model = make_model()
    d_s = 3
    w = model.params["ctx_fw.w_rec"]
    for g in range(4):
        block = w[:, g * d_s:(g + 1) * d_s]
        assert np.allclose(block.T @ block, np.eye(d_s), atol=1e-12)


def test_init_recurrent_blocks_match_separate_qrs():
    # one stacked QR per LSTM gives, bit for bit, the four blocks of four
    # separate draws and QRs, and leaves the RNG stream in step
    for n in (3, 17):
        stacked_rng, separate_rng = make_rng(5), make_rng(5)
        got = model_module._orthogonal(stacked_rng, n)
        blocks = []
        for _ in range(4):
            q, r = np.linalg.qr(separate_rng.standard_normal((n, n)))
            blocks.append(q * np.sign(np.diag(r)))
        assert got.tobytes() == np.concatenate(blocks, axis=1).tobytes()
        assert stacked_rng.random() == separate_rng.random()


def test_init_deterministic_per_seed():
    a = make_model(seed=5).params.copy_values()
    b = make_model(seed=5).params.copy_values()
    c = make_model(seed=6).params.copy_values()
    assert all(np.array_equal(a[n], b[n]) for n in a)
    assert any(not np.array_equal(a[n], c[n]) for n in a)


def test_init_shapes_follow_embedding_dim():
    # d_w is the embedding matrix's width; no setting can disagree with it
    wide = WordEmbeddings(VOCAB, np.ones((len(VOCAB), D_W + 2)))
    model = NfetcModel(figer_hp(d_p=3, d_s=3, window=2), wide, make_forest(),
                       make_rng(1))
    assert model.embeddings.matrix.shape == (len(VOCAB), D_W + 2)
    assert model.params["ctx_fw.w_in"].shape == (D_W + 2 + 3, 12)
    assert model.params["men.w_in"].shape == (D_W + 2, 12)
    assert model.params["cls_w"].shape == (3, 2 * 3 + D_W + 2)
    assert one(model, T4).feature.shape == (2 * 3 + D_W + 2,)


def test_classifier_shapes_follow_forest_size():
    # K is the forest's size; no setting can disagree with it
    forest = TypeForest(["/a", "/a/b", "/c", "/c/d", "/e"])
    model = NfetcModel(figer_hp(d_p=3, d_s=3, window=2), make_embeddings(),
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
    probs, aux, _ = model.forward_bucket(ts)
    assert "order" not in aux
    for k, t in enumerate(ts):
        single = one(model, t)
        assert np.allclose(aux["alpha"][k, :len(t.tokens)], single.alpha, atol=1e-12)
        assert np.all(aux["alpha"][k, len(t.tokens):] == 0.0)
        for name, row in feature_blocks(model, aux["feature"][k]).items():
            assert np.allclose(row, getattr(single, name), atol=1e-12)
        assert np.allclose(probs[k], single.probs, atol=1e-12)


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
    model.params["cls_b"][:] = [0.0, 10.0, 0.0]
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
    model.params["attn_w"][:] = 0.0
    trace = one(model, T4)
    assert np.allclose(trace.alpha, 0.25, atol=1e-15)
    assert np.allclose(trace.r_c, trace.context.mean(axis=0), atol=1e-14)


def test_attention_hand_computed_two_steps():
    model = make_model(seed=4, d_s=2)
    model.params["attn_w"][:] = [1.0, -1.0]
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
    # each block against its encoder run on its own
    emb, p = model.embeddings, model.params
    assert np.allclose(trace.r_c, trace.alpha @ trace.context, atol=1e-14)
    assert np.array_equal(trace.r_a, emb.vectors(emb.indices(T4.tokens[1:2])).sum(axis=0))
    r_l = lstm_sequence([extended_mention(model, T4)], p["men.w_in"], p["men.w_rec"],
                        p["men.bias"], [1, 1, 1])[0][-1]
    assert np.array_equal(trace.r_l, r_l)


def test_duplicated_rows_identical():
    model = make_model()
    probs, _, _ = model.forward_bucket([T4, T4])
    assert np.array_equal(probs[0], probs[1])


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


@pytest.mark.parametrize("train", [False, True])
def test_both_context_lstms_read_one_input_array_at_inference(mini_batch, monkeypatch, train):
    # at inference the context LSTMs take one float64 array, the same
    # object, which neither writes to; in training each takes the word and
    # position blocks and makes its own masked copy
    model = make_model(p_i=0.5, p_o=0.5)
    given = []
    real = model_module.lstm_sequence

    def recording(x, *args, **kwargs):
        given.append(x)
        before = [a.copy() for a in x]
        out = real(x, *args, **kwargs)
        assert all(np.array_equal(a, b) for a, b in zip(x, before))
        return out

    monkeypatch.setattr(model_module, "lstm_sequence", recording)
    model.forward_bucket(mini_batch, train=train, rng=make_rng(1) if train else None)
    fw, bw, _ = given
    rows = sum(len(t.tokens) for t in mini_batch)
    if train:
        assert [a.shape for a in fw] == [(rows, D_W), (rows, 3)] and fw[0] is bw[0]
    else:
        assert len(fw) == 1 and fw[0] is bw[0]
        assert fw[0].shape == (rows, D_W + 3) and fw[0].dtype == np.float64


def test_position_rows_affect_output():
    model = make_model()
    before = one(model, T4).probs
    model.params["pos_table"][:] += 0.5
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


def step(model, batch, config, rng=None):
    """One training step's objective, mean NLL plus L2, its probability rows
    and every parameter's gradient."""
    probs, _, backward = model.forward_bucket(batch, train=True, rng=rng)
    nll, d_probs = mean_nll(probs, batch, config, make_forest())
    l2, d_l2 = l2_penalty(model.params, config.lam)
    return nll + l2, probs, gradients(backward, d_probs, d_l2)


@pytest.mark.usefixtures("float64_training")
def test_forward_batch_objective_matches_single_mention_sum():
    # keep = 1: the packed batch must equal one mention at a time exactly,
    # in the objective and in every parameter gradient
    model = make_model(seed=13)
    config = LossConfig(lam=0.01, beta=0.4, hier=True)
    batch = [triple(["dog", "ran"], 0, 1, ("/c",)),
             triple(["the", "cat", "sat", "on"], 1, 2, ("/a/b", "/c")),
             triple(["mat"], 0, 1, ("/a", "/a/b")),
             triple(["big", "red", "fox", "ran", "on"], 2, 4, ("/a",)),
             triple(["the", "dog", "sat", "on"], 1, 3, ("/a", "/c")),
             triple(["red", "mat"], 1, 2, ("/c",))]

    want, pairs = l2_penalty(model.params, config.lam)
    want_grads = dict(pairs)
    for m in batch:
        probs, _, backward = model.forward_bucket([m], train=True)
        value, d_probs = mean_nll(probs, [m], config, make_forest())
        want += value / len(batch)
        for name, grad in backward(d_probs / len(batch)).items():
            want_grads[name] = want_grads[name] + grad if name in want_grads else grad
    got, probs, got_grads = step(model, batch, config)

    single = np.concatenate([model.predict_probs([m]) for m in batch])
    assert np.max(np.abs(probs - single)) <= 1e-12
    assert abs(got - want) <= 1e-12
    assert set(got_grads) == set(want_grads)
    for name, grad in want_grads.items():
        assert np.max(np.abs(got_grads[name] - grad)) <= 1e-12, name


@pytest.mark.usefixtures("float64_training")
def test_forward_bucket_matches_the_tape_network():
    # the packed batch against the one-mention network composed of
    # gradchecked tape ops: probabilities, objective and every gradient
    model = make_model(seed=17)
    forest = make_forest()
    config = LossConfig(lam=0.0, beta=0.4, hier=True)
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

    got, got_probs, got_grads = step(model, batch, config)
    params = tape_params(model.params)
    want_probs = concat([tape_forward(model, m, params) for m in batch], 0)
    want, d_probs = mean_nll(want_probs.data, batch, config, forest)
    (want_probs * Tensor.constant(d_probs)).sum().backward()

    assert np.max(np.abs(got_probs - want_probs.data)) <= 1e-12
    assert abs(got - want) <= 1e-12
    # every parameter, in param_shapes order
    assert list(got_grads) == list(params) == [n for n, _ in model.params.items()]
    for name, t in params.items():
        assert np.any(t.grad != 0.0), name
        assert np.max(np.abs(got_grads[name] - t.grad)) <= 1e-12, name


def test_float32_training_step_tracks_float64(monkeypatch):
    # the same masks and weights: float32 LSTMs move the objective, the
    # probabilities and every parameter gradient by float32 rounding only
    config = LossConfig(lam=0.01, beta=0.4, hier=True)
    batch = [triple(["dog", "ran"], 0, 1, ("/c",)),
             triple(["the", "cat", "sat", "on", "mat", "big", "red"], 1, 3, ("/a/b", "/c")),
             triple(["mat"], 0, 1, ("/a", "/a/b")),
             triple(["big", "red", "fox", "ran", "on"], 2, 4, ("/a",)),
             triple(["the", "dog", "sat", "on"], 1, 3, ("/a", "/c"))]
    model = make_model(seed=13, p_i=0.7, p_o=0.9)
    runs = []
    for dtype in (np.float64, np.float32):
        monkeypatch.setattr(model_module, "TRAIN_DTYPE", dtype)
        runs.append(step(model, batch, config, make_rng(6)))
    (want_loss, want_probs, want_grads), (loss, probs, grads) = runs
    assert probs.dtype == loss.dtype == np.float64
    assert np.max(np.abs(probs - want_probs)) <= 1e-4 * np.max(want_probs)
    assert abs(loss - want_loss) <= 1e-4 * abs(want_loss)
    assert set(grads) == set(want_grads)
    for name, want in want_grads.items():
        assert grads[name].dtype == np.float64, name
        assert np.max(np.abs(grads[name] - want)) <= 1e-4 * np.max(np.abs(want)), name


def recorded_lstms(monkeypatch, model, batch, config):
    """The ``record`` argument of each LSTM one training step runs."""
    records = []
    run = model_module.lstm_sequence

    def counting(*args, record=None, **kwargs):
        records.append(record)
        return run(*args, record=record, **kwargs)

    monkeypatch.setattr(model_module, "lstm_sequence", counting)
    step(model, batch, config, make_rng(2))
    monkeypatch.setattr(model_module, "lstm_sequence", run)
    return records


def ragged_batch(rng, count: int, max_len: int, words=VOCAB, labels=("/a",)) -> list:
    """``count`` mentions of 1 to ``max_len`` tokens drawn from ``words``,
    each with a span of 1 to 3 tokens."""
    batch = []
    for _ in range(count):
        n = int(rng.integers(1, max_len + 1))
        start = int(rng.integers(0, n))
        end = int(rng.integers(start + 1, min(n, start + 3) + 1))
        batch.append(triple([words[int(k)] for k in rng.integers(0, len(words), n)],
                            start, end, labels))
    return batch


def test_tape_size_does_not_grow_with_batch(monkeypatch):
    # a step runs three LSTM calls at any batch size: the two context LSTMs
    # with a dx for the position block, and the mention LSTM with none
    model = make_model(p_i=0.7, p_o=0.9)
    config = LossConfig()
    big = ragged_batch(make_rng(6), 64, 8, VOCAB + ["zzz"], ("/a", "/c"))
    assert len({(len(m.tokens), m.end - m.start) for m in big}) > 10
    small = recorded_lstms(monkeypatch, model, big[:4], config)
    assert small == recorded_lstms(monkeypatch, model, big, config)
    assert small == [(1,), (1,), ()]


def traced_step(model, batch):
    """tracemalloc readings, in bytes, of one training step: held between
    the forward and the backward, and the peak of the forward and backward."""
    tracemalloc.start()
    try:
        probs, _, backward = model.forward_bucket(batch, train=True, rng=make_rng(3))
        _, d_probs = mean_nll(probs, batch, LossConfig(), make_forest())
        held = tracemalloc.get_traced_memory()[0]
        backward(d_probs)
        return held, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_step_memory_scales_with_real_rows():
    # 64 three-token mentions plus one of 30 tokens against 74 three-token
    # mentions: 222 real tokens each, but 1,950 against 222 padded ones
    emb = WordEmbeddings(VOCAB, make_rng(1).uniform(-0.4, 0.4, (len(VOCAB), 32)))
    model = NfetcModel(figer_hp(d_p=8, d_s=16, window=10, p_i=0.7, p_o=0.9), emb,
                       make_forest(), make_rng(2))
    short = triple(["the", "cat", "sat"], 1, 2)
    long = triple([VOCAB[k % len(VOCAB)] for k in range(30)], 12, 14)
    ragged, even = [short] * 64 + [long], [short] * 74
    assert sum(len(m.tokens) for m in ragged) == sum(len(m.tokens) for m in even)
    peaks = [traced_step(model, batch)[1] for batch in (ragged, even)]
    assert peaks[0] <= 1.15 * peaks[1], [f"{p / 2**20:.3f} MiB" for p in peaks]


def bptt_budget(model, batch) -> int:
    """Bytes a training step's three LSTMs must hold for their backward: per
    real row, the gates, the state before the step, the cell state, the
    emitted state and the masked input in the compute dtype, and one byte
    per entry of the row's two dropout masks."""
    item = np.dtype(model_module.TRAIN_DTYPE).itemsize
    d_w, d_s = model.embeddings.dim, model.params["attn_w"].shape[0]
    d_ctx = d_w + model.params["pos_table"].shape[1]
    context = sum(len(m.tokens) for m in batch)
    mention = sum(m.end - m.start + 2 for m in batch)
    return sum(rows * (item * (7 * d_s + d_in) + d_in + d_s)
               for rows, d_in in ((context, d_ctx), (context, d_ctx), (mention, d_w)))


def test_step_memory_stays_near_what_bptt_must_hold():
    # 128 mentions of 1-30 tokens (1,957 real rows): the step traces 1.30x
    # the budget; 1.36x when the position rows and the mention LSTM's output
    # were held to the backward, and 1.72x when each LSTM also kept tanh of
    # its cell states and a float64 copy of its output, and the head kept
    # tanh of the context rows
    emb = WordEmbeddings(VOCAB, make_rng(1).uniform(-0.4, 0.4, (len(VOCAB), 64)))
    model = NfetcModel(figer_hp(d_p=8, d_s=32, window=10, p_i=0.7, p_o=0.9), emb,
                       make_forest(), make_rng(2))
    batch = ragged_batch(make_rng(4), 128, 30)
    peak, budget = traced_step(model, batch)[1], bptt_budget(model, batch)
    assert peak <= 1.55 * budget, f"{peak / budget:.3f}x the budget of {budget / 2**20:.3f} MiB"


def test_memory_held_for_the_backward_is_what_bptt_must_hold():
    # d_p large against d_s, so a float64 copy of the position rows held to
    # the backward would show: 128 mentions of 1-30 tokens hold 1.07x the
    # budget between the forward and the backward, and held 1.46x when the
    # position rows and the mention LSTM's output were kept to it
    emb = WordEmbeddings(VOCAB, make_rng(1).uniform(-0.4, 0.4, (len(VOCAB), 16)))
    model = NfetcModel(figer_hp(d_p=64, d_s=8, window=10, p_i=0.7, p_o=0.9), emb,
                       make_forest(), make_rng(2))
    batch = ragged_batch(make_rng(4), 128, 30)
    held, budget = traced_step(model, batch)[0], bptt_budget(model, batch)
    assert held <= 1.2 * budget, f"{held / budget:.3f}x the budget of {budget / 2**20:.3f} MiB"


def test_six_dropout_masks_per_batch(monkeypatch):
    model = make_model(p_i=0.7, p_o=0.9)
    calls = []
    draw = model_module.dropout_mask
    monkeypatch.setattr(model_module, "dropout_mask",
                        lambda *args: calls.append(args[0]) or draw(*args))
    batch = [T4, triple(["dog", "ran"], 0, 1), triple(["mat", "on"], 0, 2)]
    model.forward_bucket(batch, train=True, rng=make_rng(1))
    # masks cover real tokens only, one row per packed row
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
    _, _, grads = step(model, batch, LossConfig(lam=0.01), make_rng(5))
    assert set(grads) == {name for name, _ in model.params.items()}
    for name, grad in grads.items():
        for other, value in model.params.items():
            assert not np.shares_memory(grad, value), (name, other)


# -- dropout -------------------------------------------------------------------


def test_training_dropout_needs_rng(monkeypatch):
    # forward_bucket does not check for an RNG: train, its one training
    # caller, hands every training forward the run's seeded generator
    seen, real = [], NfetcModel.forward_bucket

    def recording(self, batch, train=False, rng=None):
        seen.append((train, rng))
        return real(self, batch, train, rng)

    monkeypatch.setattr(NfetcModel, "forward_bucket", recording)
    batch = [T4, triple(["dog", "ran"], 0, 1), triple(["mat"], 0, 1, ("/c",))]
    corpus = Corpus(batch)
    train(corpus, corpus, make_embeddings(), make_forest(),
          figer_hp(d_p=3, d_s=3, window=2, p_i=0.5, batch=2, epochs=2), LossConfig())
    rngs = [rng for training, rng in seen if training]
    assert len(rngs) == 4 and all(isinstance(rng, np.random.Generator) for rng in rngs)
    assert all(rng is rngs[0] for rng in rngs)


def test_dropout_perturbs_training_forward():
    model = make_model(p_i=0.5, p_o=0.5)
    plain = one(model, T4).probs
    probs, _, _ = model.forward_bucket([T4], train=True, rng=make_rng(0))
    assert not np.array_equal(probs[0], plain)


def test_dropout_reproducible_under_seed():
    model = make_model(p_i=0.5, p_o=0.5)
    a, _, _ = model.forward_bucket([T4], train=True, rng=make_rng(12))
    b, _, _ = model.forward_bucket([T4], train=True, rng=make_rng(12))
    assert np.array_equal(a, b)


@pytest.mark.usefixtures("float64_training")
def test_keep_prob_one_trains_like_inference():
    model = make_model()
    probs, _, backward = model.forward_bucket([T4], train=True)
    assert np.array_equal(probs[0], one(model, T4).probs)
    assert backward is not None and model.forward_bucket([T4])[2] is None


# -- gradients -----------------------------------------------------------------


def nll_for(model, batch, gold_col, seed=None):
    """Plain cross-entropy of a training forward with mention i labeled as
    type column gold_col[i], and every parameter's gradient."""
    rng = make_rng(seed) if seed is not None else None
    types = make_forest().types()
    batch = [triple(m.tokens, m.start, m.end, (types[g],)) for m, g in zip(batch, gold_col)]
    value, _, grads = step(model, batch, LossConfig(), rng)
    return value, grads


@pytest.mark.usefixtures("float64_training")
@pytest.mark.parametrize("name", [
    "pos_table", "ctx_fw.w_in", "ctx_fw.w_rec", "ctx_fw.bias",
    "ctx_bw.w_rec", "men.w_in", "men.bias", "attn_w", "cls_w", "cls_b",
])
def test_gradients_match_finite_differences(name):
    model = make_model(seed=21)
    batch = [T4, triple(["dog", "ran", "on", "mat"], 0, 1), triple(["red", "fox"], 1, 2)]
    gold = [1, 2, 0]

    _, grads = nll_for(model, batch, gold)
    numeric = fd_gradient(lambda: nll_for(model, batch, gold)[0], model.params[name], STEP)
    assert max_rel_error(grads[name], numeric) < TOLERANCE


@pytest.mark.usefixtures("float64_training")
@pytest.mark.parametrize("name", ["pos_table", "ctx_fw.w_in", "ctx_fw.bias", "ctx_bw.w_in",
                                  "ctx_bw.w_rec", "men.w_rec", "attn_w", "cls_w"])
def test_packed_bilstm_and_head_gradients_with_dropout_match_fd(name):
    # float64 LSTMs with all six masks on, over a ragged batch. The forward
    # and backward LSTMs share the head's context gradient, and in float64
    # no cast copies it, so a mask applied to it in place shows here.
    model = make_model(seed=8, p_i=0.7, p_o=0.9)
    batch = [T4, triple(["dog", "ran", "on", "mat", "big"], 2, 4), triple(["red"], 0, 1),
             triple(["fox", "sat"], 1, 2)]
    gold = [1, 2, 0, 1]
    _, grads = nll_for(model, batch, gold, seed=77)
    numeric = fd_gradient(lambda: nll_for(model, batch, gold, seed=77)[0],
                          model.params[name], STEP)
    assert max_rel_error(grads[name], numeric) < TOLERANCE


@pytest.mark.usefixtures("float64_training")
def test_gradients_with_dropout_masks_held_fixed():
    model = make_model(seed=8, p_i=0.7, p_o=0.9)
    batch = [T4]

    _, grads = nll_for(model, batch, [1], seed=77)
    numeric = fd_gradient(lambda: nll_for(model, batch, [1], seed=77)[0],
                          model.params["ctx_fw.w_in"], STEP)
    assert max_rel_error(grads["ctx_fw.w_in"], numeric) < TOLERANCE


def test_word_embeddings_get_no_gradient():
    model = make_model()
    _, grads = nll_for(model, [T4], [0])
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
    model = NfetcModel(figer_hp(d_p=3, d_s=3, window=2), emb, make_forest(), make_rng(3))
    assert model.embeddings.matrix is matrix
    snapshot = model.params.copy_values()
    assert not any(np.shares_memory(a, matrix) for a in snapshot.values())
    assert sum(a.nbytes for a in snapshot.values()) == sum(
        a.nbytes for _, a in model.params.items())
    model.params.load_values(snapshot)
    assert model.embeddings.matrix is matrix and not matrix.flags.writeable
