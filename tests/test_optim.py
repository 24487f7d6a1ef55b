import numpy as np
import pytest

from nfetc.autodiff import ParamSet
from nfetc.corpus import MentionTriple
from nfetc.embeddings import WordEmbeddings
from nfetc.hierarchy import TypeForest
from nfetc.model import NfetcModel
from nfetc.optim import AdamState, adam_step, dropout_mask, make_rng
from hparams import figer_hp


def adam_by_hand(grad_sequence, lr, beta1=0.9, beta2=0.999, eps=1e-8, x0=0.0):
    """Scalar Adam oracle written straight from the update equations."""
    x, m, v = x0, 0.0, 0.0
    for t, g in enumerate(grad_sequence, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        x = x - lr * m_hat / (v_hat ** 0.5 + eps)
    return x


def single_param(value=0.0):
    return ParamSet(x=np.array([value]))


def test_make_rng_is_deterministic_per_seed():
    assert make_rng(11).random(4) == pytest.approx(make_rng(11).random(4))
    assert not np.allclose(make_rng(11).random(4), make_rng(12).random(4))


def test_zero_gradient_is_identity():
    ps = single_param(3.5)
    state = AdamState(ps)
    adam_step(ps, {"x": np.zeros(1)}, state, lr=0.1)
    assert ps["x"] == pytest.approx([3.5])


def test_first_step_magnitude_equals_lr():
    # bias correction makes m_hat / sqrt(v_hat) exactly 1 for a unit gradient
    ps = single_param(0.0)
    adam_step(ps, {"x": np.ones(1)}, AdamState(ps), lr=0.0002)
    assert ps["x"][0] == pytest.approx(-0.0002, rel=1e-6)


def test_two_steps_match_hand_oracle():
    ps = single_param(1.0)
    state = AdamState(ps)
    adam_step(ps, {"x": np.array([1.0])}, state, lr=0.01)
    adam_step(ps, {"x": np.array([-2.0])}, state, lr=0.01)
    assert ps["x"][0] == pytest.approx(adam_by_hand([1.0, -2.0], 0.01, x0=1.0),
                                       abs=1e-15)
    assert state.step == 2


def test_frozen_parameters_are_bit_identical_after_steps():
    # Adam keeps moments for the model's parameters only; the word matrix
    # is not among them and keeps its bytes
    emb = WordEmbeddings(["a", "b"], np.arange(6.0).reshape(2, 3))
    model = NfetcModel(figer_hp(d_p=2, d_s=2, window=1), emb,
                       TypeForest(["/a", "/b"]), make_rng(0))
    before = emb.matrix.tobytes()
    state = AdamState(model.params)
    assert set(state.m) == set(state.v) == {n for n, _ in model.params.items()}
    for _ in range(5):
        adam_step(model.params, {n: np.ones_like(a) for n, a in model.params.items()},
                  state, lr=0.1)
    assert model.embeddings.matrix is emb.matrix
    assert emb.matrix.tobytes() == before


def test_rejects_nonpositive_lr():
    # adam_step takes the run's lr, which HyperParams checks
    for lr in (0.0, -0.1):
        with pytest.raises(ValueError, match="lr must be finite and positive"):
            figer_hp(lr=lr)


def test_rejects_gradient_shape_mismatch():
    ps = single_param()
    with pytest.raises(ValueError, match="shape"):
        adam_step(ps, {"x": np.zeros(2)}, AdamState(ps), lr=0.1)


def test_converges_on_quadratic():
    ps = single_param(10.0)
    state = AdamState(ps)
    for _ in range(800):
        g = 2.0 * (ps["x"] - 3.0)
        adam_step(ps, {"x": g}, state, lr=0.05)
    assert ps["x"][0] == pytest.approx(3.0, abs=1e-2)


def test_dropout_mask_identity_without_consuming_rng():
    # at keep 1 the model draws no mask: a training forward leaves the
    # stream where it was and matches inference
    emb = WordEmbeddings(["a", "b"], np.arange(6.0).reshape(2, 3) / 10)
    model = NfetcModel(figer_hp(d_p=2, d_s=2, window=1, p_i=1.0, p_o=1.0), emb,
                       TypeForest(["/a", "/b"]), make_rng(0))
    rng = make_rng(5)
    batch = [MentionTriple(("a", "b", "a"), 1, 2, ())]
    probs, _, _ = model.forward_bucket(batch, train=True, rng=rng)
    assert probs.shape == (1, 2)
    assert np.allclose(probs, model.forward_bucket(batch)[0], atol=1e-6)
    # the stream was not advanced
    assert rng.random() == make_rng(5).random()


def test_dropout_mask_values_and_mean():
    rng = make_rng(3)
    mask = dropout_mask((100000,), 0.5, rng)
    assert mask.dtype == np.bool_ and mask.nbytes == mask.size
    scaled = mask * np.float32(1.0 / 0.5)   # as the LSTM op applies it
    assert set(np.unique(scaled)) <= {0.0, 2.0}
    assert abs(scaled.mean() - 1.0) < 0.02


@pytest.mark.parametrize("keep", [0.7, 0.9, 1.0])
def test_dropout_mask_is_float32_zero_or_scaled_one(keep):
    # one byte per entry; the op scales kept entries by float32(1/keep)
    mask = dropout_mask((64, 9), keep, make_rng(7))
    assert mask.dtype == np.bool_ and mask.nbytes == mask.size
    scaled = mask * np.float32(1.0 / keep)
    assert scaled.dtype == np.float32
    assert set(np.unique(scaled).tolist()) <= {0.0, float(np.float32(1.0 / keep))}
    assert np.count_nonzero(mask) > 0
    # one float32 uniform per entry decides it
    assert np.array_equal(mask, make_rng(7).random((64, 9), dtype=np.float32) < keep)


@pytest.mark.parametrize("keep", [0.7, 0.9])
def test_dropout_mask_keep_rate(keep):
    mask = dropout_mask((50000,), keep, make_rng(9))
    assert mask.mean() == pytest.approx(keep, abs=0.01)
    assert abs((mask * np.float32(1.0 / keep)).mean() - 1.0) < 0.02


@pytest.mark.parametrize("bad", [0.0, -0.1, 1.2])
def test_dropout_mask_rejects_bad_keep_prob(bad):
    # the masks are drawn at the run's keep probabilities, which HyperParams checks
    for name in ("p_i", "p_o"):
        with pytest.raises(ValueError, match=rf"{name} must be in \(0, 1\], got {bad}"):
            figer_hp(**{name: bad})


def test_dropout_mask_deterministic_per_seed():
    a = dropout_mask((32, 8), 0.5, make_rng(42))
    b = dropout_mask((32, 8), 0.5, make_rng(42))
    assert a.dtype == b.dtype == np.bool_
    assert np.array_equal(a, b)
