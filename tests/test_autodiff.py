import math
import re
import weakref
from pathlib import Path

import numpy as np
import pytest

from ckptedit import rewrite_params
from nfetc import model as model_module
from nfetc.autodiff import ParamSet, lstm_sequence
from nfetc.checkpoint import CheckpointError, load, save
from nfetc.corpus import MentionTriple
from nfetc.embeddings import WordEmbeddings
from nfetc.hierarchy import TypeForest
from nfetc.loss import LossConfig, PROB_FLOOR, mean_nll
from nfetc.model import NfetcModel, _packed, _row_sums
from nfetc.optim import dropout_mask, make_rng
from nfetc.training import gradients, load_checkpoint
from hparams import figer_hp
from gradcheck import fd_gradient, max_rel_error
from oracles import Tensor, concat, softmax_rows, tape_cols, tape_lstm, tape_sigmoid


def naive_matmul(a, b):
    """Triple-loop oracle, no numpy matmul involved."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            s = 0.0
            for t in range(k):
                s += a[i, t] * b[t, j]
            out[i, j] = s
    return out


def rng():
    return np.random.default_rng(7)


V1_CHECKPOINT = Path(__file__).parent / "fixtures" / "ckpt_v1" / "model.ckpt"


# -- matmul -------------------------------------------------------------------

def test_matmul_identity():
    a = Tensor.constant(np.eye(2))
    b = Tensor.constant([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(a.matmul(b).data, [[1.0, 2.0], [3.0, 4.0]])


def test_matmul_orthogonal_vectors():
    a = Tensor.constant([[1.0, 0.0]])
    b = Tensor.constant([[0.0], [1.0]])
    assert a.matmul(b).data.item() == 0.0


def test_matmul_matches_naive_loop():
    a = rng().standard_normal((3, 4))
    b = rng().standard_normal((4, 2))
    got = Tensor.constant(a).matmul(Tensor.constant(b)).data
    assert np.max(np.abs(got - naive_matmul(a, b))) < 1e-12


def test_matmul_shape_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        Tensor.constant(np.ones((2, 3))).matmul(Tensor.constant(np.ones((2, 3))))


def test_matmul_rejects_non_2d():
    with pytest.raises(ValueError, match="2-D"):
        Tensor.constant(np.ones(3)).matmul(Tensor.constant(np.ones((3, 2))))


def test_matmul_gradients_match_fd():
    a = Tensor.parameter(rng().standard_normal((3, 4)))
    b = Tensor.parameter(rng().standard_normal((4, 2)))

    def run():
        return float((a.matmul(b) * Tensor.constant(weights)).sum().data)

    weights = rng().standard_normal((3, 2))
    loss = (a.matmul(b) * Tensor.constant(weights)).sum()
    loss.backward()
    assert max_rel_error(a.grad, fd_gradient(run, a.data)) < 1e-4
    assert max_rel_error(b.grad, fd_gradient(run, b.data)) < 1e-4


# -- softmax ------------------------------------------------------------------

def softmax_one(v):
    """A single distribution as a batch of one row."""
    return softmax_rows(Tensor.constant([v])).data[0]


def test_softmax_symmetry():
    assert softmax_one([0.0, 0.0]) == pytest.approx([0.5, 0.5])


def test_softmax_no_overflow():
    out = softmax_one([1000.0, 0.0])
    assert np.all(np.isfinite(out))
    assert out[0] == pytest.approx(1.0)


def test_softmax_log_ratios():
    v = [math.log(1), math.log(2), math.log(3)]
    assert softmax_one(v) == pytest.approx([1 / 6, 2 / 6, 3 / 6])


def test_softmax_distribution_property():
    for _ in range(20):
        v = rng().standard_normal(9) * 10
        out = softmax_one(v)
        assert np.all(out > 0)
        assert abs(out.sum() - 1.0) < 1e-12


def test_softmax_empty_rejected():
    with pytest.raises(ValueError):
        softmax_rows(Tensor.constant(np.zeros((1, 0))))


def test_softmax_gradient_matches_fd():
    x = Tensor.parameter(rng().standard_normal((1, 5)))
    w = rng().standard_normal((1, 5))

    def run():
        return float((softmax_rows(x) * Tensor.constant(w)).sum().data)

    loss = (softmax_rows(x) * Tensor.constant(w)).sum()
    loss.backward()
    assert max_rel_error(x.grad, fd_gradient(run, x.data)) < 1e-4


def test_softmax_rows_matches_vector_softmax():
    m = rng().standard_normal((4, 6))
    rows = softmax_rows(Tensor.constant(m)).data
    for i in range(4):
        assert rows[i] == pytest.approx(softmax_one(m[i]))


def test_softmax_rows_gradient_matches_fd():
    x = Tensor.parameter(rng().standard_normal((3, 4)))
    w = rng().standard_normal((3, 4))

    def run():
        return float((softmax_rows(x) * Tensor.constant(w)).sum().data)

    loss = (softmax_rows(x) * Tensor.constant(w)).sum()
    loss.backward()
    assert max_rel_error(x.grad, fd_gradient(run, x.data)) < 1e-4


# -- elementwise ops ----------------------------------------------------------

@pytest.mark.parametrize("op", [
    lambda a, b: a + b,
    lambda a, b: a + (-1.0) * b,
    lambda a, b: a * b,
    lambda a, b: a * b * a,
])
def test_binary_op_gradients_match_fd(op):
    a = Tensor.parameter(rng().standard_normal((3, 4)) + 3.0)
    b = Tensor.parameter(rng().standard_normal((3, 4)) + 3.0)

    def run():
        return float(op(a, b).sum().data)

    op(a, b).sum().backward()
    assert max_rel_error(a.grad, fd_gradient(run, a.data)) < 1e-4
    assert max_rel_error(b.grad, fd_gradient(run, b.data)) < 1e-4


def test_broadcast_add_reduces_gradient():
    a = Tensor.parameter(np.zeros((3, 4)))
    b = Tensor.parameter(np.zeros(4))
    (a + b).sum().backward()
    assert a.grad.shape == (3, 4)
    assert b.grad.shape == (4,)
    assert np.array_equal(b.grad, np.full(4, 3.0))


def test_broadcast_row_vector_gradients_match_fd():
    a = Tensor.parameter(rng().standard_normal((3, 4)))
    b = Tensor.parameter(rng().standard_normal(4) + 2.0)
    w = rng().standard_normal((3, 4))

    def run():
        return float(((a * b) * Tensor.constant(w)).sum().data)

    ((a * b) * Tensor.constant(w)).sum().backward()
    assert max_rel_error(a.grad, fd_gradient(run, a.data)) < 1e-4
    assert max_rel_error(b.grad, fd_gradient(run, b.data)) < 1e-4


def test_scalar_mixing_and_reflected_ops():
    x = Tensor.parameter(np.array([2.0, 4.0]))
    y = 2.0 * (x * -1.0 + 1.0) + Tensor.constant(3.0) * x * x
    assert y.data == pytest.approx([10.0, 42.0])
    y.sum().backward()
    # d/dx of 2 - 2x + 3x^2 is -2 + 6x
    assert x.grad == pytest.approx([10.0, 22.0])


def test_negation_gradient():
    # negation is a product with -1, reflected or not
    x = Tensor.parameter(np.array([1.0, -2.0]))
    (-1.0 * x).sum().backward()
    assert np.array_equal(x.grad, [-1.0, -1.0])
    x.grad = None
    (x * -1.0).sum().backward()
    assert np.array_equal(x.grad, [-1.0, -1.0])


# -- nonlinearities -----------------------------------------------------------

ACTIVATIONS = {"tanh": Tensor.tanh, "sigmoid": tape_sigmoid}


@pytest.mark.parametrize("fn", ["tanh", "sigmoid"])
def test_activation_gradients_match_fd(fn):
    act = ACTIVATIONS[fn]
    x = Tensor.parameter(rng().standard_normal((2, 5)) * 2)

    def run():
        return float(act(x).sum().data)

    act(x).sum().backward()
    assert max_rel_error(x.grad, fd_gradient(run, x.data)) < 1e-4


def test_sigmoid_extreme_inputs_stay_finite():
    out = tape_sigmoid(Tensor.constant([1000.0, -1000.0])).data
    assert out == pytest.approx([1.0, 0.0])
    assert np.all(np.isfinite(out))
    # the fused LSTM's gates saturate to exactly 0 or 1 without overflow:
    # +1000 opens every gate (c = 1, h = tanh 1), -1000 closes them (h = 0)
    h, backward = lstm_sequence([np.array([[1000.0], [-1000.0]])], np.ones((1, 4)),
                                np.zeros((1, 4)), np.zeros(4), [2], record=(0,))
    assert h[:, 0] == pytest.approx([math.tanh(1.0), 0.0])
    dx, d_w_in, *_ = backward(np.ones_like(h))
    assert np.all(np.isfinite(dx)) and np.all(np.isfinite(d_w_in))


# -- reductions and structure -------------------------------------------------

def test_sum_gradient_is_ones():
    p = Tensor.parameter(rng().standard_normal((3, 2)))
    p.sum().backward()
    assert np.array_equal(p.grad, np.ones((3, 2)))


def test_quadratic_gradient_is_p():
    p = Tensor.parameter(rng().standard_normal(6))
    ((p * p).sum() * 0.5).backward()
    assert p.grad == pytest.approx(p.data)


def test_transpose_reshape_cols_gradients_match_fd():
    x = Tensor.parameter(rng().standard_normal((3, 4)))
    w = rng().standard_normal((2, 3))

    def run():
        y = tape_cols(x.transpose().reshape(2, 6), 1, 3)
        return float((y * Tensor.constant(w[:, :3])).sum().data)

    y = tape_cols(x.transpose().reshape(2, 6), 1, 3)
    assert np.array_equal(y.data, x.data.T.reshape(2, 6)[:, 1:4])
    (y * Tensor.constant(w[:, :3])).sum().backward()
    assert max_rel_error(x.grad, fd_gradient(run, x.data)) < 1e-4


def test_take_rows_accumulates_repeated_indices():
    x = Tensor.parameter(np.array([[1.0, 1.0], [2.0, 2.0]]))
    x.take_rows([0, 0, 1]).sum().backward()
    assert np.array_equal(x.grad, [[2.0, 2.0], [1.0, 1.0]])


def test_take_rows_gradient_matches_fd():
    x = Tensor.parameter(rng().standard_normal((4, 3)))
    w = rng().standard_normal((6, 3))
    idx = [2, 0, 2, 3, 2, 1]

    def run():
        return float((x.take_rows(idx) * Tensor.constant(w)).sum().data)

    (x.take_rows(idx) * Tensor.constant(w)).sum().backward()
    assert max_rel_error(x.grad, fd_gradient(run, x.data)) < 1e-4


@pytest.mark.parametrize("rows,cols", [(22, 85), (7, 1)])
def test_take_rows_scatter_is_bit_identical_to_add_at(rows, cols):
    # the position table's gradient: many repeated indices, with gradients
    # of mixed sign and scale, so the sums depend on their order
    r = rng()
    idx = r.integers(0, rows, size=3000)
    g = r.standard_normal((idx.size, cols)) * 10.0 ** r.integers(-8, 8, size=(idx.size, 1))
    want = np.zeros((rows, cols))
    np.add.at(want, idx, g)
    assert _row_sums(idx, g, rows).tobytes() == want.tobytes()


def test_hconcat_values_and_gradient():
    a = Tensor.parameter(np.ones((2, 2)))
    b = Tensor.parameter(np.full((2, 3), 2.0))
    out = concat([a, b], 1)
    assert out.shape == (2, 5)
    w = np.arange(10.0).reshape(2, 5)
    (out * Tensor.constant(w)).sum().backward()
    assert np.array_equal(a.grad, w[:, :2])
    assert np.array_equal(b.grad, w[:, 2:])


def test_concat_1d_gradient():
    a = Tensor.parameter(np.array([1.0, 2.0]))
    b = Tensor.parameter(np.array([3.0]))
    out = concat([a, b], 0)
    assert np.array_equal(out.data, [1.0, 2.0, 3.0])
    (out * Tensor.constant([1.0, 10.0, 100.0])).sum().backward()
    assert np.array_equal(a.grad, [1.0, 10.0])
    assert np.array_equal(b.grad, [100.0])


@pytest.mark.parametrize("axis", [0, 1])
def test_concat_gradients_match_fd(axis):
    shapes = [(2, 3), (1, 3)] if axis == 0 else [(2, 3), (2, 1)]
    parts = [Tensor.parameter(rng().standard_normal(s)) for s in shapes]
    parts.append(Tensor.constant(np.ones((4, 3)) if axis == 0 else np.ones((2, 4))))
    w = rng().standard_normal(concat(parts, axis).shape)

    def run():
        return float((concat(parts, axis).tanh() * Tensor.constant(w)).sum().data)

    (concat(parts, axis).tanh() * Tensor.constant(w)).sum().backward()
    for p in parts[:2]:
        assert max_rel_error(p.grad, fd_gradient(run, p.data)) < 1e-4
    assert parts[2].grad is None


# -- the loss tail fused into mean_nll -----------------------------------------
# pick, floor, log and mean exist only inside loss.mean_nll; each keeps its
# check here, on a flat forest with one gold type per row

def fused_nll(rows, gold):
    """(value, gradient) of plain mean_nll over ``rows``, row i's gold at gold[i]."""
    forest = TypeForest([f"/t{j}" for j in range(len(rows[0]))])
    batch = [MentionTriple(("x",), 0, 1, (f"/t{g}",),
                           frozenset(forest.terminal_set([f"/t{g}"]))) for g in gold]
    return mean_nll(np.array(rows, dtype=np.float64), batch, LossConfig(), forest)


def test_log_gradient_matches_fd():
    rows = rng().uniform(0.5, 3.0, (2, 3))
    _, grad = fused_nll(rows, [0, 2])
    assert max_rel_error(grad, fd_gradient(lambda: float(fused_nll(rows, [0, 2])[0]),
                                           rows)) < 1e-4


def test_clip_min_blocks_gradient_below_floor():
    _, grad = fused_nll([[0.5, 0.0, 0.0], [0.0, 1e-15, 0.0], [0.0, 0.0, 2.0]], [0, 1, 2])
    assert grad[1, 1] == 0.0
    assert grad[0, 0] == pytest.approx(-2.0 / 3)
    assert grad[2, 2] == pytest.approx(-0.5 / 3)


def test_clip_min_forward_floor():
    value, _ = fused_nll([[0.5, 0.0, -1.0]] * 3, [0, 1, 2])
    assert value == pytest.approx((-math.log(0.5) - 2 * math.log(PROB_FLOOR)) / 3, rel=1e-12)


def test_mean_gradient():
    for b in (2, 5):
        value, grad = fused_nll(np.ones((b, 5)), list(range(b)))
        assert value == 0.0
        assert np.array_equal(grad, -np.eye(b, 5) / b)


def test_pick_rows_values_and_gradient():
    value, grad = fused_nll([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], [2, 0])
    assert value == pytest.approx(-(math.log(3.0) + math.log(4.0)) / 2)
    assert np.array_equal(grad, [[0, 0, -1.0 / 6], [-1.0 / 8, 0, 0]])


def test_pick_scalar_entry():
    value, grad = fused_nll([[5.0, 7.0, 9.0]], [1])
    assert value == pytest.approx(-math.log(7.0))
    assert np.array_equal(grad, [[0.0, -1.0 / 7, 0.0]])


# -- fused LSTM ---------------------------------------------------------------

D_IN, D_S = 3, 2


def packing(lengths):
    """The packed order of sequences of ``lengths``, by brute force: the real
    (step, sequence) pairs time-major, each step's sequences longest first
    with ties in input order, and the rows at each step."""
    ranked = sorted(range(len(lengths)), key=lambda k: -lengths[k])
    real = [(t, k) for t in range(max(lengths)) for k in ranked if t < lengths[k]]
    return real, [sum(1 for k in ranked if t < lengths[k]) for t in range(max(lengths))]


def rows_at(lengths):
    return packing(lengths)[1]


def lstm_case(lengths, seed=3, d_in=D_IN, d_s=D_S):
    """Packed inputs for ``lengths`` plus weights and a fixed loss weighting."""
    r = np.random.default_rng(seed)
    rows = sum(lengths)
    x = r.standard_normal((rows, d_in))
    w_in = r.standard_normal((d_in, 4 * d_s)) * 0.6
    w_rec = r.standard_normal((d_s, 4 * d_s)) * 0.6
    bias = r.standard_normal(4 * d_s) * 0.3
    return x, w_in, w_rec, bias, r.standard_normal((rows, d_s))


def masked_case(x, lengths, d_s=D_S, seed=5):
    """``x`` split into a first column that takes no gradient and a trained
    rest, plus input and output dropout masks, (keep bits, keep_prob), over
    its rows."""
    r = np.random.default_rng(seed)
    blocks = [x[:, :1].copy(), x[:, 1:].copy()]
    masks = [(dropout_mask((sum(lengths), width), 0.7, r), 0.7) for width in (x.shape[1], d_s)]
    assert all(0 < np.count_nonzero(bits) < bits.size for bits, _ in masks)
    return blocks, masks


def lstm_grads(blocks, w_in, w_rec, bias, n_at, reverse, masks, weight, dtype=np.float64):
    """The states, and the gradients of sum(states * weight) for the last
    block, w_in, w_rec and bias."""
    out, backward = lstm_sequence(blocks, w_in, w_rec, bias, n_at, reverse, *masks,
                                  dtype=dtype, record=(len(blocks) - 1,))
    return out, backward(weight)


@pytest.mark.parametrize("lengths,masked", [([3, 2, 2, 1], False), ([3, 3, 3], False),
                                            ([3, 2, 2, 1], True), ([2, 3, 1, 3], False),
                                            ([2, 3, 1, 3], True)],
                         ids=["ragged", "equal", "masked", "unsorted", "unsorted-masked"])
@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
def test_lstm_sequence_gradients_match_fd(lengths, masked, reverse):
    x, w_in, w_rec, bias, weight = lstm_case(lengths)
    blocks, masks = masked_case(x, lengths) if masked else ([x], [None, None])

    def loss():
        out, _ = lstm_sequence(blocks, w_in, w_rec, bias, rows_at(lengths), reverse, *masks)
        return float((out * weight).sum())

    _, grads = lstm_grads(blocks, w_in, w_rec, bias, rows_at(lengths), reverse, masks, weight)
    assert len(grads) == 4   # one dx, for the last block only
    for p, grad in zip((blocks[-1], w_in, w_rec, bias), grads):
        assert max_rel_error(grad, fd_gradient(loss, p)) < 1e-4


@pytest.mark.parametrize("reverse,masked,lengths", [
    (False, False, [5, 4, 4, 2, 1]), (True, False, [5, 4, 4, 2, 1]),
    (False, True, [5, 4, 4, 2, 1]), (True, True, [5, 4, 4, 2, 1]),
    (False, False, [2, 3, 1, 3]), (True, False, [2, 3, 1, 3]),
    (False, True, [2, 3, 1, 3]), (True, True, [2, 3, 1, 3]),
], ids=["forward", "reverse", "forward-masked", "reverse-masked", "forward-unsorted",
        "reverse-unsorted", "forward-masked-unsorted", "reverse-masked-unsorted"])
def test_lstm_sequence_matches_tape_lstm(reverse, masked, lengths):
    # each sequence alone through the per-step tape LSTM is the oracle; there
    # the masks are explicit tape products on each step's input and output
    x, w_in, w_rec, bias, weight = lstm_case(lengths, seed=9, d_in=4, d_s=3)
    blocks, masks = masked_case(x, lengths, d_s=3) if masked else ([x], [None, None])
    real, n_at = packing(lengths)
    out, fused = lstm_grads(blocks, w_in, w_rec, bias, n_at, reverse, masks, weight)

    def mask(tensor, m, row):   # the float mask: 0 or float32(1/keep_prob)
        return tensor if m is None else tensor * Tensor.constant(
            m[0][row:row + 1] * np.float32(1.0 / m[1]))

    params = [Tensor.parameter(a) for a in (blocks[-1], w_in, w_rec, bias)]
    tape_blocks = [Tensor.constant(blk) for blk in blocks[:-1]] + params[:1]
    want = np.zeros_like(out)
    total = None
    for k, n in enumerate(lengths):
        rows = [real.index((t, k)) for t in range(n)]
        steps = [mask(concat([blk.take_rows([row]) for blk in tape_blocks], 1), masks[0], row)
                 for row in rows]
        for row, h in zip(rows, tape_lstm(steps, *params[1:], reverse)):
            h = mask(h, masks[1], row)
            want[row] = h.data[0]
            part = (h * Tensor.constant(weight[row:row + 1])).sum()
            total = part if total is None else total + part
    total.backward()

    assert np.max(np.abs(out - want)) <= 1e-12
    for p, grad in zip(params, fused, strict=True):
        assert np.max(np.abs(grad - p.grad)) <= 1e-12


@pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
def test_lstm_sequence_float32_tracks_float64(reverse, masked):
    # float32 compute hands back outputs in its own dtype and float64
    # gradients, which differ from the float64 op's by float32 rounding only
    lengths = [6, 5, 5, 3, 1]
    x, w_in, w_rec, bias, weight = lstm_case(lengths, seed=4, d_in=5, d_s=4)
    blocks, masks = masked_case(x, lengths, d_s=4) if masked else ([x], [None, None])
    runs = []
    for dtype in (np.float64, np.float32):
        out, grads = lstm_grads(blocks, w_in, w_rec, bias, rows_at(lengths), reverse, masks,
                                weight, dtype)
        runs.append([out, *grads])
    for k, (want, got) in enumerate(zip(*runs)):
        assert got.dtype == (np.float32 if k == 0 else np.float64)   # the output, then gradients
        assert np.max(np.abs(got - want)) <= 1e-4 * np.max(np.abs(want))
    assert np.array_equal(runs[1][0] == 0.0, runs[0][0] == 0.0)   # the same dropped entries


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_lstm_sequence_keep_bits_equal_the_float_mask_bit_for_bit(dtype):
    # bits, then float32(1/keep_prob), give the outputs and gradients of the
    # float mask of 0 or float32(1/keep_prob), signed zeros included
    lengths = [3, 2, 2, 1]
    x, w_in, w_rec, bias, weight = lstm_case(lengths)
    blocks, masks = masked_case(x, lengths)
    float_masks = [(bits * np.float32(1.0 / keep), 1.0) for bits, keep in masks]
    runs = []
    for m in (masks, float_masks):
        out, grads = lstm_grads(blocks, w_in, w_rec, bias, rows_at(lengths), False, m, weight,
                                dtype)
        runs.append([out, *grads])
    assert np.any((runs[0][0] == 0.0) & np.signbit(runs[0][0]))   # a dropped negative
    for got, want in zip(*runs):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_lstm_sequence_leaves_a_shared_output_gradient_intact(dtype):
    # the forward and backward context LSTMs receive one gradient array; with
    # an output mask, neither may drop entries of it in place
    lengths = [3, 2, 2, 1]
    x, w_in, w_rec, bias, weight = lstm_case(lengths)
    _, (_, mask_out) = masked_case(x, lengths)
    g = weight.copy()
    for reverse in (False, True):
        _, backward = lstm_sequence([x], w_in, w_rec, bias, rows_at(lengths), reverse, None,
                                    mask_out, dtype=dtype, record=(0,))
        backward(g)
    assert np.array_equal(g, weight)


def test_lstm_sequence_rows_do_not_depend_on_other_lengths():
    # a sequence's states and input gradients are the same alone and packed
    # beside shorter, equal and longer sequences
    r = np.random.default_rng(4)
    own, own_weight = r.standard_normal((3, D_IN)), r.standard_normal((3, D_S))
    _, w_in, w_rec, bias, _ = lstm_case([3])
    runs = {}
    for others in ([], [1], [3, 2], [5, 1]):
        real, n_at = packing([3] + others)
        mine = [real.index((t, 0)) for t in range(3)]
        x = r.standard_normal((len(real), D_IN))
        weight = r.standard_normal((len(real), D_S))
        x[mine], weight[mine] = own, own_weight
        for reverse in (False, True):
            out, (dx, *_) = lstm_grads([x], w_in, w_rec, bias, n_at, reverse, [None, None],
                                       weight)
            assert np.all(out != 0.0)
            runs.setdefault(reverse, []).append((out[mine], dx[mine]))
    for (h, dx), *rest in runs.values():
        for h_other, dx_other in rest:
            assert np.max(np.abs(h_other - h)) <= 1e-12
            assert np.max(np.abs(dx_other - dx)) <= 1e-12


def test_lstm_sequence_takes_a_list_of_blocks():
    # column blocks of the rows, in w_in row order, act as their concatenation
    x, w_in, w_rec, bias, _ = lstm_case([2, 1])
    whole, _ = lstm_sequence([x], w_in, w_rec, bias, [2, 1])
    split, _ = lstm_sequence([x[:, :1], x[:, 1:]], w_in, w_rec, bias, [2, 1])
    assert np.array_equal(split, whole)


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_lstm_sequence_never_writes_its_input(masked, dtype):
    # one block in the compute dtype is read in place, so the two context
    # LSTMs can share it; a mask or a cast is applied to a copy. A read-only
    # block gives what a writable copy gives, states and gradients alike
    lengths = [3, 2, 2, 1]
    x, w_in, w_rec, bias, weight = lstm_case(lengths)
    _, masks = masked_case(x, lengths)
    mask_in = masks[0] if masked else None
    shared = x.astype(np.float64 if masked else dtype)
    shared.setflags(write=False)
    runs = [lstm_sequence([block], w_in, w_rec, bias, rows_at(lengths), False, mask_in,
                          dtype=dtype, record=(0,))
            for block in (shared, shared.copy())]
    (out, backward), (want, want_backward) = runs
    assert np.array_equal(out, want)
    assert all(np.array_equal(a, b) for a, b in zip(backward(weight), want_backward(weight)))


def test_lstm_sequence_records_only_when_asked():
    # inference keeps no backward; an empty record still gives the weights'
    # gradients, and no dx
    x, w_in, w_rec, bias, weight = lstm_case([2, 1])
    out, backward = lstm_sequence([x], w_in, w_rec, bias, [2, 1])
    assert backward is None
    recorded, backward = lstm_sequence([x], w_in, w_rec, bias, [2, 1], record=())
    assert np.array_equal(out, recorded)
    grads = backward(weight)
    assert [g.shape for g in grads] == [w_in.shape, w_rec.shape, bias.shape]


def test_lstm_sequence_node_keeps_no_constant_block():
    # the backward holds the op's masked copy of the input, not the blocks
    # it was given, neither the one without a dx nor the one with it
    lengths = [3, 2, 2, 1]
    x, w_in, w_rec, bias, weight = lstm_case(lengths)
    blocks = [x[:, :1].copy(), x[:, 1:].copy()]
    gone = [weakref.ref(blk) for blk in blocks]
    _, backward = lstm_sequence(blocks, w_in, w_rec, bias, rows_at(lengths), record=(1,))
    del blocks
    assert all(ref() is None for ref in gone)
    dx, *_ = backward(weight)
    assert dx.shape == (sum(lengths), D_IN - 1)


def test_lstm_sequence_accepts_any_length_order():
    # the model's packing of an unsorted batch gives each sequence the rows
    # and gradients it has alone
    for lengths in ([1, 2], [3, 1], [1, 3, 3, 2]):
        b, steps = len(lengths), max(lengths)
        x, w_in, w_rec, bias, weight = lstm_case([steps] * b)   # padded, row t*B + k
        seq, step, n_at = _packed(lengths)
        assert (list(zip(step.tolist(), seq.tolist())), n_at.tolist()) == packing(lengths)
        padded = step * b + seq
        for reverse in (False, True):
            out, (dx, *_) = lstm_grads([x[padded]], w_in, w_rec, bias, n_at, reverse,
                                       [None, None], weight[padded])
            for k, n in enumerate(lengths):
                rows = np.flatnonzero(seq == k)
                want, (alone, *_) = lstm_grads([x[padded[rows]]], w_in, w_rec, bias, [1] * n,
                                               reverse, [None, None], weight[padded[rows]])
                assert np.max(np.abs(out[rows] - want)) <= 1e-12
                assert np.max(np.abs(dx[rows] - alone)) <= 1e-12


def test_lstm_sequence_masks_follow_stable_longest_first_order():
    # mask row k is packed row k: the k-th (step, sequence) pair in time-major
    # order, each step's sequences longest first with ties in input order
    lengths = [1, 2, 1, 2, 2]
    seq, step, n_at = _packed(lengths)
    want = [(0, 1), (0, 3), (0, 4), (0, 0), (0, 2), (1, 1), (1, 3), (1, 4)]
    assert list(zip(step.tolist(), seq.tolist())) == want and n_at.tolist() == [5, 3]
    x, w_in, w_rec, _, _ = lstm_case(lengths)
    bias = np.zeros(4 * D_S)   # a zero input row then leaves a zero state
    for k in range(sum(lengths)):
        one_hot = np.zeros((sum(lengths), 1), dtype=bool)
        one_hot[k] = True
        out, _ = lstm_sequence([x], w_in, w_rec, bias, n_at, False, None,
                               (np.repeat(one_hot, D_S, axis=1), 1.0))
        assert np.flatnonzero(out.any(axis=1)).tolist() == [k]
        out, _ = lstm_sequence([x], w_in, w_rec, bias, n_at, False,
                               (np.repeat(one_hot, D_IN, axis=1), 1.0))
        assert np.flatnonzero(out.any(axis=1))[0] == k


def test_packed_layout_is_one_lstm_sequence_takes():
    # lstm_sequence does not check its layout; _packed, which makes it from
    # the lengths of real contexts and mentions (each at least 1), gives
    # positive, non-increasing rows per step that sum to the real tokens, one
    # row per (sequence, step) pair: the rows of every block and mask
    r = make_rng(23)
    for trial in range(300):
        lengths = r.integers(1, 9, size=int(r.integers(1, 13)))
        if trial % 2:
            lengths[int(r.integers(len(lengths)))] = 1
        seq, step, n_at = _packed(lengths)
        assert n_at.size == lengths.max() and n_at[-1] >= 1
        assert np.all(np.diff(n_at) <= 0)
        assert n_at.sum() == lengths.sum() == len(seq) == len(step)
        assert sorted(zip(seq.tolist(), step.tolist())) == [
            (k, t) for k, n in enumerate(lengths.tolist()) for t in range(n)]
    assert _packed([1])[2].tolist() == [1]


def layout_fault(x, n_at, mask_in, mask_out):
    """What is wrong with an ``lstm_sequence`` layout, or None: rows per step
    must be positive and non-increasing, and every input block and dropout
    mask must hold their sum of rows."""
    n_at = np.asarray(n_at, dtype=np.intp)
    if n_at.size == 0 or n_at[-1] < 1 or np.any(np.diff(n_at) > 0):
        return f"rows per step must be positive and non-increasing, got {n_at.tolist()}"
    rows, shapes = int(n_at.sum()), [a.shape for a in x]
    if any(len(s) != 2 or s[0] != rows for s in shapes):
        return f"input blocks {shapes} do not hold the {rows} rows of steps {n_at.tolist()}"
    if any(m is not None and len(m[0]) != rows for m in (mask_in, mask_out)):
        return f"dropout masks need {rows} rows, one per row of x"
    return None


@pytest.mark.parametrize("n_at,rows,mask_rows,message", [
    ([2, 0], 2, None, "positive and non-increasing"),
    ([1, 2], 3, None, "positive and non-increasing"),
    ([2, 1], 5, None, "do not hold"),
    ([], 4, None, "positive"),
    ([2, 1], (3, 4), None, "do not hold"),
    ([2, 1], 3, (4, 3), "need 3 rows"),
    ([2, 1], 3, (3, 2), "need 3 rows"),
], ids=["zero-length", "too-long", "lengths3-5-do not split", "lengths4-4-do not split",
        "unequal-blocks", "mask_in-rows", "mask_out-rows"])
def test_lstm_sequence_rejects_bad_layout(monkeypatch, n_at, rows, mask_rows, message):
    # lstm_sequence does not check its layout: its one caller, the model,
    # makes every layout with _packed over real contexts and mentions. The
    # case's layout is a fault, and no layout the model hands lstm_sequence,
    # training with dropout or not, over random lengths and spans, is one.
    # rows: one block's row count, or a pair for a width-1 and a wider block;
    # mask_rows: the (mask_in, mask_out) row counts, or no masks
    x = ([np.zeros((rows, D_IN))] if isinstance(rows, int) else
         [np.zeros((rows[0], 1)), np.zeros((rows[1], D_IN - 1))])
    masks = ([None, None] if mask_rows is None else
             [(np.ones((mask_rows[0], D_IN), dtype=bool), 0.7),
              (np.ones((mask_rows[1], D_S), dtype=bool), 0.7)])
    fault = layout_fault(x, n_at, *masks)
    assert fault is not None and re.search(message, fault)

    faults, calls, run = [], [], model_module.lstm_sequence

    def checking(x, w_in, w_rec, bias, n_at, reverse=False, mask_in=None, mask_out=None,
                 **kwargs):
        calls.append(mask_in is not None)
        faults.append(layout_fault(x, n_at, mask_in, mask_out))
        return run(x, w_in, w_rec, bias, n_at, reverse, mask_in, mask_out, **kwargs)

    monkeypatch.setattr(model_module, "lstm_sequence", checking)
    model, r = tiny_model(), make_rng(29)
    words = ["the", "cat", "sat", "on", "mat", "zzz"]
    for trial in range(12):
        batch = []
        for _ in range(int(r.integers(1, 6))):
            n = int(r.integers(1, 7))
            start = int(r.integers(n))
            batch.append(MentionTriple(tuple(words[:n]), start, int(r.integers(start + 1, n + 1)),
                                       ("/a",), frozenset({"/a"})))
        train = trial % 2 == 0
        model.forward_bucket(batch, train=train, rng=make_rng(trial) if train else None)
    assert len(calls) == 36 and calls.count(True) == 18
    assert faults == [None] * 36


def test_gradients_skips_frozen_entries():
    # a block that takes no gradient, as the frozen word vectors do, gets no
    # dx and no dx GEMM: only the listed blocks' dx come back
    x, w_in, w_rec, bias, weight = lstm_case([3, 2, 2, 1])
    words, rest = x[:, :1].copy(), x[:, 1:].copy()
    for record, dx in (((1,), [rest.shape]), ((), [])):
        _, backward = lstm_sequence([words, rest], w_in, w_rec, bias, rows_at([3, 2, 2, 1]),
                                    record=record)
        assert [g.shape for g in backward(weight)] == dx + [w_in.shape, w_rec.shape,
                                                             bias.shape]


# -- the model's backward chain ---------------------------------------------------

TINY_FOREST = TypeForest(["/a", "/a/b", "/c"])


def tiny_model(**overrides):
    words = ["the", "cat", "sat", "on", "mat"]
    emb = WordEmbeddings(words, make_rng(1).uniform(-0.4, 0.4, (len(words), 4)))
    hp = figer_hp(**{"d_p": 3, "d_s": 3, "window": 2, "p_i": 0.7, "p_o": 0.9, **overrides})
    return NfetcModel(hp, emb, TINY_FOREST, make_rng(2))


def tiny_batch(lengths):
    return [MentionTriple(tuple(["the", "cat", "sat", "on", "mat", "zzz"][:n]), 0, 1, ("/a",),
                          frozenset({"/a"})) for n in lengths]


def watch_lstms(monkeypatch):
    """Weak references to the input blocks and the output of each LSTM the
    model runs, in call order."""
    inputs, outputs = [], []
    run = model_module.lstm_sequence

    def watching(x, *args, **kwargs):
        inputs.append([weakref.ref(blk) for blk in x])
        h, backward = run(x, *args, **kwargs)
        outputs.append(weakref.ref(h))
        return h, backward

    monkeypatch.setattr(model_module, "lstm_sequence", watching)
    return inputs, outputs


def test_constants_are_not_tape_parents(monkeypatch):
    # no backward keeps what it does not read: once the forward returns, the
    # word vectors, the gathered position rows (each LSTM keeps its own
    # masked copy) and the mention LSTM's output are free; the head's
    # backward keeps the two context LSTMs' outputs
    inputs, outputs = watch_lstms(monkeypatch)
    batch = tiny_batch([5, 2, 6, 1])
    _, _, backward = tiny_model().forward_bucket(batch, train=True, rng=make_rng(3))
    assert [len(blocks) for blocks in inputs] == [2, 2, 1]
    assert all(ref() is None for blocks in inputs for ref in blocks)
    assert [ref() is None for ref in outputs] == [False, False, True]
    assert backward is not None


def test_backward_releases_the_graph_and_keeps_leaf_gradients(monkeypatch):
    # each piece's saved arrays go free as the backward runs, though the
    # closure itself is still held, and it returns every parameter's gradient
    _, outputs = watch_lstms(monkeypatch)
    model, batch = tiny_model(), tiny_batch([5, 2, 6, 1])
    runs = []
    for _ in range(2):
        probs, _, backward = model.forward_bucket(batch, train=True, rng=make_rng(3))
        runs.append(backward(np.linspace(-1.0, 1.0, probs.size).reshape(probs.shape)))
        assert all(ref() is None for ref in outputs)
    assert list(runs[0]) == [n for n, _ in model.params.items()]
    for name, grad in runs[0].items():
        assert grad.dtype == np.float64 and np.array_equal(grad, runs[1][name]), name


def test_gradients_fills_unreachable_with_zeros():
    # one-token contexts give each mention a single attention weight of 1,
    # which attn_w cannot move, and no recurrent step in the context LSTMs:
    # those gradients are there, and exactly zero
    model, batch = tiny_model(p_i=1.0, p_o=1.0), tiny_batch([1, 1, 1])
    probs, _, backward = model.forward_bucket(batch, train=True)
    _, d_probs = mean_nll(probs, batch, LossConfig(), TINY_FOREST)
    grads = gradients(backward, d_probs, ())
    assert list(grads) == [n for n, _ in model.params.items()]
    unreached = {"attn_w", "ctx_fw.w_rec", "ctx_bw.w_rec"}
    assert {n for n, g in grads.items() if not np.any(g)} == unreached
    assert all(grads[n].shape == model.params[n].shape for n in unreached)


# -- the reference tape's sweep --------------------------------------------------

def test_reused_node_accumulates_gradient():
    x = Tensor.parameter(np.array([3.0]))
    y = x * x + x  # dy/dx = 2x + 1
    y.sum().backward()
    assert x.grad == pytest.approx([7.0])


def test_deep_chain_does_not_recurse():
    x = Tensor.parameter(np.array([0.01]))
    y = x
    for _ in range(5000):
        y = y + x
    y.sum().backward()
    assert x.grad == pytest.approx([5001.0])


# -- ParamSet -----------------------------------------------------------------

class TestParamSet:
    def build(self):
        return ParamSet(w=np.ones((2, 2)), b=np.full(3, 7.0))

    def test_duplicate_name_rejected(self, tmp_path):
        # names enter as the keys of param_shapes, or from a checkpoint, whose
        # loader rejects a name given twice
        path = tmp_path / "dup.ckpt"
        save(path, {}, [("w", True, np.ones(2)), ("w", True, np.ones(2))])
        with pytest.raises(CheckpointError, match="duplicate parameter name 'w'"):
            load(path)

    def test_trainable_bookkeeping(self):
        # a dict in insertion order that stores each array as given: every
        # value is finite float64 where it is made (init_params) or read
        # (checkpoint.load), and train checks them at each step
        ps = self.build()
        late = np.zeros(1)
        ps["late"] = late
        assert list(ps) == ["w", "b", "late"] and ps["late"] is late
        assert all(isinstance(a, np.ndarray) and a.dtype == np.float64 for a in ps.values())
        with pytest.raises(KeyError):
            ps["missing"]

    def test_copy_load_roundtrip(self):
        ps = self.build()
        snapshot = ps.copy_values()
        ps["w"][0, 0] = 99.0
        ps.load_values(snapshot)
        assert ps["w"][0, 0] == 1.0

    def test_snapshots_are_private_copies(self):
        ps = self.build()
        snapshot = ps.copy_values()
        assert all(snapshot[n] is not a for n, a in ps.items())
        ps.load_values(snapshot)
        assert all(snapshot[n] is not a for n, a in ps.items())
        snapshot["b"][0] = 1.0
        assert ps["b"].tolist() == [7.0, 7.0, 7.0]
        assert ps["b"].flags.writeable

    def test_load_shape_mismatch(self, tmp_path):
        # load_values takes copy_values' own snapshots; values from a file
        # enter through load_checkpoint, which rejects a tensor of another shape
        ps = self.build()
        assert [a.shape for a in ps.copy_values().values()] == [a.shape for _, a in ps.items()]
        path = rewrite_params(V1_CHECKPOINT, tmp_path / "m.ckpt",
                              lambda values: values.update(attn_w=np.zeros(99)))
        with pytest.raises(CheckpointError, match=r"tensor 'attn_w' has shape \(99,\)"):
            load_checkpoint(path)


def test_gradients_sum_several_losses():
    # the training step's gradient: the forward's backward at the objective's
    # gradient, plus the L2 term's, for the parameters that term has
    calls = []

    def backward(d_probs):
        calls.append(d_probs)
        return {"w": np.array([2.0, -1.0]), "v": np.array([3.0])}

    d_probs = np.ones((1, 2))
    grads = gradients(backward, d_probs, [("w", np.array([5.0, 2.0]))])
    assert calls == [d_probs]
    assert np.array_equal(grads["w"], [7.0, 1.0])
    assert np.array_equal(grads["v"], [3.0])
    assert gradients(backward, d_probs, ())["w"].tolist() == [2.0, -1.0]
