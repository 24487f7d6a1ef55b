import math
import weakref

import numpy as np
import pytest

from nfetc.autodiff import ParamSet, Tensor, gradients, lstm_sequence, no_grad
from nfetc.corpus import MentionTriple
from nfetc.hierarchy import TypeForest
from nfetc.loss import LossConfig, PROB_FLOOR, mean_nll
from nfetc.model import _packed
from nfetc.optim import dropout_mask
from gradcheck import fd_gradient, max_rel_error
from oracles import concat, softmax_rows, tape_cols, tape_lstm, tape_sigmoid


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
    x = Tensor.parameter(np.array([[1000.0], [-1000.0]]))
    w_in = Tensor.parameter(np.ones((1, 4)))
    h = lstm_sequence([x], w_in, Tensor.parameter(np.zeros((1, 4))),
                      Tensor.parameter(np.zeros(4)), [2])
    assert h.data[:, 0] == pytest.approx([math.tanh(1.0), 0.0])
    h.sum().backward()
    assert np.all(np.isfinite(x.grad)) and np.all(np.isfinite(w_in.grad))


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
    # many repeated indices, with gradients of mixed sign and scale, so the
    # sums depend on their order
    r = rng()
    idx = r.integers(-rows, rows, size=3000)
    g = r.standard_normal((idx.size, cols)) * 10.0 ** r.integers(-8, 8, size=(idx.size, 1))
    x = Tensor.parameter(np.zeros((rows, cols)))
    (x.take_rows(idx) * Tensor.constant(g)).sum().backward()   # each row's gradient is g's
    want = np.zeros((rows, cols))
    np.add.at(want, idx, g)
    assert x.grad.tobytes() == want.tobytes()


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
# pick, floor, log and mean exist only inside loss.mean_nll's single tape
# node; each keeps its check here, on a flat forest with one gold type per row

def fused_nll(rows, gold):
    """(probs, loss) of plain mean_nll over ``rows``, row i's gold at gold[i]."""
    forest = TypeForest([f"/t{j}" for j in range(len(rows[0]))])
    batch = [MentionTriple(("x",), 0, 1, (f"/t{g}",),
                           frozenset(forest.terminal_set([f"/t{g}"]))) for g in gold]
    probs = Tensor.parameter(np.array(rows, dtype=np.float64))
    return probs, mean_nll(probs, batch, LossConfig(), forest)


def test_log_gradient_matches_fd():
    rows = rng().uniform(0.5, 3.0, (2, 3))
    probs, loss = fused_nll(rows, [0, 2])

    def run():
        return float(fused_nll(probs.data, [0, 2])[1].data)

    loss.backward()
    assert max_rel_error(probs.grad, fd_gradient(run, probs.data)) < 1e-4


def test_clip_min_blocks_gradient_below_floor():
    probs, loss = fused_nll([[0.5, 0.0, 0.0], [0.0, 1e-15, 0.0], [0.0, 0.0, 2.0]], [0, 1, 2])
    loss.backward()
    assert probs.grad[1, 1] == 0.0
    assert probs.grad[0, 0] == pytest.approx(-2.0 / 3)
    assert probs.grad[2, 2] == pytest.approx(-0.5 / 3)


def test_clip_min_forward_floor():
    _, loss = fused_nll([[0.5, 0.0, -1.0]] * 3, [0, 1, 2])
    assert loss.data.item() == pytest.approx(
        (-math.log(0.5) - 2 * math.log(PROB_FLOOR)) / 3, rel=1e-12)


def test_mean_gradient():
    for b in (2, 5):
        probs, loss = fused_nll(np.ones((b, 5)), list(range(b)))
        loss.backward()
        assert loss.data.item() == 0.0
        assert np.array_equal(probs.grad, -np.eye(b, 5) / b)


def test_pick_rows_values_and_gradient():
    probs, loss = fused_nll([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], [2, 0])
    assert loss.data.item() == pytest.approx(-(math.log(3.0) + math.log(4.0)) / 2)
    loss.backward()
    assert np.array_equal(probs.grad, [[0, 0, -1.0 / 6], [-1.0 / 8, 0, 0]])


def test_pick_scalar_entry():
    probs, loss = fused_nll([[5.0, 7.0, 9.0]], [1])
    assert loss.data.item() == pytest.approx(-math.log(7.0))
    loss.backward()
    assert np.array_equal(probs.grad, [[0.0, -1.0 / 7, 0.0]])


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
    x = Tensor.parameter(r.standard_normal((rows, d_in)))
    w_in = Tensor.parameter(r.standard_normal((d_in, 4 * d_s)) * 0.6)
    w_rec = Tensor.parameter(r.standard_normal((d_s, 4 * d_s)) * 0.6)
    bias = Tensor.parameter(r.standard_normal(4 * d_s) * 0.3)
    return x, w_in, w_rec, bias, r.standard_normal((rows, d_s))


def masked_case(x, lengths, d_s=D_S, seed=5):
    """``x`` split into a constant first column and a trainable rest, plus
    input and output dropout masks, (keep bits, keep_prob), over its rows."""
    r = np.random.default_rng(seed)
    blocks = [Tensor.constant(x.data[:, :1]), Tensor.parameter(x.data[:, 1:].copy())]
    masks = [(dropout_mask((sum(lengths), width), 0.7, r), 0.7) for width in (x.shape[1], d_s)]
    assert all(0 < np.count_nonzero(bits) < bits.size for bits, _ in masks)
    return blocks, masks


@pytest.mark.parametrize("lengths,masked", [([3, 2, 2, 1], False), ([3, 3, 3], False),
                                            ([3, 2, 2, 1], True), ([2, 3, 1, 3], False),
                                            ([2, 3, 1, 3], True)],
                         ids=["ragged", "equal", "masked", "unsorted", "unsorted-masked"])
@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
def test_lstm_sequence_gradients_match_fd(lengths, masked, reverse):
    x, w_in, w_rec, bias, weight = lstm_case(lengths)
    blocks, masks = masked_case(x, lengths) if masked else ([x], [None, None])

    def loss():
        out = lstm_sequence(blocks, w_in, w_rec, bias, rows_at(lengths), reverse, *masks)
        return (out * Tensor.constant(weight)).sum()

    loss().backward()
    for p in (blocks[-1], w_in, w_rec, bias):
        numeric = fd_gradient(lambda: float(loss().data), p.data)
        assert max_rel_error(p.grad, numeric) < 1e-4
    if masked:
        assert blocks[0].grad is None


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
    params = (blocks[-1], w_in, w_rec, bias)
    real, n_at = packing(lengths)
    out = lstm_sequence(blocks, w_in, w_rec, bias, n_at, reverse, *masks)
    (out * Tensor.constant(weight)).sum().backward()
    fused = [p.grad for p in params]

    def mask(tensor, m, row):   # the float mask: 0 or float32(1/keep_prob)
        return tensor if m is None else tensor * Tensor.constant(
            m[0][row:row + 1] * np.float32(1.0 / m[1]))

    for p in params:
        p.grad = None
    want = np.zeros_like(out.data)
    total = None
    for k, n in enumerate(lengths):
        rows = [real.index((t, k)) for t in range(n)]
        steps = [mask(concat([blk.take_rows([row]) for blk in blocks], 1), masks[0], row)
                 for row in rows]
        for row, h in zip(rows, tape_lstm(steps, w_in, w_rec, bias, reverse)):
            h = mask(h, masks[1], row)
            want[row] = h.data[0]
            part = (h * Tensor.constant(weight[row:row + 1])).sum()
            total = part if total is None else total + part
    total.backward()

    assert np.max(np.abs(out.data - want)) <= 1e-12
    for p, grad in zip(params, fused):
        assert np.max(np.abs(grad - p.grad)) <= 1e-12
    if masked:
        assert blocks[0].grad is None


@pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
def test_lstm_sequence_float32_tracks_float64(reverse, masked):
    # float32 compute hands back outputs in its own dtype and float64
    # gradients, which differ from the float64 op's by float32 rounding only
    lengths = [6, 5, 5, 3, 1]
    x, w_in, w_rec, bias, weight = lstm_case(lengths, seed=4, d_in=5, d_s=4)
    blocks, masks = masked_case(x, lengths, d_s=4) if masked else ([x], [None, None])
    params = (blocks[-1], w_in, w_rec, bias)
    runs = []
    for dtype in (np.float64, np.float32):
        for p in params:
            p.grad = None
        out = lstm_sequence(blocks, w_in, w_rec, bias, rows_at(lengths), reverse, *masks,
                            dtype=dtype)
        (out * Tensor.constant(weight)).sum().backward()
        runs.append([out.data] + [p.grad for p in params])
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
    params = (blocks[-1], w_in, w_rec, bias)
    runs = []
    for m in (masks, float_masks):
        for p in params:
            p.grad = None
        out = lstm_sequence(blocks, w_in, w_rec, bias, rows_at(lengths), False, *m, dtype=dtype)
        (out * Tensor.constant(weight)).sum().backward()
        runs.append([out.data] + [p.grad for p in params])
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
    outs = [lstm_sequence([x], w_in, w_rec, bias, rows_at(lengths), reverse, None, mask_out,
                          dtype=dtype) for reverse in (False, True)]
    g = weight.copy()
    for out in outs:
        out._backward(g)
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
            xt = Tensor.parameter(x)
            out = lstm_sequence([xt], w_in, w_rec, bias, n_at, reverse)
            assert np.all(out.data != 0.0)
            (out * Tensor.constant(weight)).sum().backward()
            runs.setdefault(reverse, []).append((out.data[mine], xt.grad[mine]))
    for (h, dx), *rest in runs.values():
        for h_other, dx_other in rest:
            assert np.max(np.abs(h_other - h)) <= 1e-12
            assert np.max(np.abs(dx_other - dx)) <= 1e-12


def test_lstm_sequence_takes_a_list_of_blocks():
    x, w_in, w_rec, bias, _ = lstm_case([2, 1])
    with pytest.raises(TypeError):
        lstm_sequence(x, w_in, w_rec, bias, [2, 1])


def test_lstm_sequence_keeps_no_tape_under_no_grad():
    x, w_in, w_rec, bias, _ = lstm_case([2, 1])
    with no_grad():
        out = lstm_sequence([x], w_in, w_rec, bias, [2, 1])
    assert not out.requires_grad
    assert out._backward is None and out._parents == ()


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
            xp = Tensor.parameter(x.data[padded])
            out = lstm_sequence([xp], w_in, w_rec, bias, n_at, reverse)
            (out * Tensor.constant(weight[padded])).sum().backward()
            for k, n in enumerate(lengths):
                rows = np.flatnonzero(seq == k)
                alone = Tensor.parameter(x.data[padded[rows]])
                want = lstm_sequence([alone], w_in, w_rec, bias, [1] * n, reverse)
                (want * Tensor.constant(weight[padded[rows]])).sum().backward()
                assert np.max(np.abs(out.data[rows] - want.data)) <= 1e-12
                assert np.max(np.abs(xp.grad[rows] - alone.grad)) <= 1e-12


def test_lstm_sequence_masks_follow_stable_longest_first_order():
    # mask row k is packed row k: the k-th (step, sequence) pair in time-major
    # order, each step's sequences longest first with ties in input order
    lengths = [1, 2, 1, 2, 2]
    seq, step, n_at = _packed(lengths)
    want = [(0, 1), (0, 3), (0, 4), (0, 0), (0, 2), (1, 1), (1, 3), (1, 4)]
    assert list(zip(step.tolist(), seq.tolist())) == want and n_at.tolist() == [5, 3]
    x, w_in, w_rec, bias, _ = lstm_case(lengths)
    bias.data[:] = 0.0   # a zero input row then leaves a zero state
    for k in range(sum(lengths)):
        one_hot = np.zeros((sum(lengths), 1), dtype=bool)
        one_hot[k] = True
        out = lstm_sequence([x], w_in, w_rec, bias, n_at, False, None,
                            (np.repeat(one_hot, D_S, axis=1), 1.0))
        assert np.flatnonzero(out.data.any(axis=1)).tolist() == [k]
        out = lstm_sequence([x], w_in, w_rec, bias, n_at, False,
                            (np.repeat(one_hot, D_IN, axis=1), 1.0))
        assert np.flatnonzero(out.data.any(axis=1))[0] == k


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
def test_lstm_sequence_rejects_bad_layout(n_at, rows, mask_rows, message):
    # rows: one block's row count, or a pair for a width-1 and a wider block;
    # mask_rows: the (mask_in, mask_out) row counts, or no masks
    _, w_in, w_rec, bias, _ = lstm_case([1])
    x = ([Tensor.constant(np.zeros((rows, D_IN)))] if isinstance(rows, int) else
         [Tensor.constant(np.zeros((rows[0], 1))), Tensor.constant(np.zeros((rows[1], D_IN - 1)))])
    masks = ([None, None] if mask_rows is None else
             [(np.ones((mask_rows[0], D_IN), dtype=bool), 0.7),
              (np.ones((mask_rows[1], D_S), dtype=bool), 0.7)])
    with pytest.raises(ValueError, match=message):
        lstm_sequence(x, w_in, w_rec, bias, n_at, False, *masks)


# -- tape mechanics -----------------------------------------------------------

def sweep_keeping_the_graph(loss):
    """The reverse sweep without release: every node's closure runs once, in
    reverse topological order, and every node keeps its closure and gradient."""
    order, seen = [], set()

    def visit(node):
        if id(node) not in seen:
            seen.add(id(node))
            for p in node._parents:
                visit(p)
            order.append(node)

    visit(loss)
    loss.grad = np.ones(())
    for node in reversed(order):
        if node._backward is not None:
            node._backward(node.grad)


def tape_case():
    """Parameters and a scalar loss through the fused LSTM (with a constant
    block and dropout masks), tanh, take_rows, concat, matmul and softmax,
    plus the softmax output, an intermediate of the graph."""
    lengths = [3, 2, 2, 1]
    x, w_in, w_rec, bias, _ = lstm_case(lengths)
    _, masks = masked_case(x, lengths)
    r = np.random.default_rng(12)
    ps = ParamSet()
    for name, value in (("x", x.data[:, 1:]), ("w_in", w_in.data), ("w_rec", w_rec.data),
                        ("bias", bias.data), ("w_out", r.standard_normal((2 * D_S, 3)))):
        ps.add(name, value)
    h = lstm_sequence([Tensor.constant(x.data[:, :1]), ps["x"]], ps["w_in"], ps["w_rec"],
                      ps["bias"], rows_at(lengths), False, *masks)
    rows = np.arange(h.shape[0])[::-1]
    probs = softmax_rows(concat([h.tanh(), h.take_rows(rows)], 1).matmul(ps["w_out"]))
    return ps, (probs * Tensor.constant(r.standard_normal(probs.shape))).sum(), probs


def test_backward_releases_the_graph_and_keeps_leaf_gradients():
    reference, loss, _ = tape_case()
    sweep_keeping_the_graph(loss)
    ps, loss, probs = tape_case()
    inner = weakref.ref(probs)
    del probs
    grads = gradients([loss], ps)
    # freed by reference counting alone, with no collector pass
    assert inner() is None
    assert loss._parents == () and loss.grad is None
    for name, t in ps.items():
        assert t.grad is grads[name]
        assert np.array_equal(grads[name], reference[name].grad)


def test_lstm_sequence_node_keeps_no_constant_block():
    lengths = [3, 2, 2, 1]
    x, w_in, w_rec, bias, _ = lstm_case(lengths)
    const = Tensor.constant(x.data[:, :1].copy())
    block, data = weakref.ref(const), weakref.ref(const.data)
    out = lstm_sequence([const, Tensor.parameter(x.data[:, 1:])], w_in, w_rec, bias,
                        rows_at(lengths))
    del const
    assert block() is None and data() is None
    assert out.requires_grad and len(out._parents) == 4
    (out * 1.0).sum().backward()
    assert w_in.grad is not None


def test_second_backward_on_a_released_graph_raises():
    x = Tensor.parameter(np.array([3.0]))
    y = x * x
    loss = y.sum()
    loss.backward()
    assert x.grad.tolist() == [6.0]
    with pytest.raises(RuntimeError, match="released"):
        loss.backward()
    # a new graph through a released node cannot sweep past it either
    with pytest.raises(RuntimeError, match="released"):
        (y * 2.0).sum().backward()
    assert x.grad.tolist() == [6.0]


def test_constants_are_not_tape_parents():
    p = Tensor.parameter(np.ones(2))
    c = Tensor.constant(np.full(2, 3.0))
    out = p * c + c
    assert out._parents[0]._parents == (p,)
    assert len(out._parents) == 1


def test_backward_requires_scalar():
    with pytest.raises(ValueError, match="scalar"):
        Tensor.parameter(np.ones(3)).backward()


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


def test_no_grad_blocks_recording():
    x = Tensor.parameter(np.ones(3))
    with no_grad():
        y = (x * 2.0).sum()
    assert not y.requires_grad
    assert y._backward is None


def test_parameter_created_under_no_grad_stays_trainable():
    with no_grad():
        p = Tensor.parameter(np.ones(2))
    assert p.requires_grad
    (p * 3.0).sum().backward()
    assert np.array_equal(p.grad, [3.0, 3.0])


def test_tensor_factory_rejects_non_finite():
    with pytest.raises(ValueError, match="finite"):
        ParamSet().add("x", [1.0, float("nan")])
    with pytest.raises(ValueError, match="finite"):
        ParamSet().add("x", [float("inf")])


# -- ParamSet -----------------------------------------------------------------

class TestParamSet:
    def build(self):
        ps = ParamSet()
        ps.add("w", np.ones((2, 2)))
        ps.add("b", np.full(3, 7.0))
        return ps

    def test_duplicate_name_rejected(self):
        ps = self.build()
        with pytest.raises(ValueError, match="duplicate"):
            ps.add("w", np.zeros(1))

    def test_non_finite_rejected(self):
        ps = ParamSet()
        with pytest.raises(ValueError, match="non-finite"):
            ps.add("bad", [np.nan])

    def test_trainable_bookkeeping(self):
        # every entry is trained, in insertion order, even one added under no_grad
        ps = self.build()
        with no_grad():
            ps.add("late", np.zeros(1))
        assert [n for n, _ in ps.items()] == ["w", "b", "late"]
        assert all(t.requires_grad for _, t in ps.items())
        with pytest.raises(KeyError):
            ps["missing"]

    def test_copy_load_roundtrip(self):
        ps = self.build()
        snapshot = ps.copy_values()
        ps["w"].data[0, 0] = 99.0
        ps.load_values(snapshot)
        assert ps["w"].data[0, 0] == 1.0

    def test_snapshots_are_private_copies(self):
        ps = self.build()
        snapshot = ps.copy_values()
        assert all(snapshot[n] is not t.data for n, t in ps.items())
        ps.load_values(snapshot)
        assert all(snapshot[n] is not t.data for n, t in ps.items())
        snapshot["b"][0] = 1.0
        assert ps["b"].data.tolist() == [7.0, 7.0, 7.0]
        assert ps["b"].data.flags.writeable

    def test_load_shape_mismatch(self):
        ps = self.build()
        snapshot = ps.copy_values()
        snapshot["w"] = np.zeros(5)
        with pytest.raises(ValueError, match="shape"):
            ps.load_values(snapshot)

    def test_zero_grads(self):
        ps = self.build()
        (ps["w"] * 2.0).sum().backward()
        assert ps["w"].grad is not None
        ps.zero_grads()
        assert ps["w"].grad is None


def test_gradients_fills_unreachable_with_zeros():
    ps = ParamSet()
    ps.add("used", np.array([2.0]))
    ps.add("unused", np.ones((2, 2)))
    loss = (ps["used"] * ps["used"]).sum()
    grads = gradients([loss], ps)
    assert grads["used"] == pytest.approx([4.0])
    assert np.array_equal(grads["unused"], np.zeros((2, 2)))


def test_gradients_sum_several_losses():
    # losses whose graphs share only leaves are swept one after another
    ps = ParamSet()
    ps.add("w", np.array([2.0, -1.0]))
    ps.add("v", np.array([3.0]))
    grads = gradients([(ps["w"] * ps["w"]).sum(), (ps["w"] * ps["v"]).sum()], ps)
    assert np.array_equal(grads["w"], [7.0, 1.0])
    assert np.array_equal(grads["v"], [1.0])


def test_gradients_requires_scalar_loss():
    ps = ParamSet()
    ps.add("w", np.ones(3))
    with pytest.raises(ValueError, match="scalar"):
        gradients([ps["w"] * 1.0], ps)


def test_gradients_skips_frozen_entries():
    # a constant input, as the frozen word vectors are, gets no gradient
    ps = ParamSet()
    ps.add("w", np.array([1.0]))
    emb = Tensor.constant(np.array([5.0]))
    loss = (ps["w"] * emb).sum()
    grads = gradients([loss], ps)
    assert set(grads) == {"w"}
    assert grads["w"] == pytest.approx([5.0])
    assert emb.grad is None
