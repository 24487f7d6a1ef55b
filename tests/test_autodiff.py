import math

import numpy as np
import pytest

from nfetc.autodiff import (ParamSet, Tensor, concat, gradients, lstm_sequence,
                            no_grad, softmax_rows)
from nfetc.optim import dropout_mask
from gradcheck import fd_gradient, max_rel_error
from oracles import tape_cols, tape_lstm, tape_sigmoid


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
    lambda a, b: a - b,
    lambda a, b: a * b,
    lambda a, b: a / b,
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
        return float(((a / b) * Tensor.constant(w)).sum().data)

    ((a / b) * Tensor.constant(w)).sum().backward()
    assert max_rel_error(a.grad, fd_gradient(run, a.data)) < 1e-4
    assert max_rel_error(b.grad, fd_gradient(run, b.data)) < 1e-4


def test_scalar_mixing_and_reflected_ops():
    x = Tensor.parameter(np.array([2.0, 4.0]))
    y = (1.0 - x) * 2.0 + 3.0 / x
    assert y.data == pytest.approx([-0.5, -5.25])
    y.sum().backward()
    # d/dx of 2 - 2x + 3/x is -2 - 3/x^2
    assert x.grad == pytest.approx([-2 - 3 / 4, -2 - 3 / 16])


def test_negation_gradient():
    x = Tensor.parameter(np.array([1.0, -2.0]))
    (-x).sum().backward()
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
    h = lstm_sequence(x, w_in, Tensor.parameter(np.zeros((1, 4))),
                      Tensor.parameter(np.zeros(4)), [1, 1])
    assert h.data[:, 0] == pytest.approx([math.tanh(1.0), 0.0])
    h.sum().backward()
    assert np.all(np.isfinite(x.grad)) and np.all(np.isfinite(w_in.grad))


def test_log_gradient_matches_fd():
    x = Tensor.parameter(rng().uniform(0.5, 3.0, (2, 3)))

    def run():
        return float(x.log().sum().data)

    x.log().sum().backward()
    assert max_rel_error(x.grad, fd_gradient(run, x.data)) < 1e-4


def test_clip_min_blocks_gradient_below_floor():
    x = Tensor.parameter(np.array([0.5, 1e-15, 2.0]))
    x.clip_min(1e-12).log().sum().backward()
    assert x.grad[1] == 0.0
    assert x.grad[0] == pytest.approx(2.0)
    assert x.grad[2] == pytest.approx(0.5)


def test_clip_min_forward_floor():
    out = Tensor.constant([0.5, 0.0, -1.0]).clip_min(1e-12).data
    assert np.array_equal(out, [0.5, 1e-12, 1e-12])


# -- reductions and structure -------------------------------------------------

def test_sum_gradient_is_ones():
    p = Tensor.parameter(rng().standard_normal((3, 2)))
    p.sum().backward()
    assert np.array_equal(p.grad, np.ones((3, 2)))


def test_quadratic_gradient_is_p():
    p = Tensor.parameter(rng().standard_normal(6))
    ((p * p).sum() / 2.0).backward()
    assert p.grad == pytest.approx(p.data)


def test_mean_gradient():
    p = Tensor.parameter(np.ones((2, 5)))
    p.mean().backward()
    assert np.allclose(p.grad, 0.1)


def test_row_sums_values_and_gradient():
    x = Tensor.parameter(np.array([[1.0, 2.0], [3.0, 4.0]]))
    rs = x.row_sums()
    assert np.array_equal(rs.data, [[3.0], [7.0]])
    (rs * Tensor.constant([[2.0], [5.0]])).sum().backward()
    assert np.array_equal(x.grad, [[2.0, 2.0], [5.0, 5.0]])


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


def test_pick_rows_values_and_gradient():
    x = Tensor.parameter(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
    picked = x.pick_rows([2, 0])
    assert np.array_equal(picked.data, [3.0, 4.0])
    picked.sum().backward()
    assert np.array_equal(x.grad, [[0, 0, 1.0], [1.0, 0, 0]])


def test_pick_scalar_entry():
    x = Tensor.parameter(np.array([[5.0, 7.0, 9.0]]))
    y = x.pick_rows([1])
    assert y.data == 7.0
    y.sum().backward()
    assert np.array_equal(x.grad, [[0.0, 1.0, 0.0]])


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


# -- fused LSTM ---------------------------------------------------------------

D_IN, D_S = 3, 2


def lstm_case(lengths, seed=3, d_in=D_IN, d_s=D_S):
    """Time-major inputs for ``lengths`` plus weights and a fixed loss weighting."""
    r = np.random.default_rng(seed)
    rows = max(lengths) * len(lengths)
    x = Tensor.parameter(r.standard_normal((rows, d_in)))
    w_in = Tensor.parameter(r.standard_normal((d_in, 4 * d_s)) * 0.6)
    w_rec = Tensor.parameter(r.standard_normal((d_s, 4 * d_s)) * 0.6)
    bias = Tensor.parameter(r.standard_normal(4 * d_s) * 0.3)
    return x, w_in, w_rec, bias, r.standard_normal((rows, d_s))


def masked_case(x, lengths, d_s=D_S, seed=5):
    """``x`` split into a constant first column and a trainable rest, plus
    input and output dropout masks over the real rows."""
    r = np.random.default_rng(seed)
    blocks = [Tensor.constant(x.data[:, :1]), Tensor.parameter(x.data[:, 1:].copy())]
    masks = [dropout_mask((sum(lengths), width), 0.7, r) for width in (x.shape[1], d_s)]
    assert all(0 < np.count_nonzero(m) < m.size for m in masks)
    return blocks, masks


@pytest.mark.parametrize("lengths,masked", [([3, 2, 2, 1], False), ([3, 3, 3], False),
                                            ([3, 2, 2, 1], True)],
                         ids=["ragged", "equal", "masked"])
@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
def test_lstm_sequence_gradients_match_fd(lengths, masked, reverse):
    x, w_in, w_rec, bias, weight = lstm_case(lengths)
    blocks, masks = masked_case(x, lengths) if masked else ([x], [None, None])

    def loss():
        out = lstm_sequence(blocks, w_in, w_rec, bias, lengths, reverse, *masks)
        return (out * Tensor.constant(weight)).sum()

    loss().backward()
    for p in (blocks[-1], w_in, w_rec, bias):
        numeric = fd_gradient(lambda: float(loss().data), p.data)
        assert max_rel_error(p.grad, numeric) < 1e-4
    if masked:
        assert blocks[0].grad is None


@pytest.mark.parametrize("reverse,masked", [(False, False), (True, False),
                                            (False, True), (True, True)],
                         ids=["forward", "reverse", "forward-masked", "reverse-masked"])
def test_lstm_sequence_matches_tape_lstm(reverse, masked):
    # each sequence alone through the per-step tape LSTM is the oracle; there
    # the masks are explicit tape products on each step's input and output
    lengths = [5, 4, 4, 2, 1]
    b = len(lengths)
    x, w_in, w_rec, bias, weight = lstm_case(lengths, seed=9, d_in=4, d_s=3)
    blocks, masks = masked_case(x, lengths, d_s=3) if masked else ([x], [None, None])
    params = (blocks[-1], w_in, w_rec, bias)
    out = lstm_sequence(blocks, w_in, w_rec, bias, lengths, reverse, *masks)
    (out * Tensor.constant(weight)).sum().backward()
    fused = [p.grad for p in params]

    def mask(tensor, m, row):
        return tensor if m is None else tensor * Tensor.constant(m[row:row + 1])

    for p in params:
        p.grad = None
    real = [(t, k) for t in range(lengths[0]) for k in range(b) if t < lengths[k]]
    want = np.zeros_like(out.data)
    total = None
    for k, n in enumerate(lengths):
        steps = [mask(concat([blk.take_rows([t * b + k]) for blk in blocks], 1),
                      masks[0], real.index((t, k))) for t in range(n)]
        for t, h in enumerate(tape_lstm(steps, w_in, w_rec, bias, reverse)):
            h = mask(h, masks[1], real.index((t, k)))
            want[t * b + k] = h.data[0]
            part = (h * Tensor.constant(weight[t * b + k:t * b + k + 1])).sum()
            total = part if total is None else total + part
    total.backward()

    assert np.max(np.abs(out.data - want)) <= 1e-12
    for p, grad in zip(params, fused):
        assert np.max(np.abs(grad - p.grad)) <= 1e-12
    if masked:
        assert blocks[0].grad is None


def test_lstm_sequence_padding_is_zero_and_inert():
    lengths = [3, 1]
    x, w_in, w_rec, bias, weight = lstm_case(lengths)
    out = lstm_sequence(x, w_in, w_rec, bias, lengths, reverse=True)
    padded = [3, 5]  # steps 1 and 2 of the second sequence
    assert np.array_equal(out.data[padded], np.zeros((2, D_S)))
    assert np.all(out.data[[0, 1, 2, 4]] != 0.0)
    (out * Tensor.constant(weight)).sum().backward()
    assert np.array_equal(x.grad[padded], np.zeros((2, D_IN)))


def test_lstm_sequence_keeps_no_tape_under_no_grad():
    x, w_in, w_rec, bias, _ = lstm_case([2, 1])
    with no_grad():
        out = lstm_sequence(x, w_in, w_rec, bias, [2, 1])
    assert not out.requires_grad
    assert out._backward is None and out._parents == ()


@pytest.mark.parametrize("lengths,rows,mask_rows,message", [
    ([1, 2], 4, None, "non-increasing"),
    ([2, 0], 4, None, "non-increasing"),
    ([3, 1], 4, None, "non-increasing"),
    ([2, 1], 5, None, "do not split"),
    ([], 4, None, "do not split"),
    ([2, 1], (4, 6), None, "equal rows"),
    ([2, 1], 4, (4, 3), "need 3 rows"),
    ([2, 1], 4, (3, 2), "need 3 rows"),
], ids=["lengths0-4-non-increasing", "lengths1-4-non-increasing",
        "lengths2-4-non-increasing", "lengths3-5-do not split", "lengths4-4-do not split",
        "unequal-blocks", "mask_in-rows", "mask_out-rows"])
def test_lstm_sequence_rejects_bad_layout(lengths, rows, mask_rows, message):
    # rows: one block's row count, or a pair for a width-1 and a wider block;
    # mask_rows: the (mask_in, mask_out) row counts, or no masks
    _, w_in, w_rec, bias, _ = lstm_case([1])
    x = ([Tensor.constant(np.zeros((rows, D_IN)))] if isinstance(rows, int) else
         [Tensor.constant(np.zeros((rows[0], 1))), Tensor.constant(np.zeros((rows[1], D_IN - 1)))])
    masks = ([None, None] if mask_rows is None else
             [np.ones((mask_rows[0], D_IN)), np.ones((mask_rows[1], D_S))])
    with pytest.raises(ValueError, match=message):
        lstm_sequence(x, w_in, w_rec, bias, lengths, False, *masks)


# -- tape mechanics -----------------------------------------------------------

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


def test_item_shape_guard():
    assert Tensor.constant([[2.5]]).item() == 2.5
    with pytest.raises(ValueError):
        Tensor.constant([1.0, 2.0]).item()


# -- ParamSet -----------------------------------------------------------------

class TestParamSet:
    def build(self):
        ps = ParamSet()
        ps.add("w", np.ones((2, 2)))
        ps.add("frozen", np.full(3, 7.0), trainable=False)
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
        ps = self.build()
        assert list(ps) == ["w", "frozen"]
        assert ps.is_trainable("w") and not ps.is_trainable("frozen")
        assert [n for n, _ in ps.trainable_items()] == ["w"]
        assert "frozen" in ps and "missing" not in ps

    def test_copy_load_roundtrip(self):
        ps = self.build()
        snapshot = ps.copy_values()
        ps["w"].data[0, 0] = 99.0
        ps.load_values(snapshot)
        assert ps["w"].data[0, 0] == 1.0

    def test_frozen_arrays_are_shared_read_only(self):
        ps = self.build()
        frozen = ps["frozen"].data
        assert not frozen.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            frozen[0] = 1.0
        snapshot = ps.copy_values()
        assert snapshot["frozen"] is frozen
        assert snapshot["w"] is not ps["w"].data
        ps.load_values(snapshot)
        assert ps["frozen"].data is frozen
        # a different array for a frozen entry is copied in, read-only again
        ps.load_values({"w": np.ones((2, 2)), "frozen": np.full(3, 2.0)})
        assert ps["frozen"].data.tolist() == [2.0, 2.0, 2.0]
        assert not ps["frozen"].data.flags.writeable

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
    grads = gradients(loss, ps)
    assert grads["used"] == pytest.approx([4.0])
    assert np.array_equal(grads["unused"], np.zeros((2, 2)))


def test_gradients_requires_scalar_loss():
    ps = ParamSet()
    ps.add("w", np.ones(3))
    with pytest.raises(ValueError, match="scalar"):
        gradients(ps["w"] * 1.0, ps)


def test_gradients_skips_frozen_entries():
    ps = ParamSet()
    ps.add("w", np.array([1.0]))
    ps.add("emb", np.array([5.0]), trainable=False)
    loss = (ps["w"] * ps["emb"]).sum()
    grads = gradients(loss, ps)
    assert set(grads) == {"w"}
    assert grads["w"] == pytest.approx([5.0])
