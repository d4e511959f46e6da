"""Core engine tests: forward values, gradients vs central differences,
tape mechanics, and the Nesterov optimizer update rule."""

import gc
import math
import warnings
import weakref

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvcast import autodiff as ad
from pvcast.autodiff import SgdNesterov, Tape, Tensor, backward
from pvcast.errors import ContractError, DomainError, NumericsError, ShapeError

from reference_ops import (KeyValueRows, add, attend, check_gradients, clamped_log, concat,
                           matmul, max_relative_error, mul, numeric_gradient, reshape, scale,
                           sigmoid, slice_axis, sub, sum_all)


def test_matmul_identity():
    eye = Tensor(np.eye(2))
    m = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(matmul(eye, m).data, m.data)


def test_matmul_hand_example():
    out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert out.data.shape == (1, 1)
    assert out.data[0, 0] == pytest.approx(11.0)


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))


def test_matmul_gradients_match_finite_differences():
    rng = np.random.default_rng(101)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    w = rng.normal(size=(3, 2))  # fixed mixing so the loss is not symmetric

    def build_loss():
        return sum_all(mul(matmul(a, b), Tensor(w)))

    assert check_gradients(build_loss, [a, b]) < 1e-6


def test_matmul_batched_gradients():
    rng = np.random.default_rng(11)
    a = Tensor(rng.normal(size=(3, 2, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 5)), requires_grad=True)

    def build_loss():
        return sum_all(ad.tanh(matmul(a, b)))

    assert check_gradients(build_loss, [a, b]) < 1e-6


def _affine_run(op, x_shape, trainable):
    """Output and input gradients of op(x, w, b) under a tanh-and-mix loss,
    from fixed seeded values; `trainable` names the inputs that take grads."""
    rng = np.random.default_rng(23)
    x, w, b = (Tensor(rng.normal(size=shape), requires_grad=name in trainable)
               for name, shape in (("x", x_shape), ("w", (x_shape[-1], 5)), ("b", (5,))))
    mix = Tensor(rng.normal(size=x_shape[:-1] + (5,)))
    with Tape() as tape:
        out = op(x, w, b)
        loss = sum_all(mul(ad.tanh(out), mix))
    backward(tape, loss)
    return out.data, [t.grad for t in (x, w, b)], [n.op for n in tape.nodes]


@pytest.mark.parametrize("x_shape", [(3, 4), (2, 3, 4)])
@pytest.mark.parametrize("trainable", ["xwb", "x", "w", "b", "wb"])
def test_affine_bitwise_equals_matmul_add(x_shape, trainable):
    out, grads, ops = _affine_run(ad.affine, x_shape, trainable)
    ref_out, ref_grads, _ = _affine_run(lambda x, w, b: add(matmul(x, w), b),
                                        x_shape, trainable)
    assert ops[0] == "affine" and ops.count("affine") == 1
    assert np.array_equal(out, ref_out)
    for name, g, ref in zip("xwb", grads, ref_grads):
        if name in trainable:
            assert g.shape == ref.shape and np.array_equal(g, ref), name
        else:
            assert g is None and ref is None, name


def test_affine_gradients_match_finite_differences():
    rng = np.random.default_rng(29)
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=(5,)), requires_grad=True)
    mix = Tensor(rng.normal(size=(2, 3, 5)))
    assert check_gradients(lambda: sum_all(mul(ad.tanh(ad.affine(x, w, b)), mix)),
                           [x, w, b]) < 1e-6


def test_affine_shape_errors():
    w, b = Tensor(np.zeros((4, 5))), Tensor(np.zeros(5))
    with pytest.raises(ShapeError, match=r"x \(3, 6\), w \(4, 5\)"):
        ad.affine(Tensor(np.zeros((3, 6))), w, b)
    with pytest.raises(ShapeError, match=r">=2-D input.*\(4,\)"):
        ad.affine(Tensor(np.zeros(4)), w, b)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shapes and bytes: unlike array_equal, tells -0.0 from 0.0."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _temporal_run(op, x_shape, trainable):
    """Output, x and w gradients and tape ops of op(x, w) under a tanh-and-mix
    loss. One feature's column of the mix is -0.0, so the rule that op records
    receives signed zeros."""
    rng = np.random.default_rng(37)
    x = Tensor(rng.normal(size=x_shape), requires_grad="x" in trainable)
    w = Tensor(rng.normal(size=(x_shape[-2], 4)), requires_grad="w" in trainable)
    mix = rng.normal(size=x_shape[:-2] + (4, x_shape[-1]))
    mix[..., 1] = -0.0
    with Tape() as tape:
        out = op(x, w)
        loss = sum_all(mul(ad.tanh(out), Tensor(mix)))
    backward(tape, loss)
    return out.data, [x.grad, w.grad], [n.op for n in tape.nodes]


@pytest.mark.parametrize("x_shape", [(6, 3), (2, 6, 3)])
@pytest.mark.parametrize("trainable", ["xw", "x", "w"])
def test_temporal_bitwise_equals_swap_matmul_swap(x_shape, trainable):
    out, grads, ops = _temporal_run(ad.temporal, x_shape, trainable)
    composite = lambda x, w: ad.swap_last_axes(matmul(ad.swap_last_axes(x), w))
    ref_out, ref_grads, ref_ops = _temporal_run(composite, x_shape, trainable)
    assert ops[0] == "temporal" and "swap" not in ops and "matmul" not in ops
    assert "matmul" in ref_ops and "temporal" not in ref_ops
    assert out.shape == x_shape[:-2] + (4, 3) and _same_bits(out, ref_out)
    for name, g, ref in zip("xw", grads, ref_grads):
        if name in trainable:
            assert g is not None and _same_bits(g, ref), name
        else:
            assert g is None and ref is None, name


def test_temporal_gradients_match_finite_differences():
    rng = np.random.default_rng(39)
    x = Tensor(rng.normal(size=(2, 5, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    mix = Tensor(rng.normal(size=(2, 4, 3)))
    assert check_gradients(lambda: sum_all(mul(ad.tanh(ad.temporal(x, w)), mix)), [x, w]) < 1e-6


def test_temporal_shape_errors():
    w = Tensor(np.zeros((5, 4)))
    with pytest.raises(ShapeError, match=r"temporal shapes.*x \(2, 6, 3\).*w \(5, 4\)"):
        ad.temporal(Tensor(np.zeros((2, 6, 3))), w)  # 6 steps against weights for 5
    for x, w in [(Tensor(np.zeros(5)), w), (Tensor(np.zeros((5, 3))), Tensor(np.zeros(5)))]:
        with pytest.raises(ShapeError, match="temporal shapes"):
            ad.temporal(x, w)


def test_softmax_uniform_and_ratio():
    out = ad.softmax(Tensor([0.0, 0.0, 0.0, 0.0]))
    assert np.allclose(out.data, 0.25, atol=1e-15)
    out = ad.softmax(Tensor([np.log(1.0), np.log(3.0)]))
    assert out.data == pytest.approx([0.25, 0.75], abs=1e-12)


def test_softmax_extreme_values_match_high_precision():
    out = ad.softmax(Tensor([1000.0, 0.0])).data
    with mpmath.workdps(60):
        e0 = mpmath.exp(mpmath.mpf(1000))
        expected0 = float(e0 / (e0 + 1))
        expected1 = float(1 / (e0 + 1))
    assert out[0] == pytest.approx(expected0, abs=1e-15)
    assert out[1] == pytest.approx(expected1, abs=1e-15)
    assert np.all(np.isfinite(out))


def test_softmax_rejects_nan():
    with pytest.raises(DomainError):
        ad.softmax(Tensor([np.nan, 0.0]))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=2, max_size=8))
def test_softmax_slices_sum_to_one(values):
    out = ad.softmax(Tensor(values)).data
    assert abs(out.sum() - 1.0) < 1e-12
    assert np.all(out >= 0.0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-30, 30), min_size=2, max_size=6), st.randoms())
def test_softmax_permutation_equivariant(values, rnd):
    perm = list(range(len(values)))
    rnd.shuffle(perm)
    direct = ad.softmax(Tensor([values[i] for i in perm])).data
    permuted = ad.softmax(Tensor(values)).data[perm]
    assert np.allclose(direct, permuted, atol=1e-15)


def test_elementwise_values():
    assert sigmoid(Tensor([0.0])).data[0] == pytest.approx(0.5)
    assert ad.tanh(Tensor([0.0])).data[0] == 0.0
    assert add(Tensor([1.0]), Tensor([2.0])).data[0] == 3.0
    assert sub(Tensor([1.0]), Tensor([2.0])).data[0] == -1.0
    assert mul(Tensor([3.0]), Tensor([2.0])).data[0] == 6.0
    assert scale(Tensor([3.0]), -2.0).data[0] == -6.0


def test_sigmoid_saturates_without_overflow():
    out = sigmoid(Tensor([-1000.0, 1000.0])).data
    assert out[0] == 0.0 and out[1] == 1.0


def _masked_sigmoid(d):
    """The earlier sign-split form of ad._sigmoid, kept as its oracle."""
    out = np.empty_like(d)
    pos = d >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    ez = np.exp(d[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@pytest.mark.parametrize("shape", [(1, 440), (8, 440), (32, 128), (3, 7)])
def test_sigmoid_bitwise_equals_masked_form(shape):
    rng = np.random.default_rng(sum(shape))
    edges = np.array([0.0, -0.0, 745.5, -745.5, 1e308, -1e308, 36.0, -36.0, 1e-300, -1e-300])
    # One buffer set serves every scale, as one lstm_layer call's steps share
    # theirs, so a value left over from an earlier call would show.
    out, e = np.empty(shape), np.empty(shape)
    for spread in (1e-8, 0.5, 3.0, 40.0, 800.0):
        d = rng.normal(0.0, spread, shape)
        d.flat[:edges.size] = edges
        want = _masked_sigmoid(d)
        got = ad._sigmoid(d, out, e)
        assert got is out and got.shape == shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        in_place = d.copy()
        ad._sigmoid(in_place, in_place, e)
        assert np.array_equal(in_place.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_check_finite_names_the_op(bad):
    data = np.zeros((3, 4))
    ad._check_finite("ok", data)
    data[1, 2] = bad
    with pytest.raises(NumericsError, match="'lstm'"):
        ad._check_finite("lstm", data)


def test_sigmoid_gradient_matches_finite_differences():
    x = Tensor([1.0], requires_grad=True)

    def build_loss():
        return sum_all(sigmoid(x))

    with Tape() as tape:
        loss = build_loss()
    backward(tape, loss)
    analytic = x.grad.copy()
    numeric = numeric_gradient(lambda: build_loss().item(), x.data)
    assert max_relative_error(analytic, numeric) < 1e-7


def test_binary_op_shape_error():
    with pytest.raises(ShapeError):
        add(Tensor(np.zeros(3)), Tensor(np.zeros(4)))


def test_broadcast_add_gradient_sums_over_batch():
    bias = Tensor(np.zeros(3), requires_grad=True)
    x = Tensor(np.ones((4, 3)))
    with Tape() as tape:
        loss = sum_all(add(x, bias))
    backward(tape, loss)
    assert np.array_equal(bias.grad, np.full(3, 4.0))


def test_concat_examples():
    out = concat(Tensor([1.0, 2.0]), Tensor([3.0]), axis=0)
    assert np.array_equal(out.data, [1.0, 2.0, 3.0])
    out = concat(Tensor(np.zeros((2, 3))), Tensor(np.ones((2, 2))), axis=1)
    assert out.data.shape == (2, 5)
    with pytest.raises(ShapeError):
        concat(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))), axis=1)


def test_concat_gradient_routes_slices():
    a = Tensor([1.0, 2.0], requires_grad=True)
    b = Tensor([3.0], requires_grad=True)
    with Tape() as tape:
        loss = sum_all(concat(a, b, axis=0))
    backward(tape, loss)
    assert np.array_equal(a.grad, [1.0, 1.0])
    assert np.array_equal(b.grad, [1.0])


def test_stack_gradients_match_finite_differences():
    rng = np.random.default_rng(8)
    parts = [Tensor(rng.normal(size=(2, 3)), requires_grad=True) for _ in range(4)]
    mix = Tensor(rng.normal(size=(2, 4, 3)))
    out = ad.stack(parts, axis=1)
    assert np.array_equal(out.data, np.stack([p.data for p in parts], axis=1))
    assert check_gradients(lambda: sum_all(mul(ad.stack(parts, axis=1), mix)),
                           parts) < 1e-6


def test_stack_with_mixed_requires_grad_routes_only_to_trainable_inputs():
    a = Tensor([1.0, 2.0], requires_grad=True)
    b = Tensor([3.0, 4.0])
    c = Tensor([5.0, 6.0], requires_grad=True)
    weights = Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    with Tape() as tape:
        out = ad.stack([a, b, c])
        loss = sum_all(mul(out, weights))
    assert out.requires_grad and [n.op for n in tape.nodes] == ["stack", "mul", "sum"]
    backward(tape, loss)
    assert np.array_equal(a.grad, [1.0, 2.0])
    assert b.grad is None
    assert np.array_equal(c.grad, [5.0, 6.0])
    with Tape() as tape:
        assert not ad.stack([b, Tensor([0.0, 0.0])]).requires_grad
    assert len(tape) == 0


def test_stack_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 4\)"):
        ad.stack([Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4)))], axis=1)


def test_backward_sum_gives_ones():
    x = Tensor(np.zeros((2, 3)), requires_grad=True)
    with Tape() as tape:
        loss = sum_all(x)
    backward(tape, loss)
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_backward_square_example():
    x = Tensor([2.0, 3.0], requires_grad=True)
    with Tape() as tape:
        loss = sum_all(mul(x, x))
    backward(tape, loss)
    assert np.array_equal(x.grad, [4.0, 6.0])


def test_backward_fanout_accumulates():
    x = Tensor([1.5], requires_grad=True)
    with Tape() as tape:
        loss = sum_all(add(x, x))
    backward(tape, loss)
    assert np.array_equal(x.grad, [2.0])


def test_backward_rejects_nonscalar_loss():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        y = mul(x, x)
    with pytest.raises(ContractError):
        backward(tape, y)


def _backward_through(inputs, rule):
    """Backward from a scalar loss through one hand-recorded node whose
    rule returns rule(loss gradient), one contribution per input."""
    loss = Tensor(np.zeros(()), requires_grad=True)
    tape = Tape()
    tape.nodes.append(ad.Node("by_hand", tuple(inputs), loss, rule))
    backward(tape, loss)


@pytest.mark.parametrize("share", ["same_array", "views_of_one_array"])
def test_backward_copies_a_first_contribution_shared_by_two_inputs(share):
    a, b = (Tensor(np.ones((2, 3)), requires_grad=True) for _ in range(2))
    given = np.arange(6.0).reshape(2, 3)
    contributions = (given, given) if share == "same_array" else (given[:], given.reshape(2, 3))
    _backward_through((a, b), lambda g: contributions)
    assert not np.shares_memory(a.grad, b.grad)
    assert not np.shares_memory(a.grad, given) and not np.shares_memory(b.grad, given)
    a.grad += 10.0
    assert np.array_equal(b.grad, np.arange(6.0).reshape(2, 3))
    assert np.array_equal(given, np.arange(6.0).reshape(2, 3))
    assert np.array_equal(a.grad, given + 10.0)


def test_backward_first_contribution_of_minus_zero_equals_the_added_one():
    # zeros + (-0.0) is +0.0 while a copy keeps -0.0: equal values, other bytes.
    contribution = np.array([-0.0, 1.5, -2.0])
    a = Tensor(np.ones(3), requires_grad=True)
    _backward_through((a,), lambda g: (contribution,))
    assert np.array_equal(a.grad, np.zeros(3) + contribution)
    assert np.signbit(a.grad[0])


def test_backward_broadcast_contribution_accumulates_through_the_add_path():
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    row = np.array([1.0, -2.0, 0.5])
    _backward_through((a, a), lambda g: (row, row.reshape(1, 3)))
    assert a.grad.shape == (2, 3)
    assert np.array_equal(a.grad, np.tile(row + row, (2, 1)))
    # a buffer that exists already is added to in place, as between batches
    held = a.grad
    _backward_through((a,), lambda g: (np.ones((2, 3)),))
    assert a.grad is held and np.array_equal(held, np.tile(row + row, (2, 1)) + 1.0)


def test_slice_gradients():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    with Tape() as tape:
        part = slice_axis(x, 1, 1, 3)
        loss = sum_all(part)
    backward(tape, loss)
    assert np.array_equal(x.grad, [[0, 1, 1], [0, 1, 1]])


def test_clamped_log_floor_and_gradient():
    x = Tensor([0.0, 0.5], requires_grad=True)
    out = clamped_log(x, 1e-9)
    assert out.data[0] == pytest.approx(np.log(1e-9))
    with Tape() as tape:
        loss = sum_all(clamped_log(x, 1e-9))
    backward(tape, loss)
    assert x.grad[0] == 0.0  # clamp region has no gradient
    assert x.grad[1] == pytest.approx(2.0)


def test_numerics_guard_raises_on_overflow():
    big = Tensor([1e200])
    with pytest.raises(NumericsError):
        mul(mul(big, big), big)


def test_no_tape_means_no_recording():
    x = Tensor([1.0], requires_grad=True)
    y = mul(x, x)
    assert y.data[0] == 1.0
    with Tape() as tape:
        mul(x, x)
    assert len(tape) == 1


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


def test_sgd_zero_momentum_is_plain_sgd():
    p = Tensor([1.0], requires_grad=True)
    p.ensure_grad()[...] = 0.5
    opt = SgdNesterov([p], learning_rate=0.1, momentum=0.0)
    opt.step()
    assert p.data[0] == pytest.approx(0.95)


def test_sgd_nesterov_matches_scripted_recurrence():
    # Independent simulation of v <- mu v - lr g; theta <- theta + mu v - lr g
    # on f(theta) = theta^2 / 2 (so g = theta), checking the trajectory and
    # that f strictly decreases over the first steps.
    lr, mu = 0.1, 0.75
    theta_ref, v_ref = 1.0, 0.0
    trajectory = []
    for _ in range(4):
        g = theta_ref
        v_ref = mu * v_ref - lr * g
        theta_ref = theta_ref + mu * v_ref - lr * g
        trajectory.append(theta_ref)

    p = Tensor([1.0], requires_grad=True)
    opt = SgdNesterov([p], learning_rate=lr, momentum=mu)
    values = [0.5 * p.data[0] ** 2]
    for step in range(4):
        p.zero_grad()
        p.ensure_grad()[...] = p.data
        opt.step()
        assert p.data[0] == pytest.approx(trajectory[step], abs=1e-15)
        values.append(0.5 * p.data[0] ** 2)
    assert values[1] < values[0] and values[2] < values[1]


def test_sgd_zero_gradient_is_fixed_point():
    p = Tensor([3.0], requires_grad=True)
    p.ensure_grad()
    opt = SgdNesterov([p], learning_rate=0.1, momentum=0.75)
    opt.step()
    opt.step()
    assert p.data[0] == 3.0


def test_sgd_missing_gradient_is_contract_error():
    p = Tensor([1.0], requires_grad=True)
    opt = SgdNesterov([p], learning_rate=0.1, momentum=0.5)
    with pytest.raises(ContractError):
        opt.step()


def test_sgd_velocity_retained_across_calls():
    p = Tensor([0.0], requires_grad=True)
    opt = SgdNesterov([p], learning_rate=0.1, momentum=0.5)
    p.ensure_grad()[...] = 1.0
    opt.step()
    first = p.data[0]
    p.zero_grad()  # no new gradient signal, momentum keeps moving
    p.ensure_grad()
    opt.step()
    assert p.data[0] != first


def test_identical_seeds_identical_trajectories():
    def run():
        rng = np.random.default_rng(77)
        p = Tensor(rng.normal(size=4), requires_grad=True)
        opt = SgdNesterov([p], learning_rate=0.05, momentum=0.75)
        for _ in range(10):
            with Tape() as tape:
                loss = sum_all(mul(p, p))
            backward(tape, loss)
            opt.step()
            opt.zero_grad()
        return p.data.copy()

    assert np.array_equal(run(), run())


# ---------------------------------------------------------------------------
# One-step lstm_layer (the LSTM cell) and gradient release
# ---------------------------------------------------------------------------


def _composite_lstm_cell(x, h, c, w_x, w_h, bias):
    """The LSTM step as separate primitive nodes, the reference for one-step
    lstm_layer."""
    u = c.shape[-1]
    pre = add(add(matmul(x, w_x), matmul(h, w_h)), bias)
    i = sigmoid(slice_axis(pre, -1, 0, u))
    f = sigmoid(slice_axis(pre, -1, u, 2 * u))
    g = ad.tanh(slice_axis(pre, -1, 2 * u, 3 * u))
    o = sigmoid(slice_axis(pre, -1, 3 * u, 4 * u))
    c_next = add(mul(f, c), mul(i, g))
    return mul(o, ad.tanh(c_next)), c_next


def _cell_inputs(x_grad: bool):
    rng = np.random.default_rng(31)
    batch, width, units = 3, 4, 5
    shapes = [(batch, width), (batch, units), (batch, units),
              (width, 4 * units), (units, 4 * units), (4 * units,)]
    arrays = [rng.normal(scale=1.5, size=s) for s in shapes]
    mix_h, mix_c = rng.normal(size=(batch, units)), rng.normal(size=(batch, units))
    tensors = [Tensor(a, requires_grad=(k > 0 or x_grad)) for k, a in enumerate(arrays)]
    return tensors, mix_h, mix_c


def _seq_and_c(outputs):
    """h_seq and the last c of lstm_layer's (h_seq, h_last, c_last), or of a
    composite's (h, c)."""
    return outputs[0], outputs[-1]


def _run_cell(cell, loss_kind: str, x_grad: bool):
    inputs, mix_h, mix_c = _cell_inputs(x_grad)
    x, h, c, w_x, w_h, bias = inputs
    with Tape() as tape:
        h2, c2 = _seq_and_c(cell(x, h, c, w_x, w_h, bias))
        if loss_kind == "chain":  # a second step consumes both outputs
            h2, c2 = _seq_and_c(cell(x, h2, c2, w_x, w_h, bias))
        terms = []
        if loss_kind in ("both", "h", "chain"):
            terms.append(sum_all(mul(h2, Tensor(mix_h))))
        if loss_kind in ("both", "c"):
            terms.append(sum_all(mul(c2, Tensor(mix_c))))
        loss = terms[0] if len(terms) == 1 else add(terms[0], terms[1])
    backward(tape, loss)
    return h2.data, c2.data, [t.grad for t in inputs], len(tape)


@pytest.mark.parametrize("x_grad", [True, False])
@pytest.mark.parametrize("loss_kind", ["both", "h", "c", "chain"])
def test_lstm_cell_bitwise_equals_composite(loss_kind, x_grad):
    h_ref, c_ref, grads_ref, nodes_ref = _run_cell(_composite_lstm_cell, loss_kind, x_grad)
    h_new, c_new, grads_new, nodes_new = _run_cell(ad.lstm_layer, loss_kind, x_grad)
    assert h_new.shape == c_new.shape == (3, 5)
    assert np.array_equal(h_new, h_ref)
    assert np.array_equal(c_new, c_ref)
    for name, ref, new in zip(("x", "h", "c", "w_x", "w_h", "bias"), grads_ref, grads_new):
        if name == "x" and not x_grad:
            assert ref is None and new is None
            continue
        assert ref is not None and new is not None, name
        assert np.array_equal(new, ref), name
    steps = 2 if loss_kind == "chain" else 1
    assert nodes_ref - nodes_new == 16 * steps  # one node replaces seventeen


def test_lstm_cell_gradients_match_finite_differences():
    inputs, mix_h, mix_c = _cell_inputs(x_grad=True)

    def build_loss():
        h2, _, c2 = ad.lstm_layer(*inputs)
        return add(sum_all(mul(h2, Tensor(mix_h))),
                      sum_all(mul(c2, Tensor(mix_c))))

    assert check_gradients(build_loss, inputs) < 1e-6


def test_lstm_cell_overflow_names_lstm():
    inputs, _, _ = _cell_inputs(x_grad=False)
    inputs[0].data[...] = 1e300
    inputs[3].data[...] = 1e300
    with pytest.raises(NumericsError, match="lstm"):
        ad.lstm_layer(*inputs)


def test_lstm_cell_shape_errors():
    inputs, _, _ = _cell_inputs(x_grad=False)
    bad_x = [Tensor(np.zeros((3, 7)))] + inputs[1:]
    with pytest.raises(ShapeError, match=r"x \(3, 7\)"):
        ad.lstm_layer(*bad_x)
    bad_c = inputs[:2] + [Tensor(np.zeros((6, 5)))] + inputs[3:]
    with pytest.raises(ShapeError, match=r"c0 \(6, 5\)"):
        ad.lstm_layer(*bad_c)
    bad_rows = [Tensor(np.zeros((4, 4)))] + inputs[1:]  # batch 4 against a state of 3
    with pytest.raises(ShapeError, match=r"x \(4, 4\), h0 \(3, 5\)"):
        ad.lstm_layer(*bad_rows)
    for shape in [(4,), (3, 1, 1, 4)]:
        with pytest.raises(ShapeError, match="lstm_layer needs"):
            ad.lstm_layer(Tensor(np.zeros(shape)), *inputs[1:])


def test_lstm_cell_untaped_equals_taped():
    inputs, _, _ = _cell_inputs(x_grad=True)
    free = ad.lstm_layer(*inputs)
    with Tape() as tape:
        taped = ad.lstm_layer(*inputs)
    assert [n.op for n in tape.nodes] == ["lstm_layer"]
    for a, b in zip(free, taped):
        assert np.array_equal(a.data, b.data)


def test_backward_releases_intermediate_gradients():
    rng = np.random.default_rng(8)
    (x, h, c, w_x, w_h, bias), mix_h, _ = _cell_inputs(x_grad=True)
    head = Tensor(rng.normal(size=(5, 2)), requires_grad=True)
    params = [w_x, w_h, bias, head]
    with Tape() as tape:
        h2, _, c2 = ad.lstm_layer(x, h, c, w_x, w_h, bias)
        h3, _, _ = ad.lstm_layer(x, h2, c2, w_x, w_h, bias)
        loss = sum_all(ad.tanh(matmul(h3, head)))
    backward(tape, loss)
    for p in params:
        assert p.grad is not None
    for leaf in (x, h, c):
        assert leaf.grad is not None
    assert loss.grad is not None and float(loss.grad) == 1.0
    intermediates = [n.output for n in tape.nodes] + [t for n in tape.nodes for t in n.aux]
    assert len(intermediates) == len(tape) + 4
    for t in intermediates:
        if t is not loss:
            assert t.grad is None


# ---------------------------------------------------------------------------
# Sequence LSTM layer and fused attention
# ---------------------------------------------------------------------------


def _close(new, ref, rel: float = 1e-12) -> bool:
    """Equal up to summation-order rounding, relative to the array's scale."""
    return float(np.abs(new - ref).max()) <= rel * max(1.0, float(np.abs(ref).max()))


def _chain_lstm_layer(x, h0, c0, w_x, w_h, bias):
    """The layer as one composite cell per step, the reference for lstm_layer."""
    batch, steps, width = x.shape
    h, c, seq = h0, c0, None
    for t in range(steps):
        x_t = reshape(slice_axis(x, 1, t, t + 1), (batch, width))
        h, c = _composite_lstm_cell(x_t, h, c, w_x, w_h, bias)
        h_t = reshape(h, (batch, 1, h.shape[-1]))
        seq = h_t if seq is None else concat(seq, h_t, axis=1)
    return seq, c


def _layer_inputs(x_grad: bool, width: int = 4, units: int = 5, steps: int = 6, seed: int = 41):
    rng = np.random.default_rng(seed)
    batch = 3
    shapes = [(batch, steps, width), (batch, units), (batch, units),
              (width, 4 * units), (units, 4 * units), (4 * units,)]
    arrays = [rng.normal(scale=1.2, size=s) for s in shapes]
    return [Tensor(a, requires_grad=(k > 0 or x_grad)) for k, a in enumerate(arrays)]


def _run_layers(op, loss_kind: str, x_grad: bool, depth: int = 1):
    """h_seq, last c and every input's gradient of `depth` stacked layers."""
    rng = np.random.default_rng(7)
    inputs = _layer_inputs(x_grad)
    x = inputs[0]
    upper = _layer_inputs(True, width=5, seed=42)[1:]  # the second layer's h0 .. bias
    mix_h = rng.normal(size=(3, 6, 5))
    mix_c = rng.normal(size=(3, 5))
    with Tape() as tape:
        seq, c = _seq_and_c(op(*inputs))
        if depth == 2:
            seq, c = _seq_and_c(op(seq, *upper))
        terms = []
        if loss_kind in ("both", "h"):
            terms.append(sum_all(mul(seq, Tensor(mix_h))))
        if loss_kind in ("both", "c"):
            terms.append(sum_all(mul(c, Tensor(mix_c))))
        loss = terms[0] if len(terms) == 1 else add(terms[0], terms[1])
    backward(tape, loss)
    grads = [t.grad for t in inputs] + ([t.grad for t in upper] if depth == 2 else [])
    return seq.data, c.data, grads, tape


@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("x_grad", [True, False])
@pytest.mark.parametrize("loss_kind", ["both", "h", "c"])
def test_lstm_layer_matches_chain_of_cells(loss_kind, x_grad, depth):
    h_ref, c_ref, grads_ref, _ = _run_layers(_chain_lstm_layer, loss_kind, x_grad, depth)
    h_new, c_new, grads_new, tape = _run_layers(ad.lstm_layer, loss_kind, x_grad, depth)
    assert sum(n.op == "lstm_layer" for n in tape.nodes) == depth
    assert h_new.shape == h_ref.shape == (3, 6, 5)
    assert _close(h_new, h_ref, 1e-14) and _close(c_new, c_ref, 1e-14)
    names = ["x", "h0", "c0", "w_x", "w_h", "bias"] + ["h0'", "c0'", "w_x'", "w_h'", "bias'"]
    for name, ref, new in zip(names, grads_ref, grads_new):
        if name == "x" and not x_grad:
            assert ref is None and new is None
            continue
        assert ref is not None and new is not None, name
        assert _close(new, ref), name


def test_lstm_layer_gradients_match_finite_differences():
    inputs = _layer_inputs(x_grad=True, steps=4)
    rng = np.random.default_rng(3)
    mix_h, mix_c = rng.normal(size=(3, 4, 5)), rng.normal(size=(3, 5))

    def build_loss():
        seq, _, c = ad.lstm_layer(*inputs)
        return add(sum_all(mul(seq, Tensor(mix_h))),
                      sum_all(mul(c, Tensor(mix_c))))

    assert check_gradients(build_loss, inputs) < 1e-6


def test_lstm_layer_forward_only_projects_in_chunks_with_equal_values():
    # More steps than one projection chunk, with a partial last chunk.
    steps = 2 * ad._PROJECTION_CHUNK + 5
    inputs = _layer_inputs(x_grad=False, steps=steps)
    free = ad.lstm_layer(*inputs)
    with Tape() as tape:
        taped = ad.lstm_layer(*inputs)
    assert len(tape) == 1
    for a, b in zip(free, taped):
        assert np.array_equal(a.data, b.data)


def _overflow_inputs(case: str):
    if case == "every_step":
        inputs = _layer_inputs(x_grad=False)
        inputs[0].data[...] = 1e300
        inputs[3].data[...] = 1e300
    elif case == "late_step":
        # Only one step past the first projection chunk overflows. Its gates
        # then saturate to 1 and c, h stay finite, so only that step's check
        # can see it.
        late = ad._PROJECTION_CHUNK + 8
        inputs = _layer_inputs(x_grad=False, steps=late + 5)
        inputs[0].data[:, late] = 1e300
        inputs[3].data[...] = 1e300
    else:  # a one-step call, whose pre-activation does not read c0; only the
        # checks after the loop see it. An infinite c leaves h = o*tanh(c) finite.
        inputs = _layer_inputs(x_grad=False)
        inputs[0] = Tensor(inputs[0].data[:, 0])
        inputs[2].data[1, 3] = np.nan if case == "nan_c0" else np.inf
    return inputs


@pytest.mark.parametrize("case", ["every_step", "late_step", "nan_c0", "inf_c0"])
@pytest.mark.parametrize("taped", [False, True], ids=["untaped", "taped"])
def test_lstm_layer_overflow_names_lstm(taped, case):
    inputs = _overflow_inputs(case)
    with pytest.raises(NumericsError, match="'lstm_layer'"):
        if taped:
            with Tape():
                ad.lstm_layer(*inputs)
        else:
            ad.lstm_layer(*inputs)


def test_lstm_layer_shape_errors_and_single_backward():
    inputs = _layer_inputs(x_grad=False)
    with pytest.raises(ShapeError):
        ad.lstm_layer(Tensor(np.zeros((3, 6, 7))), *inputs[1:])
    with pytest.raises(ShapeError):
        ad.lstm_layer(inputs[0], Tensor(np.zeros((2, 5))), *inputs[2:])
    with Tape() as tape:
        seq, _, _ = ad.lstm_layer(*inputs)
        loss = sum_all(seq)
    backward(tape, loss)
    with pytest.raises(ContractError, match="twice"):
        backward(tape, loss)


def _last_h_loss(inputs, last_h, seq_term: bool):
    """A loss on the layer's last h as read by `last_h(h_seq, h_last)`, plus
    its last c and, if `seq_term`, every step's h; the loss and every input's
    gradient."""
    rng = np.random.default_rng(5)
    for t in inputs:
        t.grad = None
    with Tape() as tape:
        seq, h_last, c = ad.lstm_layer(*inputs)
        loss = add(sum_all(mul(last_h(seq, h_last), Tensor(rng.normal(size=(3, 5))))),
                      sum_all(mul(c, Tensor(rng.normal(size=(3, 5))))))
        if seq_term:
            loss = add(loss, sum_all(mul(seq, Tensor(rng.normal(size=seq.shape)))))
    backward(tape, loss)
    return loss.item(), [t.grad for t in inputs]


@pytest.mark.parametrize("seq_term", [True, False])
@pytest.mark.parametrize("steps", [6, 1])
def test_lstm_layer_last_h_equals_sliced_sequence_bitwise(steps, seq_term):
    inputs = _layer_inputs(x_grad=True, steps=steps)
    one_step = [Tensor(inputs[0].data[:, 0], requires_grad=True)] + inputs[1:]
    for layer_inputs in (inputs, one_step):
        seq, h_last, _ = ad.lstm_layer(*layer_inputs)
        want = seq.data if seq.data.ndim == 2 else seq.data[:, -1]
        assert np.array_equal(h_last.data, want)
        # The slice+reshape composite that the decoder used to read the last h through.
        if seq.data.ndim == 2:
            composite = lambda seq, _: seq
        else:
            composite = lambda seq, _: reshape(slice_axis(seq, 1, steps - 1, steps), (3, 5))
        loss_ref, grads_ref = _last_h_loss(layer_inputs, composite, seq_term)
        loss_new, grads_new = _last_h_loss(layer_inputs, lambda _, h_last: h_last, seq_term)
        assert loss_new == loss_ref
        for name, ref, new in zip(("x", "h0", "c0", "w_x", "w_h", "bias"), grads_ref, grads_new):
            assert np.array_equal(new, ref), name


def _encoder_decoder_graph(split: bool):
    """An encoder lstm_layer whose last h and c seed a one-step decoder call,
    under a loss on the encoder's h sequence and the decoder's h and c, built
    from fresh inputs. Returns every leaf gradient and the gradients that
    reach the decoder's h0 and c0. With `split`, each node runs on its own
    tape: the decoder's h0 and c0 are leaves holding copies of the encoder's
    last h and c, and the encoder is then seeded with their gradients."""
    rng = np.random.default_rng(9)
    enc = _layer_inputs(x_grad=True, steps=5)
    dec = _layer_inputs(x_grad=True, seed=43)
    dec = [Tensor(dec[0].data[:, 0], requires_grad=True)] + dec[3:]  # x, w_x, w_h, bias
    mix_seq, mix_h, mix_c = (Tensor(rng.normal(size=s)) for s in [(3, 5, 5), (3, 5), (3, 5)])
    with Tape() as enc_tape:
        seq, h_last, c_last = ad.lstm_layer(*enc)
    seeds = []
    if split:
        h0, c0 = (Tensor(t.data.copy(), requires_grad=True) for t in (h_last, c_last))
        dec_tape = Tape()
    else:
        h0, c0, dec_tape = h_last, c_last, enc_tape
        rule = enc_tape.nodes[0].grad_fn

        def spy(g_seq, g_h, g_c):  # keeps the gradients the decoder passes on
            seeds.extend(np.copy(g) for g in (g_h, g_c))
            return rule(g_seq, g_h, g_c)

        enc_tape.nodes[0].grad_fn = spy
    with dec_tape:
        h_dec, _, c_dec = ad.lstm_layer(dec[0], h0, c0, *dec[1:])
        loss = add(sum_all(mul(h_dec, mix_h)), sum_all(mul(c_dec, mix_c)))
    if split:
        backward(dec_tape, loss)
        seeds = [h0.grad, c0.grad]
        with enc_tape:
            loss = add(sum_all(mul(h_last, Tensor(h0.grad))),
                          sum_all(mul(c_last, Tensor(c0.grad))))
    with enc_tape:
        loss = add(loss, sum_all(mul(seq, mix_seq)))
    backward(enc_tape, loss)
    return [t.grad for t in enc + dec] + seeds


def test_lstm_layer_reverse_sweeps_of_two_nodes_do_not_alias():
    # The decoder's reverse sweep hands its h0 and c0 gradients from its own
    # scratch to the encoder, whose sweep runs next; every gradient must come
    # out as when each node runs alone on fresh copies.
    joined = _encoder_decoder_graph(split=False)
    alone = _encoder_decoder_graph(split=True)
    names = ["x", "h0", "c0", "w_x", "w_h", "bias", "dec x", "dec w_x", "dec w_h", "dec bias",
             "dec h0", "dec c0"]
    assert len(joined) == len(alone) == len(names)
    for name, a, b in zip(names, joined, alone):
        assert a is not None and b is not None, name
        assert np.array_equal(a, b), name


def _composite_attend(query, w_q, b_q, memory):
    """Attention as reshape/affine/matmul/scale/softmax/matmul/reshape nodes
    over (batch, 1, q) query rows: the composite that the attend node
    reproduces."""
    rows = reshape(query, query.shape[:-1] + (1, query.shape[-1]))
    scores = matmul(ad.affine(rows, w_q, b_q), memory.kp_t)
    scores = scale(scores, 1.0 / math.sqrt(memory.kp_t.shape[-2]))
    out = matmul(ad.softmax(scores), memory.vp)
    return reshape(out, query.shape[:-1] + memory.vp.shape[-1:])


def _read_inputs(joined: bool, lead=(3, 4), seed: int = 12):
    """x, h0, c0, w_x, w_h, bias, w_q, b_q, kp_t, vp of an LSTM layer that
    reads attention keys and values at each step, all taking gradients, and the
    mixes of its loss. x is (batch, in) for one step or (batch, steps, in);
    the query is (x_t, h) when `joined`, else h."""
    rng = np.random.default_rng(seed)
    batch, width, units, key_width, keys = lead[0], 2, 3, 4, 7
    shapes = [lead + (width,), (batch, units), (batch, units), (key_width + width, 4 * units),
              (units, 4 * units), (4 * units,),
              (width + units if joined else units, key_width), (key_width,),
              (batch, key_width, keys), (batch, keys, key_width)]
    inputs = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
    steps = lead[1] if len(lead) == 2 else 1
    mixes = [rng.normal(size=(batch, units)) for _ in range(steps + 1)]  # every h, then c
    return inputs, mixes


def _read_loss(attend, inputs, mixes):
    """The loss of an LSTM layer that reads attention keys and values at
    each step. attend=None runs the fused read, one lstm_layer node;
    otherwise each step is an attend(query, w_q, b_q, memory) context over
    one KeyValueRows memory, followed by a one-step lstm_layer node, each
    input joined by concat nodes, with the loss term of its h recorded right
    after it, where the decoder's head reads it."""
    x, h, c, w_x, w_h, bias, w_q, b_q, kp_t, vp = inputs
    terms = []
    if attend is None:
        seq, _, c = ad.lstm_layer(x, h, c, w_x, w_h, bias, (w_q, b_q, kp_t, vp))
        hs = (seq,) if x.data.ndim == 2 else ad.unstack(seq, axis=1)
        terms = [sum_all(mul(h_t, Tensor(mix))) for h_t, mix in zip(hs, mixes)]
    else:
        memory = KeyValueRows(kp_t, vp)
        for x_t, mix in zip((x,) if x.data.ndim == 2 else ad.unstack(x, axis=1), mixes):
            context = attend(concat(x_t, h) if w_q.shape[0] > h.shape[1] else h, w_q, b_q,
                             memory)
            h, c = ad.lstm_layer(concat(context, x_t), h, c, w_x, w_h, bias)[1:]
            terms.append(sum_all(mul(h, Tensor(mix))))
    loss = terms[0]
    for term in terms[1:] + [sum_all(mul(c, Tensor(mixes[-1])))]:
        loss = add(loss, term)
    return loss


def _read_run(attend, joined: bool, lead=(3, 4)):
    """_read_loss on fresh inputs: the loss, every input's gradient and the
    tape's ops."""
    inputs, mixes = _read_inputs(joined, lead)
    with Tape() as tape:
        loss = _read_loss(attend, inputs, mixes)
    backward(tape, loss)
    return loss.item(), [t.grad for t in inputs], [n.op for n in tape.nodes]


READ_NAMES = ["x", "h0", "c0", "w_x", "w_h", "bias", "w_q", "b_q", "kp_t", "vp"]


def test_attend_matches_composite_over_shared_keys():
    # Four steps read the same keys and values. The fused read equals a
    # chain of attend nodes and one-step cells bitwise, gradients included.
    loss_new, grads_new, ops = _read_run(None, joined=True)
    loss_ref, grads_ref, ops_ref = _read_run(attend, joined=True)
    assert loss_new == loss_ref
    for name, new, ref in zip(READ_NAMES, grads_new, grads_ref):
        assert np.array_equal(new, ref), name
    assert ops.count("lstm_layer") == 1 and ops[0] == "lstm_layer"
    assert "attention" not in ops and "affine" not in ops and "reshape" not in ops
    assert ops_ref.count("attention") == ops_ref.count("lstm_layer") == 4
    # Against the composite, w_q's gradient is one GEMM per step over its
    # query rows where the composite sums per-row outer products, and the key
    # and value gradients are batched GEMMs: the same terms in another order.
    loss_comp, grads_comp, _ = _read_run(_composite_attend, joined=True)
    assert loss_new == loss_comp
    for name, new, ref in zip(READ_NAMES, grads_new, grads_comp):
        if name in ("w_q", "kp_t", "vp"):
            assert _close(new, ref), name
        else:
            assert np.array_equal(new, ref), name


@pytest.mark.parametrize("lead", [(1,), (3,), (32,), (2, 3)])
def test_attend_w_q_gradient_matches_per_row_outer_products(lead):
    # (batch,) runs one step, the self-recurrent decoder's call; (batch,
    # steps) one node over the steps.
    _, grads_new, _ = _read_run(None, joined=True, lead=lead)
    _, grads_ref, _ = _read_run(_composite_attend, joined=True, lead=lead)
    dw_new, db_new = grads_new[6:8]
    assert dw_new.shape == (5, 4)
    assert _close(dw_new, grads_ref[6])
    assert np.array_equal(db_new, grads_ref[7])


def test_attend_gradients_match_finite_differences():
    # Four one-step calls that each read the keys and values, as the
    # self-recurrent decoder makes them.
    inputs, mixes = _read_inputs(joined=True)
    x, rest = inputs[0], inputs[1:]

    def loss():
        h, c = rest[:2]
        for t, mix in enumerate(mixes[:-1]):
            h, c = ad.lstm_layer(Tensor(x.data[:, t]), h, c, *rest[2:5], tuple(rest[5:]))[1:]
            term = sum_all(mul(h, Tensor(mix)))
            total = term if t == 0 else add(total, term)
        return add(total, sum_all(mul(c, Tensor(mixes[-1]))))

    assert check_gradients(loss, rest) < 1e-6


@pytest.mark.parametrize("joined", [True, False], ids=["x_and_h", "h_only"])
def test_lstm_layer_read_gradients_match_finite_differences(joined):
    inputs, mixes = _read_inputs(joined)
    assert check_gradients(lambda: _read_loss(None, inputs, mixes), inputs) < 1e-6


def test_attend_shape_errors():
    (x, h, c, w_x, w_h, bias, w_q, b_q, kp_t, vp), _ = _read_inputs(joined=True)
    for read in [
        (Tensor(np.zeros((6, 4))), b_q, kp_t, vp),     # rows neither (x_t, h) = 5 nor h = 3
        (Tensor(np.zeros((5, 3))), b_q, kp_t, vp),     # width 3 against keys of width 4
        (Tensor(np.zeros((1, 5, 4))), b_q, kp_t, vp),  # weights not 2-D
        (w_q, Tensor(np.zeros(3)), kp_t, vp),
        (w_q, Tensor(np.zeros((1, 4))), kp_t, vp),
        (w_q, b_q, np.zeros((2, 4, 7)), np.zeros((2, 7, 4))),  # batch 2
        (w_q, b_q, np.zeros((4, 7)), np.zeros((7, 4))),  # no batch axis
        (w_q, b_q, kp_t, np.zeros((2, 7, 4))),  # values of batch 2 against keys of batch 3
        (w_q, b_q, kp_t, np.zeros((3, 6, 4))),  # 6 values against 7 keys
        (w_q, b_q, kp_t, np.zeros((3, 8, 4))),  # 8 values against 7 keys
        (w_q, b_q, kp_t, np.zeros((7, 4))),     # values without a batch axis
    ]:
        with pytest.raises(ShapeError, match="lstm_layer read does not fit"):
            ad.lstm_layer(x, h, c, w_x, w_h, bias, read)
    # w_x's rows are the context's, then the input's.
    with pytest.raises(ShapeError, match=r"do not fit: .*w_x \(6, 12\).*context width 5"):
        ad.lstm_layer(x, h, c, w_x, w_h, bias, (w_q, b_q, kp_t, np.zeros((3, 7, 5))))
    with pytest.raises(ShapeError, match=r"do not fit: .*w_x \(2, 12\).*context width 4"):
        ad.lstm_layer(x, h, c, Tensor(w_x.data[4:]), w_h, bias, (w_q, b_q, kp_t, vp))


def test_lstm_layer_read_gives_keys_and_values_made_before_the_tape_their_gradient():
    (x, h, c, w_x, w_h, bias, w_q, b_q, kp_t, vp), _ = _read_inputs(joined=False)

    def read(keys, values):
        return ad.lstm_layer(x, h, c, w_x, w_h, bias, (w_q, b_q, keys, values))

    # Leaf keys and values, made before the tape: the reading node is the
    # only node between them and the loss, and its rule forms their gradient.
    with Tape() as tape:
        loss = sum_all(read(kp_t, vp)[0])
    assert [n.op for n in tape.nodes] == ["lstm_layer", "sum"]
    assert tape.nodes[0].inputs[-2:] == (kp_t, vp)
    backward(tape, loss)
    assert kp_t.grad.shape == kp_t.shape and vp.grad.shape == vp.shape
    assert check_gradients(lambda: sum_all(read(kp_t, vp)[0]), [kp_t, vp]) < 1e-6
    # Constant keys and values take no gradient, and reading outside a tape records nothing.
    for t in (w_q, kp_t, vp):
        t.grad = None
    frozen = Tensor(kp_t.data), Tensor(vp.data)
    with Tape() as tape:
        loss = sum_all(read(*frozen)[0])
    assert [n.op for n in tape.nodes] == ["lstm_layer", "sum"]
    backward(tape, loss)
    assert all(t.grad is None for t in frozen + (kp_t, vp)) and w_q.grad is not None
    assert read(kp_t, vp)[0].shape == (3, 4, 3)


# Input parts: widths, and which part takes a gradient. The no-grad parts
# stand for a teacher-forced step input or the forecast-day weather. The
# reference forward passes join such parts with concat nodes before one
# lstm_layer; these cases pin that the join neither changes the layer's
# outputs nor the gradient each part takes.
PART_CASES = [
    ((3, 2), (True, True)),
    ((3, 2), (True, False)),
    ((2, 3), (False, True)),
    ((1, 2, 2), (False, False, True)),
    ((2, 1, 2), (True, False, True)),
    ((1, 1, 3), (False, False, False)),
]


def _concat_parts(parts):
    """The reference join: a chain of concat nodes, left to right."""
    joined = parts[0]
    for part in parts[1:]:
        joined = concat(joined, part, axis=-1)
    return joined


def _one_tensor(parts):
    """The parts' values as one tensor, trainable if any part is."""
    return Tensor(np.concatenate([p.data for p in parts], axis=-1),
                  requires_grad=any(p.requires_grad for p in parts))


def _part_tensors(rng, lead, widths, grads):
    return [Tensor(rng.normal(size=lead + (w,)), requires_grad=g) for w, g in zip(widths, grads)]


def _run_loss(tape, outputs, rng):
    loss = None
    for out in outputs:
        term = sum_all(mul(out, Tensor(rng.normal(size=out.shape))))
        loss = term if loss is None else add(loss, term)
    backward(tape, loss)


def _lstm_parts_run(join, widths, grads, steps):
    """lstm_layer over join(parts): its outputs, the joined input's gradient
    split back per part, every other input's gradient and the tape's ops.
    steps=None runs one (batch, in) step."""
    rng = np.random.default_rng(51)
    batch, units = 3, 4
    lead = (batch,) if steps is None else (batch, steps)
    parts = _part_tensors(rng, lead, widths, grads)
    rest = [Tensor(rng.normal(size=s), requires_grad=True)
            for s in [(batch, units), (batch, units), (sum(widths), 4 * units),
                      (units, 4 * units), (4 * units,)]]
    with Tape() as tape:
        x = join(parts)
        outputs = ad.lstm_layer(x, *rest)
        _run_loss(tape, outputs, rng)
    return ([o.data for o in outputs], _part_grads(join, parts, x) + [t.grad for t in rest],
            [n.op for n in tape.nodes])


def _attend_parts_run(join, widths, grads):
    """An LSTM layer over two steps of join(parts) that reads keys and
    values with the query (x_t, h), so the input takes gradient through the
    cell's input, after the context, and through the query, before h: the
    outputs, the input's gradient per part, every other input's gradient
    and the tape's ops."""
    rng = np.random.default_rng(52)
    batch, units, width, keys = 3, 4, 4, 6
    parts = _part_tensors(rng, (batch, 2), widths, grads)
    rest = [Tensor(rng.normal(size=s), requires_grad=True)
            for s in [(batch, units), (batch, units), (width + sum(widths), 4 * units),
                      (units, 4 * units), (4 * units,), (sum(widths) + units, width), (width,),
                      (batch, width, keys), (batch, keys, width)]]
    with Tape() as tape:
        x = join(parts)
        outputs = ad.lstm_layer(x, *rest[:5], tuple(rest[5:]))
        _run_loss(tape, outputs, rng)
    return ([o.data for o in outputs], _part_grads(join, parts, x) + [t.grad for t in rest],
            [n.op for n in tape.nodes])


def _part_grads(join, parts, x):
    """Each part's gradient: its own after the concat join, else the slice
    of the one tensor's gradient that holds it."""
    if join is _concat_parts:
        return [p.grad for p in parts]
    bounds = np.cumsum([0] + [p.shape[-1] for p in parts])
    return [None if x.grad is None or not p.requires_grad else x.grad[..., lo:hi]
            for p, lo, hi in zip(parts, bounds[:-1], bounds[1:])]


def _assert_parts_match(new, ref, op: str, nodes: int, part_grads):
    (out_new, grads_new, ops_new), (out_ref, grads_ref, ops_ref) = new, ref
    assert ops_new.count(op) == ops_ref.count(op) == nodes and "concat" not in ops_new
    for a, b in zip(out_new, out_ref):
        assert np.array_equal(a, b)
    assert len(grads_new) == len(grads_ref)
    for k, (a, b) in enumerate(zip(grads_new, grads_ref)):
        assert (a is None) == (b is None), k
        assert a is None or (a.shape == b.shape and np.array_equal(a, b)), k
    for k, g in enumerate(part_grads):  # exactly the trainable parts take one
        assert (grads_ref[k] is None) == (not g), k


@pytest.mark.parametrize("steps", [None, 5], ids=["one_step", "sequence"])
@pytest.mark.parametrize("widths, grads", PART_CASES)
def test_lstm_layer_parts_bitwise_equal_concat_then_one_tensor(widths, grads, steps):
    new = _lstm_parts_run(_one_tensor, widths, grads, steps)
    ref = _lstm_parts_run(_concat_parts, widths, grads, steps)
    _assert_parts_match(new, ref, "lstm_layer", 1, grads)


@pytest.mark.parametrize("widths, grads", PART_CASES)
def test_attend_parts_bitwise_equal_concat_then_one_tensor(widths, grads):
    new = _attend_parts_run(_one_tensor, widths, grads)
    ref = _attend_parts_run(_concat_parts, widths, grads)
    _assert_parts_match(new, ref, "lstm_layer", 1, grads)


def test_inputs_that_do_not_fit_raise_shape_error_naming_them():
    inputs = _layer_inputs(x_grad=False)  # x (3, 6, 4), state (3, 5)
    # A width that does not fit the weights.
    with pytest.raises(ShapeError, match=r"lstm_layer shapes do not fit: x \(3, 6, 5\)"):
        ad.lstm_layer(Tensor(np.zeros((3, 6, 5))), *inputs[1:])
    read = (Tensor(np.zeros((7, 4))), Tensor(np.zeros(4)), np.zeros((3, 4, 7)),
            np.zeros((3, 7, 4)))
    with pytest.raises(ShapeError, match=r"lstm_layer read does not fit: query \(x 5, h 5\)"):
        ad.lstm_layer(Tensor(np.zeros((3, 6, 5))), *inputs[1:], read)
    with pytest.raises(ShapeError, match=r"lstm_layer needs .* got \(3, 0, 4\)"):
        ad.lstm_layer(Tensor(np.zeros((3, 0, 4))), *inputs[1:])
    with pytest.raises(ShapeError, match=r"lstm_layer needs .* got \(\)"):
        ad.lstm_layer(Tensor(np.zeros(())), *inputs[1:])


def test_sequence_op_tapes_are_freed_without_the_cycle_collector():
    inputs = _layer_inputs(x_grad=True)
    read_inputs, mixes = _read_inputs(joined=True)
    gc.disable()
    try:
        with Tape() as tape:
            seq, _, _ = ad.lstm_layer(*inputs)
            loss = add(sum_all(seq), _read_loss(None, read_inputs, mixes))
        backward(tape, loss)
        freed = weakref.ref(tape)
        del tape, loss, seq
        assert freed() is None  # a cycle through a node's rule would keep every step's tape
    finally:
        gc.enable()


def test_sequence_ops_overflow_without_runtime_warnings():
    inputs = _layer_inputs(x_grad=True)
    read_inputs, _ = _read_inputs(joined=True)
    x, h, c, w_x, w_h, bias, w_q, b_q, kp_t, vp = read_inputs
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with Tape() as tape:
            seq, h_last, c_last = ad.lstm_layer(*inputs)
            read = ad.lstm_layer(x, h, c, w_x, w_h, bias, (w_q, b_q, kp_t, vp))
        layer_node, read_node = tape.nodes
        # Rules fed gradients near the float64 limit overflow inside their
        # matmuls, the read's key and value GEMMs included.
        grads = layer_node.grad_fn(*(np.full(t.shape, 1e308) for t in (seq, h_last, c_last)))
        grads += read_node.grad_fn(*(np.full(t.shape, 1e308) for t in read))
        assert not all(np.isfinite(g).all() for g in grads)
        inputs[0].data[...] = 1e300
        inputs[3].data[...] = 1e300
        with pytest.raises(NumericsError, match="lstm"):
            ad.lstm_layer(*inputs)
        # Scores that overflow are caught before the cell's gates.
        with pytest.raises(NumericsError, match="'attention'"):
            ad.lstm_layer(x, h, c, w_x, w_h, bias,
                          (Tensor(np.full(w_q.shape, 1e308)), b_q, kp_t, vp))
