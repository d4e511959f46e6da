"""Core engine tests: forward values, gradients vs central differences,
tape mechanics, and the Nesterov optimizer update rule."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvcast import autodiff as ad
from pvcast.autodiff import SgdNesterov, Tape, Tensor, backward
from pvcast.errors import ContractError, DomainError, NumericsError, ShapeError
from pvcast.gradcheck import check_gradients, max_relative_error, numeric_gradient


def test_matmul_identity():
    eye = Tensor(np.eye(2))
    m = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(ad.matmul(eye, m).data, m.data)


def test_matmul_hand_example():
    out = ad.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert out.data.shape == (1, 1)
    assert out.data[0, 0] == pytest.approx(11.0)


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))


def test_matmul_gradients_match_finite_differences():
    rng = np.random.default_rng(101)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    w = rng.normal(size=(3, 2))  # fixed mixing so the loss is not symmetric

    def build_loss():
        return ad.sum_all(ad.mul(ad.matmul(a, b), Tensor(w)))

    assert check_gradients(build_loss, [a, b]) < 1e-6


def test_matmul_batched_gradients():
    rng = np.random.default_rng(11)
    a = Tensor(rng.normal(size=(3, 2, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 5)), requires_grad=True)

    def build_loss():
        return ad.sum_all(ad.tanh(ad.matmul(a, b)))

    assert check_gradients(build_loss, [a, b]) < 1e-6


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
    assert ad.sigmoid(Tensor([0.0])).data[0] == pytest.approx(0.5)
    assert ad.tanh(Tensor([0.0])).data[0] == 0.0
    assert ad.add(Tensor([1.0]), Tensor([2.0])).data[0] == 3.0
    assert ad.sub(Tensor([1.0]), Tensor([2.0])).data[0] == -1.0
    assert ad.mul(Tensor([3.0]), Tensor([2.0])).data[0] == 6.0
    assert ad.scale(Tensor([3.0]), -2.0).data[0] == -6.0


def test_sigmoid_saturates_without_overflow():
    out = ad.sigmoid(Tensor([-1000.0, 1000.0])).data
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
    edges = np.array([0.0, -0.0, 745.5, -745.5, 1e308, -1e308, 36.0, -36.0, 1e-300])
    for scale in (1e-8, 0.5, 3.0, 40.0, 800.0):
        d = rng.normal(0.0, scale, shape)
        d.flat[:edges.size] = edges
        got = ad._sigmoid(d)
        want = _masked_sigmoid(d)
        assert got.shape == shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


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
        return ad.sum_all(ad.sigmoid(x))

    with Tape() as tape:
        loss = build_loss()
    backward(tape, loss)
    analytic = x.grad.copy()
    numeric = numeric_gradient(lambda: build_loss().item(), x.data)
    assert max_relative_error(analytic, numeric) < 1e-7


def test_binary_op_shape_error():
    with pytest.raises(ShapeError):
        ad.add(Tensor(np.zeros(3)), Tensor(np.zeros(4)))


def test_broadcast_add_gradient_sums_over_batch():
    bias = Tensor(np.zeros(3), requires_grad=True)
    x = Tensor(np.ones((4, 3)))
    with Tape() as tape:
        loss = ad.sum_all(ad.add(x, bias))
    backward(tape, loss)
    assert np.array_equal(bias.grad, np.full(3, 4.0))


def test_concat_examples():
    out = ad.concat(Tensor([1.0, 2.0]), Tensor([3.0]), axis=0)
    assert np.array_equal(out.data, [1.0, 2.0, 3.0])
    out = ad.concat(Tensor(np.zeros((2, 3))), Tensor(np.ones((2, 2))), axis=1)
    assert out.data.shape == (2, 5)
    with pytest.raises(ShapeError):
        ad.concat(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))), axis=1)


def test_concat_gradient_routes_slices():
    a = Tensor([1.0, 2.0], requires_grad=True)
    b = Tensor([3.0], requires_grad=True)
    with Tape() as tape:
        loss = ad.sum_all(ad.concat(a, b, axis=0))
    backward(tape, loss)
    assert np.array_equal(a.grad, [1.0, 1.0])
    assert np.array_equal(b.grad, [1.0])


def test_backward_sum_gives_ones():
    x = Tensor(np.zeros((2, 3)), requires_grad=True)
    with Tape() as tape:
        loss = ad.sum_all(x)
    backward(tape, loss)
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_backward_square_example():
    x = Tensor([2.0, 3.0], requires_grad=True)
    with Tape() as tape:
        loss = ad.sum_all(ad.mul(x, x))
    backward(tape, loss)
    assert np.array_equal(x.grad, [4.0, 6.0])


def test_backward_fanout_accumulates():
    x = Tensor([1.5], requires_grad=True)
    with Tape() as tape:
        loss = ad.sum_all(ad.add(x, x))
    backward(tape, loss)
    assert np.array_equal(x.grad, [2.0])


def test_backward_rejects_nonscalar_loss():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        y = ad.mul(x, x)
    with pytest.raises(ContractError):
        backward(tape, y)


def test_slice_and_stack_gradients():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    with Tape() as tape:
        part = ad.slice_axis(x, 1, 1, 3)
        loss = ad.sum_all(part)
    backward(tape, loss)
    assert np.array_equal(x.grad, [[0, 1, 1], [0, 1, 1]])

    a = Tensor([1.0, 2.0], requires_grad=True)
    b = Tensor([3.0, 4.0], requires_grad=True)
    with Tape() as tape:
        stacked = ad.stack_steps([a, b], axis=0)
        loss = ad.sum_all(ad.mul(stacked, stacked))
    backward(tape, loss)
    assert np.array_equal(a.grad, [2.0, 4.0])
    assert np.array_equal(b.grad, [6.0, 8.0])


def test_clamped_log_floor_and_gradient():
    x = Tensor([0.0, 0.5], requires_grad=True)
    out = ad.clamped_log(x, 1e-9)
    assert out.data[0] == pytest.approx(np.log(1e-9))
    with Tape() as tape:
        loss = ad.sum_all(ad.clamped_log(x, 1e-9))
    backward(tape, loss)
    assert x.grad[0] == 0.0  # clamp region has no gradient
    assert x.grad[1] == pytest.approx(2.0)


def test_numerics_guard_raises_on_overflow():
    big = Tensor([1e200])
    with pytest.raises(NumericsError):
        ad.mul(ad.mul(big, big), big)


def test_no_tape_means_no_recording():
    x = Tensor([1.0], requires_grad=True)
    y = ad.mul(x, x)
    assert y.data[0] == 1.0
    with Tape() as tape:
        ad.mul(x, x)
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
                loss = ad.sum_all(ad.mul(p, p))
            backward(tape, loss)
            opt.step()
            opt.zero_grad()
        return p.data.copy()

    assert np.array_equal(run(), run())


# ---------------------------------------------------------------------------
# Fused LSTM cell and gradient release
# ---------------------------------------------------------------------------


def _composite_lstm_cell(x, h, c, w_x, w_h, bias):
    """The LSTM step as separate primitive nodes, the reference for lstm_cell."""
    u = c.shape[-1]
    pre = ad.add(ad.add(ad.matmul(x, w_x), ad.matmul(h, w_h)), bias)
    i = ad.sigmoid(ad.slice_axis(pre, -1, 0, u))
    f = ad.sigmoid(ad.slice_axis(pre, -1, u, 2 * u))
    g = ad.tanh(ad.slice_axis(pre, -1, 2 * u, 3 * u))
    o = ad.sigmoid(ad.slice_axis(pre, -1, 3 * u, 4 * u))
    c_next = ad.add(ad.mul(f, c), ad.mul(i, g))
    return ad.mul(o, ad.tanh(c_next)), c_next


def _cell_inputs(x_grad: bool):
    rng = np.random.default_rng(31)
    batch, width, units = 3, 4, 5
    shapes = [(batch, width), (batch, units), (batch, units),
              (width, 4 * units), (units, 4 * units), (4 * units,)]
    arrays = [rng.normal(scale=1.5, size=s) for s in shapes]
    mix_h, mix_c = rng.normal(size=(batch, units)), rng.normal(size=(batch, units))
    tensors = [Tensor(a, requires_grad=(k > 0 or x_grad)) for k, a in enumerate(arrays)]
    return tensors, mix_h, mix_c


def _run_cell(cell, loss_kind: str, x_grad: bool):
    inputs, mix_h, mix_c = _cell_inputs(x_grad)
    x, h, c, w_x, w_h, bias = inputs
    with Tape() as tape:
        h2, c2 = cell(x, h, c, w_x, w_h, bias)
        if loss_kind == "chain":  # a second step consumes both outputs
            h2, c2 = cell(x, h2, c2, w_x, w_h, bias)
        terms = []
        if loss_kind in ("both", "h", "chain"):
            terms.append(ad.sum_all(ad.mul(h2, Tensor(mix_h))))
        if loss_kind in ("both", "c"):
            terms.append(ad.sum_all(ad.mul(c2, Tensor(mix_c))))
        loss = terms[0] if len(terms) == 1 else ad.add(terms[0], terms[1])
    backward(tape, loss)
    return h2.data, c2.data, [t.grad for t in inputs], len(tape)


@pytest.mark.parametrize("x_grad", [True, False])
@pytest.mark.parametrize("loss_kind", ["both", "h", "c", "chain"])
def test_lstm_cell_bitwise_equals_composite(loss_kind, x_grad):
    h_ref, c_ref, grads_ref, nodes_ref = _run_cell(_composite_lstm_cell, loss_kind, x_grad)
    h_new, c_new, grads_new, nodes_new = _run_cell(ad.lstm_cell, loss_kind, x_grad)
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
        h2, c2 = ad.lstm_cell(*inputs)
        return ad.add(ad.sum_all(ad.mul(h2, Tensor(mix_h))),
                      ad.sum_all(ad.mul(c2, Tensor(mix_c))))

    assert check_gradients(build_loss, inputs) < 1e-6


def test_lstm_cell_overflow_names_lstm():
    inputs, _, _ = _cell_inputs(x_grad=False)
    inputs[0].data[...] = 1e300
    inputs[3].data[...] = 1e300
    with pytest.raises(NumericsError, match="lstm"):
        ad.lstm_cell(*inputs)


def test_lstm_cell_shape_errors():
    inputs, _, _ = _cell_inputs(x_grad=False)
    bad_x = [Tensor(np.zeros((3, 7)))] + inputs[1:]
    with pytest.raises(ShapeError):
        ad.lstm_cell(*bad_x)
    bad_c = inputs[:2] + [Tensor(np.zeros((6, 5)))] + inputs[3:]
    with pytest.raises(ShapeError):
        ad.lstm_cell(*bad_c)


def test_backward_releases_intermediate_gradients():
    rng = np.random.default_rng(8)
    (x, h, c, w_x, w_h, bias), mix_h, _ = _cell_inputs(x_grad=True)
    head = Tensor(rng.normal(size=(5, 2)), requires_grad=True)
    params = [w_x, w_h, bias, head]
    with Tape() as tape:
        h2, c2 = ad.lstm_cell(x, h, c, w_x, w_h, bias)
        h3, _ = ad.lstm_cell(x, h2, c2, w_x, w_h, bias)
        loss = ad.sum_all(ad.tanh(ad.matmul(h3, head)))
    backward(tape, loss)
    for p in params:
        assert p.grad is not None
    for leaf in (x, h, c):
        assert leaf.grad is not None
    assert loss.grad is not None and float(loss.grad) == 1.0
    intermediates = [n.output for n in tape.nodes] + [n.aux for n in tape.nodes if n.aux]
    assert len(intermediates) == len(tape) + 2
    for t in intermediates:
        if t is not loss:
            assert t.grad is None
