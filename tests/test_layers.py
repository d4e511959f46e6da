"""Layer tests: dense, LSTM, attention, temporal transform, with gradient
checks and the structural invariants each layer must keep."""

import numpy as np
import pytest

from pvcast import autodiff as ad
from pvcast.autodiff import Tensor
from pvcast.errors import ConfigError, ContractError, NumericsError, ShapeError
from pvcast.layers import (AttentionLayer, DenseLayer, LstmLayer,
                           TemporalTransform, attend_projected, dense_forward,
                           lstm_sequence, lstm_step, temporal_transform)

from reference_ops import add, check_gradients, mul, sum_all

RNG = np.random.default_rng(2024)


def _rng():
    return np.random.default_rng(2024)


# ----------------------------------------------------------------- dense ---


def test_dense_identity():
    layer = DenseLayer(3, 3, rng=_rng())
    layer.weights.data[...] = np.eye(3)
    layer.bias.data[...] = 0.0
    x = np.array([[1.0, -2.0, 0.5]])
    assert np.array_equal(dense_forward(layer, Tensor(x)).data, x)


def test_dense_hand_arithmetic():
    layer = DenseLayer(2, 1, rng=_rng())
    layer.weights.data[...] = [[1.0], [1.0]]
    layer.bias.data[...] = [0.5]
    out = dense_forward(layer, Tensor([[1.0, 2.0]]))
    assert out.shape == (1, 1)
    assert out.data[0] == pytest.approx([3.5])


def test_dense_shape_error():
    layer = DenseLayer(3, 2, rng=_rng())
    with pytest.raises(ShapeError):
        dense_forward(layer, Tensor(np.zeros((5, 4))))
    with pytest.raises(ShapeError, match=r"\(3,\)"):  # a 1-D input is no batch
        dense_forward(layer, Tensor(np.zeros(3)))


def test_dense_rejects_an_unknown_activation():
    with pytest.raises(ConfigError, match="sigmoid"):
        DenseLayer(3, 2, activation="sigmoid", rng=_rng())


def test_dense_gradient_matches_finite_differences():
    rng = _rng()
    layer = DenseLayer(4, 3, activation="tanh", rng=rng)
    x = rng.normal(size=(2, 4))
    mix = rng.normal(size=(2, 3))

    def build_loss():
        return sum_all(mul(dense_forward(layer, Tensor(x)), Tensor(mix)))

    params = [p for _, p in layer.parameters()]
    assert check_gradients(build_loss, params) < 1e-6


def test_dense_broadcasts_over_leading_axes():
    layer = DenseLayer(3, 2, rng=_rng())
    out = dense_forward(layer, Tensor(np.zeros((4, 5, 3))))
    assert out.data.shape == (4, 5, 2)


# ------------------------------------------------------------------ lstm ---


def _zeroed_lstm(input_size=2, units=3):
    layer = LstmLayer(input_size, units, rng=_rng())
    layer.w_x.data[...] = 0.0
    layer.w_h.data[...] = 0.0
    layer.bias.data[...] = 0.0
    return layer


def test_lstm_zero_weights_zero_state_fixed_point():
    layer = _zeroed_lstm()
    h, c = layer.initial_state(1)
    h2, c2 = lstm_step(layer, Tensor(np.zeros((1, 2))), (h, c))
    assert np.array_equal(h2.data, np.zeros((1, 3)))
    assert np.array_equal(c2.data, np.zeros((1, 3)))


def test_lstm_forget_gate_retains_memory():
    # Oracle: evaluate the update equations directly with saturated gates.
    layer = _zeroed_lstm(input_size=1, units=1)
    u = 1
    layer.bias.data[...] = [-10.0, 10.0, -10.0, -10.0]  # i, f, g, o biases
    c = Tensor(np.ones((1, u)))
    h = Tensor(np.zeros((1, u)))
    _, c2 = lstm_step(layer, Tensor(np.zeros((1, 1))), (h, c))

    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    expected_c = sig(10.0) * 1.0 + sig(-10.0) * np.tanh(-10.0)
    assert c2.data[0, 0] == pytest.approx(expected_c, abs=1e-12)
    assert c2.data[0, 0] == pytest.approx(1.0, abs=1e-3)


def test_lstm_state_width_mismatch():
    layer = LstmLayer(2, 3, rng=_rng())
    bad = (Tensor(np.zeros((1, 4))), Tensor(np.zeros((1, 4))))
    with pytest.raises(ContractError):
        lstm_step(layer, Tensor(np.zeros((1, 2))), bad)


def test_lstm_step_gradient_matches_finite_differences():
    rng = _rng()
    layer = LstmLayer(3, 2, rng=rng)
    x = rng.normal(size=(1, 3))
    mix = rng.normal(size=(1, 2))

    def build_loss():
        h, c = layer.initial_state(1)
        h2, c2 = lstm_step(layer, Tensor(x), (h, c))
        return sum_all(add(mul(h2, Tensor(mix)), mul(c2, c2)))

    params = [p for _, p in layer.parameters()]
    assert check_gradients(build_loss, params) < 1e-5


def test_lstm_hidden_state_bounded():
    rng = _rng()
    layer = LstmLayer(2, 4, rng=rng)
    h, c = layer.initial_state(1)
    for _ in range(50):
        x = rng.normal(scale=5.0, size=(1, 2))
        h, c = lstm_step(layer, Tensor(x), (h, c))
        assert np.all(np.abs(h.data) < 1.0)


def test_lstm_sequence_matches_steps_and_checks_widths():
    rng = _rng()
    layer = LstmLayer(3, 4, rng=rng)
    x = rng.normal(size=(2, 5, 3))
    h_seq, h_last, c_last = lstm_sequence(layer, Tensor(x))
    h, c = layer.initial_state(2)
    for t in range(5):
        h, c = lstm_step(layer, Tensor(x[:, t]), (h, c))
        assert np.allclose(h_seq.data[:, t], h.data, rtol=0.0, atol=1e-15)
    assert np.allclose(h_last.data, h.data, rtol=0.0, atol=1e-15)
    assert np.allclose(c_last.data, c.data, rtol=0.0, atol=1e-15)
    with pytest.raises(ShapeError):
        lstm_sequence(layer, Tensor(np.zeros((2, 5, 4))))


# ------------------------------------------------------------- attention ---


def _per_query(q, a) -> Tensor:
    """A copy of the (steps, size) array `a` for each row of the (n, q)
    queries: attention pairs every query with its own sequence."""
    a = ad.as_tensor(a).data
    return Tensor(np.broadcast_to(a, (ad.as_tensor(q).shape[0],) + a.shape))


def _read(layer: AttentionLayer, q, k, v) -> tuple[np.ndarray, np.ndarray]:
    """The model's attention read of the (n, q) queries: keys and values
    projected once, then each query row is projected and attends to them
    through autodiff._attend_step, the read lstm_layer makes at each step
    with attend_projected's read. That read first passes lstm_layer's shape
    check, in a one-step layer whose h is the query and whose input is the
    context alone. Returns the (n, steps) weights and the (n, width)
    contexts."""
    q = ad.as_tensor(q)
    read = attend_projected(layer, layer.project_keys_values(_per_query(q, k), _per_query(q, v)))
    n, size = q.shape
    cell = LstmLayer(layer.width, size, rng=_rng())
    ad.lstm_layer(np.zeros((n, 0)), q, np.zeros((n, size)), cell.w_x, cell.w_h, cell.bias, read)
    w_q, b_q, kp_t, vp = read
    with np.errstate(over="ignore", invalid="ignore"):
        _, weights, context = ad._attend_step(q.data, w_q.data, b_q.data, kp_t.data, vp.data)
    return np.squeeze(weights, -2), context


def _attend(layer: AttentionLayer, q, k, v) -> np.ndarray:
    return _read(layer, q, k, v)[1]


def _attention_weights(layer: AttentionLayer, q, k) -> np.ndarray:
    return _read(layer, q, k, k)[0]


def test_attention_single_key_degeneracy():
    rng = _rng()
    layer = AttentionLayer(3, 3, 3, width=2, rng=rng)
    q = rng.normal(size=(4, 3))
    k = rng.normal(size=(1, 3))
    v = rng.normal(size=(1, 3))
    out = _attend(layer, Tensor(q), Tensor(k), Tensor(v))
    projected_v = v @ layer.w_v.weights.data + layer.w_v.bias.data
    assert out.shape == (4, 2)
    for row in out:
        assert row == pytest.approx(projected_v[0], abs=1e-12)


def test_attention_identity_projections_hand_example():
    layer = AttentionLayer(1, 1, 1, width=1, rng=_rng())
    for weights, bias in [(layer.w_q, layer.b_q), (layer.w_k.weights, layer.w_k.bias),
                          (layer.w_v.weights, layer.w_v.bias)]:
        weights.data[...] = np.eye(1)
        bias.data[...] = 0.0
    q = Tensor([[1.0]])
    k = Tensor([[1.0], [-1.0]])
    v = Tensor([[1.0], [0.0]])
    out = _attend(layer, q, k, v)
    weights = _attention_weights(layer, q, k)
    e = np.exp(1.0)
    expected_w = np.array([e, 1.0 / e]) / (e + 1.0 / e)
    assert weights[0] == pytest.approx(expected_w, abs=1e-10)
    assert out[0, 0] == pytest.approx(0.8808, abs=1e-4)


def test_attention_weights_rows_sum_to_one():
    rng = _rng()
    layer = AttentionLayer(5, 4, 4, width=3, rng=rng)
    q, k = rng.normal(size=(6, 5)), rng.normal(size=(9, 4))
    weights = _attention_weights(layer, Tensor(q), Tensor(k))
    assert np.allclose(weights.sum(axis=-1), 1.0, atol=1e-12)


def test_attention_key_value_step_mismatch():
    layer = AttentionLayer(3, 3, 3, width=2, rng=_rng())
    with pytest.raises(ShapeError):
        _attend(layer, Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 3))),
                Tensor(np.zeros((5, 3))))


def test_attention_joint_permutation_of_keys_values_invariant():
    rng = _rng()
    layer = AttentionLayer(3, 4, 4, width=3, rng=rng)
    q = rng.normal(size=(2, 3))
    k = rng.normal(size=(7, 4))
    v = rng.normal(size=(7, 4))
    perm = rng.permutation(7)
    base = _attend(layer, Tensor(q), Tensor(k), Tensor(v))
    permuted = _attend(layer, Tensor(q), Tensor(k[perm]), Tensor(v[perm]))
    assert np.allclose(base, permuted, atol=1e-12)


def test_score_scaling_preserves_argmax():
    rng = _rng()
    scores = rng.normal(size=(3, 6))
    for c in (0.1, 2.0, 17.0):
        a = ad.softmax(Tensor(scores)).data
        b = ad.softmax(Tensor(scores * c)).data
        assert np.array_equal(np.argmax(a, axis=-1), np.argmax(b, axis=-1))


def test_attention_gradient_matches_finite_differences():
    # The attention read inside an LSTM step, as the decoder makes it: the
    # query is (step input, h) and the cell reads (context, step input).
    rng = _rng()
    layer = AttentionLayer(3, 3, 3, width=2, rng=rng)
    cell = LstmLayer(2 + 1, 2, rng=rng)
    q = rng.normal(size=(2, 3))
    kv = rng.normal(size=(4, 3))
    mix = rng.normal(size=(2, 2))

    def build_loss():
        keys_values = layer.project_keys_values(_per_query(q, kv), _per_query(q, kv))
        h, c = lstm_step(cell, Tensor(q[:, :1]), (Tensor(q[:, 1:]), Tensor(np.zeros((2, 2)))),
                         attend_projected(layer, keys_values))
        return sum_all(add(mul(h, Tensor(mix)), mul(c, c)))

    params = [p for _, p in layer.parameters() + cell.parameters()]
    assert check_gradients(build_loss, params) < 1e-5


# ---------------------------------------------------- temporal transform ---


def test_temporal_transform_identity():
    t = TemporalTransform(24, 3, 3, out_steps=24, rng=_rng())
    t.time_weights.data[...] = np.eye(24)
    t.feature_proj.weights.data[...] = np.eye(3)
    t.feature_proj.bias.data[...] = 0.0
    x = np.random.default_rng(5).normal(size=(24, 3))
    out = temporal_transform(t, Tensor(x))
    assert np.allclose(out.data, x, atol=1e-12)


def test_temporal_transform_output_steps_contract():
    t = TemporalTransform(480, 4, 7, out_steps=24, rng=_rng())
    out = temporal_transform(t, Tensor(np.zeros((2, 480, 4))))
    assert out.data.shape == (2, 24, 7)
    with pytest.raises(ShapeError):
        temporal_transform(t, Tensor(np.zeros((2, 100, 4))))


def test_temporal_transform_gradient_matches_finite_differences():
    rng = _rng()
    t = TemporalTransform(8, 3, 2, out_steps=24, rng=rng)
    x = rng.normal(size=(8, 3))
    mix = rng.normal(size=(24, 2))

    def build_loss():
        return sum_all(mul(temporal_transform(t, Tensor(x)), Tensor(mix)))

    params = [p for _, p in t.parameters()]
    assert check_gradients(build_loss, params) < 1e-6


def test_lstm_step_overflowing_preactivation_names_lstm():
    layer = _zeroed_lstm()
    layer.w_x.data[...] = 1e300
    h, c = layer.initial_state(1)
    with pytest.raises(NumericsError, match="lstm"):
        lstm_step(layer, Tensor(np.full((1, 2), 1e300)), (h, c))
