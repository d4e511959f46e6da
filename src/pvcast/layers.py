"""Network building blocks: dense, LSTM, scaled dot-product attention, and
the temporal transformation that collapses a sequence to the forecast grid.

All layers are built on the autodiff ops, hold their parameters as Tensors
with requires_grad=True, and initialize weights uniformly in
+-sqrt(6/(fan_in+fan_out)) from a caller-supplied seeded generator.
"""

import math

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ContractError, ShapeError

ACTIVATIONS = ("none", "tanh")
FORGET_BIAS = 1.0  # initial forget-gate bias, so a fresh cell keeps its state


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape: tuple) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class DenseLayer:
    """Affine map with an optional pointwise activation."""

    def __init__(self, in_features: int, out_features: int, activation: str = "none",
                 rng: np.random.Generator | None = None):
        if activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation '{activation}'")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.activation = activation
        self.weights = Tensor(_glorot(rng, in_features, out_features, (in_features, out_features)),
                              requires_grad=True)
        self.bias = Tensor(np.zeros(out_features), requires_grad=True)

    def parameters(self):
        return [("weights", self.weights), ("bias", self.bias)]

    def __call__(self, x) -> Tensor:
        return dense_forward(self, x)


def dense_forward(layer: DenseLayer, x) -> Tensor:
    """activation(x @ W + b) for a (..., batch, in) input, broadcast over any
    leading axes, with the affine map as one tape node; a 1-D input raises
    affine's ShapeError."""
    x = ad.as_tensor(x)
    if x.shape[-1] != layer.in_features:
        raise ShapeError(
            f"dense expects last axis {layer.in_features}, got input shape {x.shape}")
    y = ad.affine(x, layer.weights, layer.bias)
    return ad.tanh(y) if layer.activation == "tanh" else y


class LstmLayer:
    """Single LSTM layer with input, forget, and output gates plus a tanh
    cell candidate, stored as fused weight blocks in (i, f, g, o) order."""

    def __init__(self, input_size: int, units: int, rng: np.random.Generator | None = None):
        if units <= 0:
            raise ConfigError("units must be positive")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.input_size = input_size
        self.units = units
        self.w_x = Tensor(_glorot(rng, input_size, 4 * units, (input_size, 4 * units)),
                          requires_grad=True)
        self.w_h = Tensor(_glorot(rng, units, 4 * units, (units, 4 * units)),
                          requires_grad=True)
        bias = np.zeros(4 * units)
        bias[units:2 * units] = FORGET_BIAS
        self.bias = Tensor(bias, requires_grad=True)

    def parameters(self):
        return [("w_x", self.w_x), ("w_h", self.w_h), ("bias", self.bias)]

    def initial_state(self, batch: int) -> tuple[Tensor, Tensor]:
        zeros = np.zeros((batch, self.units))
        return Tensor(zeros.copy()), Tensor(zeros.copy())


def lstm_step(layer: LstmLayer, x_t, state: tuple[Tensor, Tensor],
              read: tuple | None = None) -> tuple[Tensor, Tensor]:
    """One recurrence step of a (batch, in) input: c' = f*c + i*g,
    h' = o*tanh(c'), one lstm_layer node, which first reads an attention
    context when given a `read` from attend_projected. A wrong input width
    raises lstm_layer's ShapeError."""
    h, c = state
    if h.shape[-1] != layer.units or c.shape[-1] != layer.units:
        raise ContractError(
            f"lstm state width {h.shape[-1]}/{c.shape[-1]}, expected {layer.units}")
    return ad.lstm_layer(x_t, h, c, layer.w_x, layer.w_h, layer.bias, read)[1:]


def lstm_sequence(layer: LstmLayer, x, state: tuple[Tensor, Tensor] | None = None,
                  read: tuple | None = None) -> tuple[Tensor, Tensor, Tensor]:
    """The layer over a whole (batch, steps, in) input, from `state` or a
    zero state, one fused tape node that reads an attention context at each
    step when given a `read`: every step's h as (batch, steps, units), then
    the last h and c. A wrong input width raises lstm_layer's ShapeError."""
    if state is None:
        state = layer.initial_state(ad.as_tensor(x).shape[0])
    return ad.lstm_layer(x, *state, layer.w_x, layer.w_h, layer.bias, read)


class AttentionLayer:
    """Scaled dot-product attention with learned query/key/value projections
    into a common width; the key width doubles as the score scale. The query
    projection is the weights `w_q` and bias `b_q` that lstm_layer applies at
    each step it reads; keys and values go through dense layers once per
    sequence."""

    def __init__(self, query_size: int, key_size: int, value_size: int, width: int,
                 rng: np.random.Generator | None = None):
        if width <= 0:
            raise ConfigError("attention width must be positive")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.width = width
        self.w_q = Tensor(_glorot(rng, query_size, width, (query_size, width)),
                          requires_grad=True)
        self.b_q = Tensor(np.zeros(width), requires_grad=True)
        self.w_k = DenseLayer(key_size, width, rng=rng)
        self.w_v = DenseLayer(value_size, width, rng=rng)

    def parameters(self):
        # The query projection keeps the names it had as a dense layer.
        out = [("w_q.weights", self.w_q), ("w_q.bias", self.b_q)]
        for name, part in (("w_k", self.w_k), ("w_v", self.w_v)):
            out.extend((f"{name}.{pname}", p) for pname, p in part.parameters())
        return out

    def project_keys_values(self, k, v) -> tuple[Tensor, Tensor]:
        """Project once per sequence into the keys and values that serve
        every query of it; the keys are transposed to (..., width, steps)
        once, so no query transposes them again."""
        return ad.swap_last_axes(self.w_k(k)), self.w_v(v)


def attend_projected(layer: AttentionLayer, keys_values: tuple) -> tuple:
    """The read of project_keys_values' (keys, values) that lstm_step and
    lstm_sequence pass to lstm_layer: at each step, softmax((q W_q + b_q)
    Kᵀ / sqrt(width)) V for the step's (batch, query_size) query."""
    return (layer.w_q, layer.b_q, *keys_values)


class TemporalTransform:
    """Linear map over the time axis down to a fixed step count, followed by
    a per-step linear feature projection."""

    def __init__(self, in_steps: int, feature_size: int, out_features: int,
                 out_steps: int = 24, rng: np.random.Generator | None = None):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.time_weights = Tensor(_glorot(rng, in_steps, out_steps, (in_steps, out_steps)),
                                   requires_grad=True)
        self.feature_proj = DenseLayer(feature_size, out_features, rng=rng)

    def parameters(self):
        out = [("time_weights", self.time_weights)]
        out.extend((f"feature_proj.{n}", p) for n, p in self.feature_proj.parameters())
        return out


def temporal_transform(t: TemporalTransform, x) -> Tensor:
    """Project (..., in_steps, features) to (..., out_steps, out_features):
    one temporal node over the time axis, then the per-step feature
    projection. A wrong step count raises temporal's ShapeError."""
    return t.feature_proj(ad.temporal(x, t.time_weights))
