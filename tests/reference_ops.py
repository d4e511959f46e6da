"""Test-only references: the matmul and concat ops, which the package folds
into affine, lstm_layer and temporal; the sigmoid and slice ops that
composite LSTM cells are built from (fused into lstm_layer); the attend node,
its key/value row collector and the step-major seq2seq decoder built from
them, the references for lstm_layer's attention read and the layer-major
teacher-forced decoder; the elementwise, reduction and reshape ops of the
composite losses (fused into summed_loss); and central finite-difference
gradient checking for tapes and models."""

import math

import numpy as np

from pvcast import autodiff as ad
from pvcast.autodiff import (Tape, Tensor, _check_finite, _emit, _join, _sigmoid, _split, _swap,
                             _unbroadcast, as_tensor, backward)
from pvcast.errors import ContractError, ShapeError
from pvcast.layers import lstm_sequence


def matmul(a, b) -> Tensor:
    """Matrix product with batch broadcasting over leading axes."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul needs >=2-D operands, got {a.shape} x {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} x {b.shape}")
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            out = a.data @ b.data  # non-finite results are rejected in _emit
    except ValueError as exc:
        raise ShapeError(f"matmul batch mismatch: {a.shape} x {b.shape}") from exc

    def grad_fn(g):
        ga = _unbroadcast(g @ _swap(b.data), a.shape) if a.requires_grad else None
        gb = _unbroadcast(_swap(a.data) @ g, b.shape) if b.requires_grad else None
        return ga, gb

    return _emit("matmul", (a, b), out, grad_fn)


def concat(a, b, axis: int = -1) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != b.data.ndim:
        raise ShapeError(f"concat rank mismatch: {a.shape} vs {b.shape}")
    ax = axis % a.data.ndim
    for i, (da, db) in enumerate(zip(a.shape, b.shape)):
        if i != ax and da != db:
            raise ShapeError(f"concat shapes {a.shape} and {b.shape} differ on axis {i}")
    out = np.concatenate([a.data, b.data], axis=ax)
    split_at = a.shape[ax]

    def grad_fn(g):
        ga, gb = np.split(g, [split_at], axis=ax)
        return (ga if a.requires_grad else None, gb if b.requires_grad else None)

    return _emit("concat", (a, b), out, grad_fn)


def sigmoid(x) -> Tensor:
    x = as_tensor(x)
    out = _sigmoid(x.data, np.empty_like(x.data), np.empty_like(x.data))

    def grad_fn(g):
        return (g * out * (1.0 - out) if x.requires_grad else None,)

    return _emit("sigmoid", (x,), out, grad_fn)


def slice_axis(x, axis: int, start: int, stop: int) -> Tensor:
    x = as_tensor(x)
    ax = axis % x.data.ndim
    idx = tuple(slice(None) if i != ax else slice(start, stop) for i in range(x.data.ndim))
    out = x.data[idx].copy()

    def grad_fn(g):
        if not x.requires_grad:
            return (None,)
        gx = np.zeros_like(x.data)
        gx[idx] = g
        return (gx,)

    return _emit("slice", (x,), out, grad_fn)


def _binary(op: str, a, b, fwd, da, db) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError as exc:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from exc
    with np.errstate(over="ignore", invalid="ignore"):
        out = fwd(a.data, b.data)  # non-finite results are rejected in _emit

    def grad_fn(g):
        ga = _unbroadcast(da(g, a.data, b.data), a.shape) if a.requires_grad else None
        gb = _unbroadcast(db(g, a.data, b.data), b.shape) if b.requires_grad else None
        return ga, gb

    return _emit(op, (a, b), out, grad_fn)


def add(a, b) -> Tensor:
    return _binary("add", a, b, np.add, lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b) -> Tensor:
    return _binary("sub", a, b, np.subtract, lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b) -> Tensor:
    return _binary("mul", a, b, np.multiply, lambda g, x, y: g * y, lambda g, x, y: g * x)


def scale(x, c: float) -> Tensor:
    """Multiply by a python scalar constant."""
    x = as_tensor(x)
    c = float(c)
    return _emit("scale", (x,), x.data * c, lambda g: (g * c if x.requires_grad else None,))


def clamped_log(x, floor: float) -> Tensor:
    """log(max(x, floor)); the gradient is zero wherever the clamp is active."""
    x = as_tensor(x)
    if floor <= 0.0:
        raise ContractError("clamped_log floor must be positive")
    clipped = np.maximum(x.data, floor)
    out = np.log(clipped)

    def grad_fn(g):
        if not x.requires_grad:
            return (None,)
        return (np.where(x.data > floor, g / clipped, 0.0),)

    return _emit("clamped_log", (x,), out, grad_fn)


def reshape(x, shape: tuple) -> Tensor:
    x = as_tensor(x)
    out = x.data.reshape(shape)
    orig = x.shape

    def grad_fn(g):
        return (g.reshape(orig) if x.requires_grad else None,)

    return _emit("reshape", (x,), out, grad_fn)


def sum_all(x) -> Tensor:
    """Sum of every entry; yields a scalar (shape ()) tensor."""
    x = as_tensor(x)
    out = np.asarray(x.data.sum())

    def grad_fn(g):
        if not x.requires_grad:
            return (None,)
        return (np.full(x.data.shape, float(g)),)

    return _emit("sum", (x,), out, grad_fn)


class KeyValueRows:
    """Keys (..., width, steps) and values (..., steps, width) for attend
    nodes to read, with one "key_value_rows" node that forms their
    gradients. The node is recorded before any read, so its rule runs after
    all of theirs. Each read's rule adds its rows to ``rows``, the last
    step's first; the node's rule joins them on the step axis and turns them
    into d(kp_t) = Qᵀ·dS and d(vp) = Aᵀ·dC, one batched GEMM each, over rows
    in the layout that lstm_layer's reverse sweep keeps. ``token`` is the
    node's output, an input of every read: a scalar without meaning whose
    gradient marks that rows are waiting."""

    def __init__(self, kp_t, vp):
        self.kp_t, self.vp = as_tensor(kp_t), as_tensor(vp)
        self.rows: list[tuple] = []
        self.token = _emit("key_value_rows", (self.kp_t, self.vp), np.zeros(()), self._grad_fn)

    def _grad_fn(self, _):
        q, d_scores, weights, d_out = (np.concatenate(part, axis=-2) for part in zip(*self.rows))
        self.rows = []
        with np.errstate(over="ignore", invalid="ignore"):
            return (_swap(q) @ d_scores if self.kp_t.requires_grad else None,
                    _swap(weights) @ d_out if self.vp.requires_grad else None)


def attend(query, w_q, b_q, memory: KeyValueRows) -> Tensor:
    """softmax((qp @ kp_t) / sqrt(width)) @ vp with qp = query @ w_q + b_q, as
    one "attention" node: a (..., q) query gives a (..., value width)
    context; a tuple of query parts is joined and split back as lstm_layer's
    input is. The reference for lstm_layer's read, which runs these numpy
    calls and checks at each step.

    Each query is read as a (..., 1, q) row, so that forward and the query
    and b_q gradients repeat the affine/matmul/scale/softmax/matmul composite
    operand for operand. The w_q gradient is one (q, rows) @ (rows, width)
    GEMM over every query row instead of the composite's per-row outer
    products and their sum, so it may differ from it in the last bits. The
    key and value gradients are left to the memory's node.
    """
    parts, query = _join("attend", query)
    w_q, b_q = as_tensor(w_q), as_tensor(b_q)
    kp_t, vp, token = memory.kp_t.data, memory.vp.data, memory.token
    width = kp_t.shape[-2]
    if (query.ndim != kp_t.ndim - 1 or query.shape[:-1] != kp_t.shape[:-2]
            or w_q.shape != (query.shape[-1], width) or b_q.shape != (width,)):
        raise ShapeError(f"attend shapes do not fit: query {query.shape}, w_q {w_q.shape}, "
                         f"b_q {b_q.shape}, keys {kp_t.shape}")
    rows = np.expand_dims(query, -2)
    scale = 1.0 / math.sqrt(width)
    with np.errstate(over="ignore", invalid="ignore"):
        qp = rows @ w_q.data
        qp += b_q.data
        scores = (qp @ kp_t) * scale
        _check_finite("attention", scores)
        ex = np.exp(scores - scores.max(axis=-1, keepdims=True))
        weights = ex / ex.sum(axis=-1, keepdims=True)
        out = np.squeeze(weights @ vp, -2)  # non-finite results are rejected in _emit

    def grad_fn(g):
        g = np.expand_dims(g, -2)
        with np.errstate(over="ignore", invalid="ignore"):
            d_weights = g @ _swap(vp)
            inner = (d_weights * weights).sum(axis=-1, keepdims=True)
            d_scores = (weights * (d_weights - inner)) * scale
            if token.requires_grad:
                memory.rows.append((qp, d_scores, weights, g))
            d_qp = d_scores @ _swap(kp_t)
            d_query = ((d_qp @ _swap(w_q.data)).reshape(query.shape)
                       if any(p.requires_grad for p in parts) else None)
            return _split(d_query, parts) + (
                _swap(query.reshape(-1, query.shape[-1])) @ d_qp.reshape(-1, width)
                if w_q.requires_grad else None,
                _unbroadcast(d_qp, b_q.shape) if b_q.requires_grad else None,
                np.zeros(()) if token.requires_grad else None)

    return _emit("attention", parts + (w_q, b_q, token), out, grad_fn)


def step_major_forward(model, inputs, p0, teacher, nwp_ahead=None) -> Tensor:
    """A Seq2SeqModel's teacher-forced forward_batch with the step-major
    decoder, the reference for the layer-major one: the model's own taped
    encoder, then per step and layer an attend node (for s2s_attn) and a
    one-step lstm_layer node, and the head's affine and softmax nodes."""
    seq = Tensor(inputs)
    states = []
    for layer in model.encoder:
        seq, h_last, c_last = lstm_sequence(layer, seq)
        states.append((h_last, c_last))
    memories = [KeyValueRows(*layer.project_keys_values(seq, seq)) for layer in model.attn]
    outputs = []
    for t in range(model.config.output_steps):
        step_in = Tensor(teacher[:, t - 1] if t else p0)
        x = (step_in, Tensor(nwp_ahead[:, t])) if model.config.decoder_nwp else (step_in,)
        for i, layer in enumerate(model.decoder):
            h, c = states[i]
            if model.attention:
                attn = model.attn[i]
                x = (attend(x + (h,) if i == 0 else h, attn.w_q, attn.b_q, memories[i]),) + x
            states[i] = ad.lstm_layer(x, h, c, layer.w_x, layer.w_h, layer.bias)[1:]
            x = (states[i][0],)
        out = model.head(x[0])
        outputs.append(ad.softmax(out) if model.config.target_mode == "pdf" else out)
    return ad.stack(outputs, axis=1)


def numeric_gradient(f, array: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central differences of scalar f() w.r.t. every entry of array (in place)."""
    grad = np.zeros_like(array)
    flat = array.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = f()
        flat[i] = orig - h
        down = f()
        flat[i] = orig
        gflat[i] = (up - down) / (2.0 * h)
    return grad


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-3) -> float:
    """Worst entry-wise |a-n| / max(|a|, |n|, floor).

    The floor keeps dead or near-zero entries (saturated gates, clamped logs)
    from turning finite-difference noise into spurious relative error.
    """
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float((np.abs(analytic - numeric) / denom).max())


def check_gradients(build_loss, params, h: float = 1e-5, floor: float = 1e-3) -> float:
    """Compare backward() gradients of build_loss() against central differences.

    build_loss must rebuild the forward graph from the current parameter
    values each call and return a scalar Tensor. Returns the worst relative
    error over every entry of every parameter.
    """
    params = list(params)
    for p in params:
        p.zero_grad()
    with Tape() as tape:
        loss = build_loss()
    backward(tape, loss)
    analytic = [np.array(p.grad, copy=True) for p in params]

    def value() -> float:
        out = build_loss()
        if not isinstance(out, Tensor):
            raise TypeError("build_loss must return a Tensor")
        return out.item()

    worst = 0.0
    for p, a in zip(params, analytic):
        n = numeric_gradient(value, p.data, h=h)
        worst = max(worst, max_relative_error(a, n, floor=floor))
    for p in params:
        p.zero_grad()
    return worst
