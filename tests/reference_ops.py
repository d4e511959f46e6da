"""Test-only references: the matmul and concat ops, which the package folds
into affine, lstm_layer, attend and temporal; the sigmoid and slice ops that
composite LSTM cells are built from (fused into lstm_layer); the elementwise,
reduction and reshape ops of the composite losses (fused into summed_loss);
and central finite-difference gradient checking for tapes and models."""

import numpy as np

from pvcast.autodiff import (Tape, Tensor, _emit, _sigmoid, _swap, _unbroadcast, as_tensor,
                             backward)
from pvcast.errors import ContractError, ShapeError


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
