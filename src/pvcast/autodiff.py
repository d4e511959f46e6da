"""Reverse-mode automatic differentiation on 64-bit float arrays.

A ``Tensor`` wraps a numpy float64 array together with an optional gradient
buffer. Operations executed while a ``Tape`` is active append one node each;
``backward`` replays the tape in exact reverse insertion order and accumulates
gradients additively, so fan-out sums contributions and callers are expected
to zero gradients between batches. Every forward operation checks its output
for NaN/Inf and raises ``NumericsError`` instead of propagating bad values.

``lstm_cell`` is one fused node per recurrence step; it records a second
output (the cell state) and takes a gradient for each.
"""

import math

import numpy as np

from .errors import ContractError, DomainError, NumericsError, ShapeError

_TAPE_STACK: list["Tape"] = []


class Tensor:
    """A float64 array with an optional gradient buffer of the same size."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def values(self) -> np.ndarray:
        """Flat row-major view of the stored values."""
        return self.data.ravel()

    def ensure_grad(self) -> np.ndarray:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        return self.grad

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad.fill(0.0)

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Node:
    """One recorded operation: kind, input tensors, output tensor, grad rule.

    A two-output op keeps its second output in ``aux``; its ``grad_fn`` then
    takes one gradient per output, None for an output that received none.
    """

    __slots__ = ("op", "inputs", "output", "grad_fn", "aux")

    def __init__(self, op, inputs, output, grad_fn, aux=None):
        self.op = op
        self.inputs = inputs
        self.output = output
        self.grad_fn = grad_fn
        self.aux = aux


class Tape:
    """Append-only operation record; insertion order is topological order."""

    def __init__(self):
        self.nodes: list[Node] = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        _TAPE_STACK.pop()
        return False

    def __len__(self) -> int:
        return len(self.nodes)


def _active_tape():
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def constant(x) -> Tensor:
    """A tensor that never requires gradients."""
    return Tensor(x, requires_grad=False)


def _check_finite(op: str, data: np.ndarray) -> None:
    # Numerics guard: forward ops must never hand NaN/Inf downstream.
    if not np.isfinite(data).all():
        raise NumericsError(f"non-finite values produced by '{op}'")


def _emit(op: str, inputs: tuple, out_data: np.ndarray, grad_fn) -> Tensor:
    _check_finite(op, out_data)
    requires = any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=requires)
    tape = _active_tape()
    if tape is not None and requires:
        tape.nodes.append(Node(op, inputs, out, grad_fn))
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _swap(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -1, -2)


# ---------------------------------------------------------------------------
# Arithmetic and linear-algebra operations
# ---------------------------------------------------------------------------


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


def _sigmoid(d: np.ndarray) -> np.ndarray:
    """Logistic function: 1/(1+e) for d >= 0 and e/(1+e) below, with
    e = exp(-|d|) <= 1 so that exp never overflows."""
    e = np.exp(-np.abs(d))
    denom = 1.0 + e
    return np.where(d >= 0, 1.0 / denom, e / denom)


def sigmoid(x) -> Tensor:
    x = as_tensor(x)
    out = _sigmoid(x.data)

    def grad_fn(g):
        return (g * out * (1.0 - out) if x.requires_grad else None,)

    return _emit("sigmoid", (x,), out, grad_fn)


def tanh(x) -> Tensor:
    x = as_tensor(x)
    out = np.tanh(x.data)

    def grad_fn(g):
        return (g * (1.0 - out * out) if x.requires_grad else None,)

    return _emit("tanh", (x,), out, grad_fn)


def softmax(x) -> Tensor:
    """Softmax over the last axis, computed with max-subtraction."""
    x = as_tensor(x)
    if not np.all(np.isfinite(x.data)):
        raise DomainError("softmax requires finite inputs")
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    out = ex / ex.sum(axis=-1, keepdims=True)

    def grad_fn(g):
        if not x.requires_grad:
            return (None,)
        inner = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - inner),)

    return _emit("softmax", (x,), out, grad_fn)


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


# ---------------------------------------------------------------------------
# Structural operations
# ---------------------------------------------------------------------------


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


def reshape(x, shape: tuple) -> Tensor:
    x = as_tensor(x)
    out = x.data.reshape(shape)
    orig = x.shape

    def grad_fn(g):
        return (g.reshape(orig) if x.requires_grad else None,)

    return _emit("reshape", (x,), out, grad_fn)


def swap_last_axes(x) -> Tensor:
    x = as_tensor(x)
    if x.data.ndim < 2:
        raise ShapeError(f"swap_last_axes needs >=2-D input, got {x.shape}")
    out = _swap(x.data).copy()

    def grad_fn(g):
        return (_swap(g) if x.requires_grad else None,)

    return _emit("swap", (x,), out, grad_fn)


def stack_steps(tensors, axis: int = 1) -> Tensor:
    """Stack equally shaped tensors along a new axis in one tape node."""
    ts = tuple(as_tensor(t) for t in tensors)
    if not ts:
        raise ContractError("stack_steps needs at least one tensor")
    out = np.stack([t.data for t in ts], axis=axis)

    def grad_fn(g):
        parts = np.moveaxis(g, axis, 0)
        return tuple(parts[i] if t.requires_grad else None for i, t in enumerate(ts))

    return _emit("stack", ts, out, grad_fn)


def sum_all(x) -> Tensor:
    """Sum of every entry; yields a scalar (shape ()) tensor."""
    x = as_tensor(x)
    out = np.asarray(x.data.sum())

    def grad_fn(g):
        if not x.requires_grad:
            return (None,)
        return (np.full(x.data.shape, float(g)),)

    return _emit("sum", (x,), out, grad_fn)


# ---------------------------------------------------------------------------
# Fused recurrent cell
# ---------------------------------------------------------------------------


def lstm_cell(x, h, c, w_x, w_h, bias) -> tuple[Tensor, Tensor]:
    """One LSTM step recorded as a single two-output tape node.

    With pre = (x @ w_x + h @ w_h) + bias split into gate blocks (i, f, g, o),
    i, f, o = sigmoid, g = tanh, it returns h' = o*tanh(c') and
    c' = f*c + i*g. Forward and backward repeat the arithmetic of the same
    cell built from matmul/add/slice/sigmoid/tanh/mul nodes, operand for
    operand, so the results are bitwise identical to it.
    """
    x, h, c, w_x, w_h, bias = (as_tensor(t) for t in (x, h, c, w_x, w_h, bias))
    if x.data.ndim < 2 or h.data.ndim < 2:
        raise ShapeError(f"lstm needs >=2-D input and state, got {x.shape} and {h.shape}")
    u = c.shape[-1]
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            xw = x.data @ w_x.data
            hw = h.data @ w_h.data
            pre = (xw + hw) + bias.data  # non-finite values are rejected below
    except ValueError as exc:
        raise ShapeError(f"lstm shapes do not fit: x {x.shape} @ w_x {w_x.shape}, "
                         f"h {h.shape} @ w_h {w_h.shape}, bias {bias.shape}") from exc
    _check_finite("lstm", pre)
    xw_shape, hw_shape = xw.shape, hw.shape
    # Sigmoid over every block, then tanh over the candidate block. A
    # contiguous copy keeps tanh on the same numpy loop as for a standalone
    # array, so the values match ad.tanh to the last bit on any build.
    gates = _sigmoid(pre)
    gates[..., 2 * u:3 * u] = np.tanh(pre[..., 2 * u:3 * u].copy())
    i, f, g, o = (gates[..., k * u:(k + 1) * u] for k in range(4))
    if c.shape != i.shape:
        raise ShapeError(f"lstm cell state {c.shape} does not fit gates {i.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        c_next = f * c.data + i * g
    _check_finite("lstm", c_next)
    tc = np.tanh(c_next)
    h_next = o * tc
    _check_finite("lstm", h_next)

    def grad_fn(grad_h, grad_c):
        d_gates = np.empty_like(gates)
        if grad_h is None:
            d_gates[..., 3 * u:] = 0.0
            dc = grad_c
        else:
            d_gates[..., 3 * u:] = grad_h * tc
            dtanh = (grad_h * o) * (1.0 - tc * tc)
            dc = dtanh if grad_c is None else grad_c + dtanh
        d_gates[..., :u] = dc * g
        d_gates[..., u:2 * u] = dc * c.data
        d_gates[..., 2 * u:3 * u] = dc * i
        d_pre = (d_gates * gates) * (1.0 - gates)
        d_pre[..., 2 * u:3 * u] = d_gates[..., 2 * u:3 * u] * (1.0 - g * g)
        d_xw = _unbroadcast(d_pre, xw_shape)
        d_hw = _unbroadcast(d_pre, hw_shape)
        return (
            _unbroadcast(d_xw @ _swap(w_x.data), x.shape) if x.requires_grad else None,
            _unbroadcast(d_hw @ _swap(w_h.data), h.shape) if h.requires_grad else None,
            dc * f if c.requires_grad else None,
            _unbroadcast(_swap(x.data) @ d_xw, w_x.shape) if w_x.requires_grad else None,
            _unbroadcast(_swap(h.data) @ d_hw, w_h.shape) if w_h.requires_grad else None,
            _unbroadcast(d_pre, bias.shape) if bias.requires_grad else None,
        )

    inputs = (x, h, c, w_x, w_h, bias)
    requires = any(t.requires_grad for t in inputs)
    h_out = Tensor(h_next, requires_grad=requires)
    c_out = Tensor(c_next, requires_grad=requires)
    tape = _active_tape()
    if tape is not None and requires:
        tape.nodes.append(Node("lstm", inputs, h_out, grad_fn, aux=c_out))
    return h_out, c_out


# ---------------------------------------------------------------------------
# Backward pass and optimizer
# ---------------------------------------------------------------------------


def backward(tape: Tape, loss: Tensor) -> None:
    """Populate d(loss)/d(tensor) for every requires_grad tensor on the tape.

    The tape is replayed in exact reverse insertion order; contributions to a
    tensor consumed by several later nodes are summed. Gradients are added on
    top of whatever the buffers already hold. Every consumer of a node's
    output was recorded after it, so once the node's rule has run its outputs'
    gradients are complete and unused: they are dropped to free memory. The
    loss keeps its gradient, and so does every leaf (a tensor no node outputs).
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    loss.ensure_grad()[...] += 1.0
    for node in reversed(tape.nodes):
        out, aux = node.output, node.aux
        if aux is None:
            if out.grad is None:
                continue
            grads = node.grad_fn(out.grad)
        else:
            if out.grad is None and aux.grad is None:
                continue
            grads = node.grad_fn(out.grad, aux.grad)
            if aux is not loss:
                aux.grad = None
        if out is not loss:
            out.grad = None
        for t, gt in zip(node.inputs, grads):
            if gt is not None and t.requires_grad:
                t.ensure_grad()[...] += gt


class SgdNesterov:
    """SGD with Nesterov momentum in the velocity-lookahead form.

    Per parameter: v <- mu*v - lr*g, then theta <- theta + mu*v - lr*g.
    Velocity buffers are zero-initialized and retained across steps.
    """

    def __init__(self, params, learning_rate: float = 0.003, momentum: float = 0.75):
        params = list(params)
        if learning_rate <= 0.0:
            raise ContractError("learning_rate must be positive")
        if not 0.0 <= momentum < 1.0:
            raise ContractError("momentum must lie in [0, 1)")
        self.params = params
        self.learning_rate = float(learning_rate)
        self.momentum = float(momentum)
        self.velocity = [np.zeros_like(p.data) for p in params]

    def step(self) -> None:
        lr, mu = self.learning_rate, self.momentum
        for p, v in zip(self.params, self.velocity):
            if p.grad is None:
                raise ContractError("parameter has no gradient; run backward first")
            v *= mu
            v -= lr * p.grad
            p.data += mu * v - lr * p.grad

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


def clip_gradient_norm(params, max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most max_norm."""
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    norm = math.sqrt(total)
    if norm > max_norm > 0.0:
        factor = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad *= factor
    return norm
