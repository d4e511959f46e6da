"""Reverse-mode automatic differentiation on 64-bit float arrays.

A ``Tensor`` wraps a numpy float64 array together with an optional gradient
buffer. Operations executed while a ``Tape`` is active append one node each;
``backward`` replays the tape in exact reverse insertion order and accumulates
gradients additively, so fan-out sums contributions and callers are expected
to zero gradients between batches. Every forward operation checks its output
for NaN/Inf and raises ``NumericsError`` instead of propagating bad values.

``lstm_layer`` is the one LSTM op: one fused node per layer over a whole
sequence, or per step for a one-step input, with the last h and c as two
more outputs that each take a gradient. It joins a tuple of input parts
itself, and it may read an attention context at every step, its query
projection included, over keys and values that are inputs of the node like
any other: its reverse sweep returns their gradients too. ``unstack`` hands
out a sequence's steps as views, one node for all. ``temporal`` maps over
time. ``summed_loss`` records a whole KL or squared-error loss as one node.
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

    A multi-output op keeps its further outputs in the ``aux`` tuple; its
    ``grad_fn`` takes one gradient per output, None for one that received none.
    """

    __slots__ = ("op", "inputs", "output", "grad_fn", "aux")

    def __init__(self, op, inputs, output, grad_fn, aux=()):
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


def _check_finite(op: str, data: np.ndarray, mask: np.ndarray | None = None) -> None:
    # Numerics guard: forward ops must never hand NaN/Inf downstream. A caller
    # that checks in a loop passes a bool `mask` shaped like `data` to reuse.
    if not np.isfinite(data, out=mask).all():
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


def affine(x, w, b) -> Tensor:
    """x @ w + b as one tape node, with batch broadcasting over x's leading
    axes; values and gradients are bitwise those of a matmul then an add node,
    the composite that the tests keep as reference."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.data.ndim < 2 or w.data.ndim != 2:
        raise ShapeError(f"affine needs >=2-D input and 2-D weights, got {x.shape} x {w.shape}")
    if x.shape[-1] != w.shape[0] or b.shape != (w.shape[1],):
        raise ShapeError(f"affine shapes do not fit: x {x.shape}, w {w.shape}, b {b.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        out = x.data @ w.data  # non-finite results are rejected in _emit
        out += b.data

    def grad_fn(g):
        return (_unbroadcast(g @ _swap(w.data), x.shape) if x.requires_grad else None,
                _unbroadcast(_swap(x.data) @ g, w.shape) if w.requires_grad else None,
                _unbroadcast(g, b.shape) if b.requires_grad else None)

    return _emit("affine", (x, w, b), out, grad_fn)


def temporal(x, w) -> Tensor:
    """(..., in_steps, features) by (in_steps, out_steps) weights over the time
    axis to (..., out_steps, features), one tape node. It runs a swap/matmul/swap
    chain's numpy calls, so its values and gradients equal that chain's bitwise."""
    x, w = as_tensor(x), as_tensor(w)
    if x.data.ndim < 2 or w.data.ndim != 2 or x.shape[-2] != w.shape[0]:
        raise ShapeError(f"temporal shapes do not fit: x {x.shape} (..., steps, f), w {w.shape}")
    cols = _swap(x.data).copy()  # (..., features, in_steps)
    with np.errstate(over="ignore", invalid="ignore"):
        out = _swap(cols @ w.data).copy()  # non-finite results are rejected in _emit

    def grad_fn(g):
        d_cols = _swap(g).copy()  # C order, as the chain's matmul read its gradient
        return (_swap(d_cols @ _swap(w.data)) if x.requires_grad else None,
                _unbroadcast(_swap(cols) @ d_cols, w.shape) if w.requires_grad else None)

    return _emit("temporal", (x, w), out, grad_fn)


def _sigmoid(d: np.ndarray, out: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Logistic function: 1/(1+e) for d >= 0 and e/(1+e) below, with
    e = exp(-|d|) <= 1 so that exp never overflows. The caller's buffers take
    every temporary: `e` shaped like d, and `out`, which may be `d`. The
    numerator is maximum(e, copysign(1, d)). As 0 <= e <= 1, that is 1 for
    d >= +0 and e for d <= -0, where e = exp(-0) = 1 at d = -0, so it equals
    where(d >= 0, 1.0, e)."""
    np.abs(d, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.copysign(1.0, d, out=out)
    np.maximum(e, out, out=out)
    np.add(1.0, e, out=e)
    return np.divide(out, e, out=out)


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


# ---------------------------------------------------------------------------
# Structural operations
# ---------------------------------------------------------------------------


def _join(op: str, x) -> tuple[tuple[Tensor, ...], np.ndarray]:
    """An op input given as one tensor or as a tuple of parts: the parts, and
    their join on the last axis. One part is read without a copy."""
    parts = tuple(as_tensor(p) for p in x) if isinstance(x, tuple) else (as_tensor(x),)
    if len(parts) == 1:
        return parts, parts[0].data
    if not parts or any(p.data.ndim == 0 or p.shape[:-1] != parts[0].shape[:-1] for p in parts):
        raise ShapeError(f"{op}: parts {[p.shape for p in parts]} do not join on the last axis")
    return parts, np.concatenate([p.data for p in parts], axis=-1)


def _split(g, parts: tuple) -> tuple:
    """A joined input's gradient `g`, or None, as a view for each part that takes one."""
    if g is None:
        return (None,) * len(parts)
    out, start = [], 0
    for p in parts:
        stop = start + p.shape[-1]
        out.append(g[..., start:stop] if p.requires_grad else None)
        start = stop
    return tuple(out)


def stack(tensors, axis: int = 0) -> Tensor:
    """Join equal-shape tensors along a new axis, one tape node for all."""
    tensors = tuple(as_tensor(t) for t in tensors)
    for t in tensors[1:]:
        if t.shape != tensors[0].shape:
            raise ShapeError(f"stack shapes {tensors[0].shape} and {t.shape} differ")
    out = np.stack([t.data for t in tensors], axis=axis)
    ax = axis % out.ndim

    def grad_fn(g):
        return tuple(np.take(g, i, axis=ax) if t.requires_grad else None
                     for i, t in enumerate(tensors))

    return _emit("stack", tensors, out, grad_fn)


def unstack(x, axis: int = 0) -> tuple[Tensor, ...]:
    """The slices of x along `axis` as views, one tape node with an output
    per slice; stack's inverse. The rule writes each slice's gradient, or
    zeros for one that received none, into one array laid out like x."""
    x = as_tensor(x)
    if x.data.ndim == 0:
        raise ShapeError("unstack needs at least one axis")
    ax = axis % x.data.ndim
    outs = tuple(Tensor(s, requires_grad=x.requires_grad) for s in np.moveaxis(x.data, ax, 0))
    tape = _active_tape()
    if tape is not None and x.requires_grad and outs:
        def grad_fn(*grads):
            g = np.zeros_like(x.data)
            slices = np.moveaxis(g, ax, 0)
            for i, gi in enumerate(grads):
                if gi is not None:
                    slices[i] = gi
            return (g,)

        tape.nodes.append(Node("unstack", (x,), outs[0], grad_fn, aux=outs[1:]))
    return outs


def swap_last_axes(x) -> Tensor:
    x = as_tensor(x)
    if x.data.ndim < 2:
        raise ShapeError(f"swap_last_axes needs >=2-D input, got {x.shape}")
    out = _swap(x.data).copy()

    def grad_fn(g):
        return (_swap(g) if x.requires_grad else None,)

    return _emit("swap", (x,), out, grad_fn)


# ---------------------------------------------------------------------------
# Fused recurrent ops
# ---------------------------------------------------------------------------


def _lstm_gates(pre: np.ndarray, c: np.ndarray, c_next: np.ndarray, tc: np.ndarray,
                h_next: np.ndarray, e: np.ndarray, candidate: np.ndarray,
                ig: np.ndarray) -> None:
    """Turn pre-activations into gate activations (blocks i, f, g, o) in
    place and write c' = f*c + i*g, tanh(c') and h' = o*tanh(c'), in the
    operand order of the cell built from matmul/add/slice/sigmoid/tanh/mul
    nodes, so the values equal that composite's bitwise. `c_next` may be `c`.
    The temporaries go through the caller's buffers: `e` shaped like `pre`
    for _sigmoid, `candidate` and `ig` shaped like `c` for tanh(g) and i*g.
    The caller holds the errstate that lets overflow through to its check."""
    u = c_next.shape[-1]
    # A contiguous copy keeps tanh on the same numpy loop as for a standalone
    # array, so the values match ad.tanh to the last bit on any build.
    np.copyto(candidate, pre[..., 2 * u:3 * u])
    np.tanh(candidate, out=candidate)
    _sigmoid(pre, pre, e)
    pre[..., 2 * u:3 * u] = candidate
    i, f, g, o = pre[..., :u], pre[..., u:2 * u], pre[..., 2 * u:3 * u], pre[..., 3 * u:]
    np.multiply(f, c, out=c_next)
    np.multiply(i, g, out=ig)
    c_next += ig  # non-finite values are rejected by the caller
    np.tanh(c_next, out=tc)
    np.multiply(o, tc, out=h_next)


def _lstm_pre_grad(grad_h, grad_c, gates: np.ndarray, c: np.ndarray, tc: np.ndarray,
                   out: np.ndarray, d_gates: np.ndarray, one_minus: np.ndarray,
                   dc: np.ndarray, tmp: np.ndarray, dc_prev: np.ndarray) -> np.ndarray:
    """One step's d(pre), written into `out` (which may be `gates`), from the
    gradients on h' and c' (None for one that received none); returns the
    gradient that reaches c, written into `dc_prev`. The temporaries go
    through the caller's buffers: `d_gates` and `one_minus` shaped like
    `gates`, `dc` and `tmp` shaped like `c`. `dc_prev` may be `grad_c`, which
    is read before it is written, but not `dc`."""
    u = c.shape[-1]
    i, f, g, o = (gates[..., :u], gates[..., u:2 * u], gates[..., 2 * u:3 * u],
                  gates[..., 3 * u:])
    if grad_h is None:
        d_gates[..., 3 * u:] = 0.0
        dc = grad_c
    else:
        np.multiply(grad_h, tc, out=d_gates[..., 3 * u:])
        np.multiply(grad_h, o, out=dc)
        np.multiply(tc, tc, out=tmp)
        np.subtract(1.0, tmp, out=tmp)
        dc *= tmp
        if grad_c is not None:
            np.add(grad_c, dc, out=dc)
    np.multiply(dc, g, out=d_gates[..., :u])
    np.multiply(dc, c, out=d_gates[..., u:2 * u])
    np.multiply(dc, i, out=d_gates[..., 2 * u:3 * u])
    np.multiply(g, g, out=tmp)
    np.subtract(1.0, tmp, out=tmp)
    np.multiply(d_gates[..., 2 * u:3 * u], tmp, out=tmp)  # d(candidate)
    np.multiply(dc, f, out=dc_prev)
    np.subtract(1.0, gates, out=one_minus)
    np.multiply(d_gates, gates, out=out)
    out *= one_minus
    out[..., 2 * u:3 * u] = tmp
    return dc_prev


# Steps whose input projection a forward-only lstm_layer computes in one GEMM.
# The buffer then holds 32 steps instead of all of them (480 at the published
# window), while each GEMM still has 32 x batch rows. The forward-only seq2seq
# encoder streams chunks of the same length, so each of its lstm_layer calls
# projects its whole chunk in the GEMM the whole-sequence call would run.
_PROJECTION_CHUNK = 32


def lstm_layer(x, h0, c0, w_x, w_h, bias, read=None) -> tuple[Tensor, Tensor, Tensor]:
    """An LSTM layer as one three-output tape node. Over a (batch, steps, in)
    input it returns every step's h as (batch, steps, units), then the last h
    and c; a (batch, in) input is one step, and h comes back as (batch, units).
    The input may be a tuple of parts, such as a step input and the weather:
    the node joins them on the last axis and splits their gradient back.

    With pre = (x @ w_x + h @ w_h) + bias split into gate blocks (i, f, g, o),
    i, f, o = sigmoid and g = tanh, each step gives c' = f*c + i*g and
    h' = o*tanh(c'). The schedule is layer-major (Appleyard et al. 2016): one
    GEMM projects the input of every step into a (steps, batch, 4u) gate
    buffer, and the loop adds only h @ w_h and the gate arithmetic, operand
    for operand as the composite cell does, so the outputs equal those of a
    chain of composite cells. The reverse sweep keeps only dh @ w_hᵀ and
    elementwise work inside the loop, writing d(pre) over the gates; the x,
    w_x, w_h and bias gradients then take one GEMM or reduction each. Over
    one step these equal the composite's bitwise; over more they sum over
    steps in another order than the chain does, so the weight gradients may
    differ in the last bits. The rule frees its cache, so it runs once.
    Each sweep writes its step temporaries into scratch buffers of one step's
    size that it allocates once.

    `read`, a (w_q, b_q, kp_t, vp) tuple of the query projection, the keys
    transposed to (batch, width, keys) and the values (batch, keys, value
    width), makes each step first read an attention context (see
    _attend_step). Its query is (x_t, h) or h alone, whichever has w_q's row
    count, and the cell's input is (context, x_t), so w_x has the context's
    rows first. That input waits on h, so each step projects its own in one
    GEMM, and the reverse sweep runs the read's backward and forms each
    weight's gradient step by step, summing the steps from the last to the
    first. So the node equals, value for value and gradient for gradient, a
    chain of one-step nodes that each follow a node reading the context. The
    key and value gradients are one batched GEMM each over every step's rows.

    When no tape records the node, no backward cache is kept, the input is
    projected _PROJECTION_CHUNK steps at a time (one with a read), and the
    last h is a copy, so a caller that drops h_seq frees the step buffer.
    """
    parts, x = _join("lstm_layer", x)
    h0, c0, w_x, w_h, bias = (as_tensor(t) for t in (h0, c0, w_x, w_h, bias))
    rank = x.ndim
    if rank not in (2, 3) or rank == 3 and x.shape[1] == 0 or h0.data.ndim != 2:
        raise ShapeError(f"lstm_layer needs (batch, in) or (batch, steps>0, in) input and "
                         f"(batch, units) state, got {x.shape} and {h0.shape}")
    # A (batch, in) input is read as (batch, 1, in) through views.
    batch, steps, width = x.shape[0], x.shape[1] if rank == 3 else 1, x.shape[-1]
    u = h0.shape[1]
    inputs = parts + (h0, c0, w_x, w_h, bias)
    context = 0  # the width of the context that leads each step's cell input
    if read is not None:
        w_q, b_q, kp_t, vp = (as_tensor(t) for t in read)
        if (kp_t.data.ndim != 3 or kp_t.shape[0] != batch or w_q.data.ndim != 2
                or vp.data.ndim != 3 or vp.shape[:2] != (batch, kp_t.shape[2])
                or w_q.shape not in ((width + u, kp_t.shape[1]), (u, kp_t.shape[1]))
                or b_q.shape != (kp_t.shape[1],)):
            raise ShapeError(f"lstm_layer read does not fit: query (x {width}, h {u}) or h, "
                             f"w_q {w_q.shape}, b_q {b_q.shape}, keys {kp_t.shape} "
                             f"(batch, width, keys), values {vp.shape} (batch, keys, width)")
        context = vp.shape[-1]
        # A query that holds x_t lists the parts once more: their query
        # gradients are added after their cell gradients, as when a node of
        # its own read the context.
        joined = w_q.shape[0] == width + u
        inputs += (w_q, b_q, kp_t, vp) + (parts if joined else ())
    if (c0.shape != (batch, u) or h0.shape[0] != batch or w_x.shape != (context + width, 4 * u)
            or w_h.shape != (u, 4 * u) or bias.shape != (4 * u,)):
        raise ShapeError(f"lstm_layer shapes do not fit: x {x.shape}, h0 {h0.shape}, "
                         f"c0 {c0.shape}, w_x {w_x.shape}, w_h {w_h.shape}, bias {bias.shape}"
                         + (f", context width {context}" if context else ""))
    tape = _active_tape()
    requires = any(t.requires_grad for t in inputs)
    record = tape is not None and requires

    xs = np.swapaxes(x.reshape(batch, steps, width), 0, 1)  # (steps, batch, in)
    chunk = steps if record else 1 if read is not None else min(_PROJECTION_CHUNK, steps)
    gates = np.empty((chunk, batch, 4 * u))  # projections, then activations
    hs = np.empty((steps + 1, batch, u))
    hs[0] = h0.data
    if record:
        cs = np.empty((steps + 1, batch, u))
        cs[0] = c0.data
        tcs = np.empty((steps, batch, u))
    else:  # one c updated in place and one tanh(c) scratch
        c, tc = c0.data.copy(), np.empty((batch, u))
    if read is not None:
        # Each step's cell input (context, x_t) and query: (x_t, h) in a
        # buffer, or h itself, read from hs. The reverse sweep reads them
        # again, with every step's projected query and weights. Those are
        # kept step-major from the last step back, the order in which a
        # chain of one-step reads adds them, so that the key and value
        # gradients, one GEMM each over these rows, equal that chain's
        # bitwise (tests/reference_ops.py keeps it).
        cell_in = np.empty((chunk, batch, context + width))
        queries = np.empty((chunk, batch, width + u)) if joined else hs
        if record:
            qp_rows = np.empty((batch, steps, kp_t.shape[1]))
            weight_rows = np.empty((batch, steps, kp_t.shape[2]))
    # Step scratch, reused by every step: h @ w_h, the sigmoid's exp(-|pre|),
    # the finiteness mask, tanh(g) and i*g.
    hw, e = np.empty((2, batch, 4 * u))
    finite = np.empty((batch, 4 * u), dtype=bool)
    candidate, ig = np.empty((2, batch, u))
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values are rejected
        for t in range(steps):
            k = t % chunk
            if read is not None:
                query = (np.concatenate((xs[t], hs[t]), axis=1, out=queries[k]) if joined
                         else hs[t])
                qp, a, ctx = _attend_step(query, w_q.data, b_q.data, kp_t.data, vp.data)
                if record:
                    qp_rows[:, steps - 1 - t] = qp[:, 0]
                    weight_rows[:, steps - 1 - t] = a[:, 0]
                block = cell_in[k]
                block[:, :context] = ctx
                block[:, context:] = xs[t]
                np.matmul(block, w_x.data, out=gates[k])
            elif k == 0:
                n = min(chunk, steps - t)
                block = np.ascontiguousarray(xs[t:t + n]).reshape(n * batch, width)
                np.matmul(block, w_x.data, out=gates[:n].reshape(n * batch, 4 * u))
            pre = gates[k]  # (xw + hw) + bias, turned into activations in place
            np.matmul(hs[t], w_h.data, out=hw)
            pre += hw
            pre += bias.data
            _check_finite("lstm_layer", pre, finite)
            if record:
                _lstm_gates(pre, cs[t], cs[t + 1], tcs[t], hs[t + 1], e, candidate, ig)
            else:
                _lstm_gates(pre, c, c, tc, hs[t + 1], e, candidate, ig)
    h, c = (hs[steps], cs[steps].copy()) if record else (hs[steps].copy(), c)
    _check_finite("lstm_layer", c)
    _check_finite("lstm_layer", hs)
    h_seq = Tensor(np.swapaxes(hs[1:], 0, 1).reshape(x.shape[:-1] + (u,)),
                   requires_grad=requires)
    h_last, c_last = (Tensor(a, requires_grad=requires) for a in (h, c))
    if not record:
        return h_seq, h_last, c_last
    cache = ([gates, cs, tcs, block] if read is None
             else [gates, cs, tcs, cell_in, qp_rows, weight_rows])

    def grad_fn(grad_seq, grad_h, grad_c):
        if not cache:
            raise ContractError("lstm_layer backward ran twice on one tape")
        d_pre, cs, tcs, x_rows, *step_reads = cache
        cache.clear()
        ext = None if grad_seq is None else np.swapaxes(grad_seq.reshape(batch, steps, u), 0, 1)
        # Step scratch, reused by every step; each step reads the c gradient
        # in dc_prev before it writes the next one there.
        d_gates, one_minus = np.empty((2, batch, 4 * u))
        dc_step, tmp, dh_buf, dc_prev = np.empty((4, batch, u))
        w_h_t = _swap(w_h.data)
        x_grad = any(p.requires_grad for p in parts)
        if read is not None:
            qp_rows, weight_rows = step_reads
            # The score and context gradients, laid out as qp_rows is.
            d_score_rows = np.empty_like(weight_rows)
            g_rows = np.empty((batch, steps, context))
            # The x gradient through the cell by step, and through the query
            # when it holds x_t; the sums over the steps so far of the w_x,
            # w_h, bias, w_q and b_q gradients.
            d_x = np.empty((steps, batch, width)) if x_grad else None
            d_xq = np.empty((steps, batch, width)) if x_grad and joined else None
            sums = [None] * 5
        dh, dc = grad_h, grad_c  # the last h's gradient joins the last step's
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(steps - 1, -1, -1):
                if ext is not None:
                    dh = ext[t] if dh is None else np.add(ext[t], dh, out=dh_buf)
                dc = _lstm_pre_grad(dh, dc, d_pre[t], cs[t], tcs[t], d_pre[t], d_gates,
                                    one_minus, dc_step, tmp, dc_prev)
                if read is not None:
                    d_in = d_pre[t] @ _swap(w_x.data)  # (batch, context + in)
                    row = slice(steps - 1 - t, steps - t)
                    g_rows[:, row] = d_in[:, None, :context]
                    d_qp = _attend_step_grad(g_rows[:, row], weight_rows[:, row], kp_t.data,
                                             vp.data, d_score_rows[:, row])
                    d_query = (d_qp @ _swap(w_q.data)).reshape(batch, -1)
                    if d_x is not None:
                        d_x[t] = d_in[:, context:]
                    if d_xq is not None:
                        d_xq[t] = d_query[:, :width]
                    terms = (_swap(x_rows[t]) @ d_pre[t], _swap(hs[t]) @ d_pre[t],
                             d_pre[t].sum(axis=0), _swap(queries[t]) @ d_qp.reshape(batch, -1),
                             _unbroadcast(d_qp, b_q.shape))
                    for j, term in enumerate(terms):
                        sums[j] = term if sums[j] is None else np.add(sums[j], term, out=sums[j])
                if t or h0.requires_grad:
                    dh = np.matmul(d_pre[t], w_h_t, out=dh_buf)
                    if read is not None:
                        dh += d_query[:, -u:]  # the query's h part
            states = (dh if h0.requires_grad else None, dc if c0.requires_grad else None)
            if read is not None:
                def by_part(d):
                    return _split(None if d is None else np.swapaxes(d, 0, 1).reshape(x.shape),
                                  parts)

                return by_part(d_x) + states + tuple(
                    s if p.requires_grad else None
                    for s, p in zip(sums, (w_x, w_h, bias, w_q, b_q))
                ) + (
                    _swap(qp_rows) @ d_score_rows if kp_t.requires_grad else None,
                    _swap(weight_rows) @ g_rows if vp.requires_grad else None,
                ) + (by_part(d_xq) if joined else ())
            rows = d_pre.reshape(steps * batch, 4 * u)
            d_x = (np.swapaxes((rows @ _swap(w_x.data)).reshape(steps, batch, width), 0, 1)
                   .reshape(x.shape) if x_grad else None)
            return _split(d_x, parts) + states + (
                _swap(x_rows) @ rows if w_x.requires_grad else None,
                _swap(hs[:-1].reshape(steps * batch, u)) @ rows if w_h.requires_grad else None,
                rows.sum(axis=0) if bias.requires_grad else None,
            )

    tape.nodes.append(Node("lstm_layer", inputs, h_seq, grad_fn, aux=(h_last, c_last)))
    return h_seq, h_last, c_last


# ---------------------------------------------------------------------------
# Fused attention
# ---------------------------------------------------------------------------


def _attend_step(query, w_q, b_q, kp_t, vp) -> tuple:
    """One step's attention read for lstm_layer: softmax((qp @ kp_t) /
    sqrt(width)) @ vp with qp = query @ w_q + b_q, for a (batch, q) query.
    Each query is read as a (batch, 1, q) row, so the values repeat the
    affine/matmul/scale/softmax/matmul composite operand for operand. Returns
    qp and the weights, which the reverse sweep reads, and the (batch, value
    width) context. The caller holds the errstate."""
    scale = 1.0 / math.sqrt(kp_t.shape[-2])
    qp = query.reshape(query.shape[0], 1, -1) @ w_q  # (batch, 1, q) rows
    qp += b_q
    scores = (qp @ kp_t) * scale
    _check_finite("attention", scores)
    ex = np.exp(scores - scores.max(axis=-1, keepdims=True))
    weights = ex / ex.sum(axis=-1, keepdims=True)
    context = np.squeeze(weights @ vp, -2)
    _check_finite("attention", context)
    return qp, weights, context


def _attend_step_grad(g, weights, kp_t, vp, d_scores) -> np.ndarray:
    """The gradient that reaches _attend_step's qp from the (batch, 1,
    width) context gradient `g`, with the composite's operands; the score
    gradient goes into `d_scores`, shaped like the step's weights."""
    scale = 1.0 / math.sqrt(kp_t.shape[-2])
    d_weights = g @ _swap(vp)
    inner = (d_weights * weights).sum(axis=-1, keepdims=True)
    np.multiply(weights * (d_weights - inner), scale, out=d_scores)
    return d_scores @ _swap(kp_t)


# ---------------------------------------------------------------------------
# Fused loss
# ---------------------------------------------------------------------------


def summed_loss(kind: str, out, target: np.ndarray, floor: float, factor: float) -> Tensor:
    """`factor` times the KL divergence of `target` from `out` ("kl") or
    their squared error ("mse"), summed over every entry, as one tape node.

    KL terms with zero target probability contribute nothing; `out` is
    clamped to `floor` inside the logarithm only, and its gradient is zero
    wherever the clamp is active. Values and gradients are bitwise those of
    the composite of clamped_log, mul, sum, scale, add and scale nodes (kl)
    or sub, mul, sum and scale nodes (mse) that the tests keep as reference.
    """
    out = as_tensor(out)
    target = np.asarray(target, dtype=np.float64)
    if out.shape != target.shape:
        raise ContractError(
            f"{kind} loss shape mismatch: forecast {out.shape}, targets {target.shape}")
    if kind == "kl":
        if floor <= 0.0:
            raise ContractError("loss floor must be positive")
        safe = np.where(target > 0.0, target, 1.0)
        plogp = float((target * np.log(safe)).sum())
        clipped = np.maximum(out.data, floor)
        with np.errstate(over="ignore", invalid="ignore"):
            cross = (target * np.log(clipped)).sum()  # non-finite results are rejected in _emit
        value = (cross * -1.0 + plogp) * factor

        def grad_fn(g):
            d = np.full(out.shape, g * factor * -1.0) * target
            return (np.where(out.data > floor, d / clipped, 0.0),)
    elif kind == "mse":
        with np.errstate(over="ignore", invalid="ignore"):
            diff = out.data - target  # non-finite results are rejected in _emit
            value = (diff * diff).sum() * factor

        def grad_fn(g):
            d = np.full(out.shape, g * factor) * diff
            return (d + d,)
    else:
        raise ContractError(f"unknown loss kind {kind!r}; expected 'kl' or 'mse'")
    return _emit("loss", (out,), np.asarray(value), grad_fn)


# ---------------------------------------------------------------------------
# Backward pass and optimizer
# ---------------------------------------------------------------------------


def backward(tape: Tape, loss: Tensor) -> None:
    """Populate d(loss)/d(tensor) for every requires_grad tensor on the tape.

    The tape is replayed in exact reverse insertion order; contributions to a
    tensor consumed by several later nodes are summed. Gradients are added on
    top of whatever the buffers already hold; a tensor with no buffer yet
    takes a copy of its first contribution of its own shape, which equals
    zeros plus it except that a -0.0 stays -0.0. Every consumer of a node's
    output was recorded after it, so once the node's rule has run its outputs'
    gradients are complete and unused: they are dropped to free memory. The
    loss keeps its gradient, and so does every leaf (a tensor no node outputs).
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    loss.ensure_grad()[...] += 1.0
    for node in reversed(tape.nodes):
        outputs = (node.output,) + node.aux
        if all(t.grad is None for t in outputs):
            continue
        grads = node.grad_fn(*(t.grad for t in outputs))
        for t in outputs:
            if t is not loss:
                t.grad = None
        for t, gt in zip(node.inputs, grads):
            if gt is None or not t.requires_grad:
                continue
            if t.grad is None and gt.shape == t.data.shape:
                # The first contribution is copied, never adopted: a rule may
                # return one array, or views of one, for several inputs.
                t.grad = np.empty_like(t.data)
                np.copyto(t.grad, gt)
            else:
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
