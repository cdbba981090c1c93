"""Dense tensors with reverse-mode automatic differentiation.

A Tensor wraps a numpy array plus an optional gradient. Operations on
tensors that require gradients are recorded on a tape; ``backward`` replays
the tape in reverse and accumulates gradients into the leaves. The tape
belongs to one logical execution context and is discarded after backward.

Broadcasting is deliberately restricted: two operands must have equal
shapes, or one is a scalar, or the second operand's shape equals the
first's with the leading axis dropped (row-wise broadcast). Anything else
raises ShapeError.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Sequence

import numpy as np

_default_dtype = np.float64


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible with an operation."""


def set_default_dtype(dtype) -> None:
    """Set the dtype used for newly created tensors (float64 or float32)."""
    global _default_dtype
    if dtype not in (np.float64, np.float32):
        raise ValueError(f"unsupported dtype {dtype!r}; use float64 or float32")
    _default_dtype = dtype


def get_default_dtype():
    return _default_dtype


@contextlib.contextmanager
def using_dtype(dtype):
    prev = _default_dtype
    set_default_dtype(dtype)
    try:
        yield
    finally:
        set_default_dtype(prev)


class TapeRecord:
    """One recorded operation: inputs, output, and its backward rule."""

    __slots__ = ("op", "inputs", "output", "backward_fn")

    def __init__(self, op: str, inputs: tuple, output: "Tensor",
                 backward_fn: Callable[[np.ndarray], tuple]):
        self.op = op
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn


class Tape:
    """Ordered record of operations for one forward pass.

    Clearing bumps the generation; tensors produced under an older
    generation cannot feed new records or a backward pass.
    """

    __slots__ = ("records", "generation")

    def __init__(self):
        self.records: list[TapeRecord] = []
        self.generation = 0

    def append(self, record: TapeRecord) -> int:
        self.records.append(record)
        return len(self.records) - 1

    def clear(self) -> None:
        self.records.clear()
        self.generation += 1

    def __len__(self) -> int:
        return len(self.records)


_tape = Tape()
_grad_enabled = True


def active_tape() -> Tape:
    return _tape


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (evaluation, finite differences)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_tape", "_index", "_generation")

    def __init__(self, data, requires_grad: bool = False):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=_default_dtype)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._tape: Tape | None = None
        self._index: int = -1
        self._generation: int = -1

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def is_leaf(self) -> bool:
        return self._tape is None

    def __repr__(self) -> str:
        req = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{req})\n{self.data}"

    def zero_grad(self) -> None:
        self.grad = None

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    # operator sugar; scalars are lifted automatically
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None):
        return reduce_sum(self, axis)

    def mean(self, axis=None):
        return reduce_mean(self, axis)

    def max(self, axis=None):
        return reduce_max(self, axis)

    def reshape(self, shape):
        return reshape(self, shape)

    def backward(self) -> None:
        backward(self)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _record(op: str, inputs: tuple, out_data: np.ndarray,
            backward_fn: Callable[[np.ndarray], tuple]) -> Tensor:
    out = Tensor(out_data)
    if _grad_enabled and any(isinstance(t, Tensor) and t.requires_grad for t in inputs):
        for t in inputs:
            if isinstance(t, Tensor) and t._tape is not None \
                    and t._generation != t._tape.generation:
                raise RuntimeError(
                    f"{op}: input comes from a tape that was already consumed "
                    "by backward; rebuild the forward pass from leaves")
        out.requires_grad = True
        out._tape = _tape
        out._index = _tape.append(TapeRecord(op, inputs, out, backward_fn))
        out._generation = _tape.generation
    return out


def _broadcast_mode(a: Tensor, b: Tensor, op: str) -> str:
    """equal | scalar | row (b replicated along a's leading axis)."""
    if a.shape == b.shape:
        return "equal"
    if b.data.ndim == 0:
        return "scalar"
    if b.data.ndim == a.data.ndim - 1 and a.shape[1:] == b.shape:
        return "row"
    raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} are not equal, "
                     "scalar, or row-broadcastable along the leading axis")


def _reduce_to(g: np.ndarray, mode: str) -> np.ndarray:
    if mode == "equal":
        return g
    if mode == "scalar":
        return g.sum()
    return g.sum(axis=0)


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim == 0 and b.data.ndim > 0:
        a, b = b, a
    mode = _broadcast_mode(a, b, "add")
    def bw(g):
        return g, _reduce_to(g, mode)
    return _record("add", (a, b), a.data + b.data, bw)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim == 0 and b.data.ndim > 0:
        return add(scale(b, -1.0), a)
    mode = _broadcast_mode(a, b, "sub")
    def bw(g):
        return g, -_reduce_to(g, mode)
    return _record("sub", (a, b), a.data - b.data, bw)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim == 0 and b.data.ndim > 0:
        a, b = b, a
    mode = _broadcast_mode(a, b, "mul")
    a_data, b_data = a.data, b.data
    def bw(g):
        return g * b_data, _reduce_to(g * a_data, mode)
    return _record("mul", (a, b), a_data * b_data, bw)


def scale(a, s: float) -> Tensor:
    a = as_tensor(a)
    s = float(s)
    def bw(g):
        return (g * s,)
    return _record("scale", (a,), a.data * s, bw)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    out = 1.0 / (1.0 + np.exp(-a.data))
    def bw(g):
        return (g * out * (1.0 - out),)
    return _record("sigmoid", (a,), out, bw)


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out = np.tanh(a.data)
    def bw(g):
        return (g * (1.0 - out * out),)
    return _record("tanh", (a,), out, bw)


def relu(a) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0
    def bw(g):
        return (g * mask,)
    return _record("relu", (a,), a.data * mask, bw)


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = np.exp(a.data)
    def bw(g):
        return (g * out,)
    return _record("exp", (a,), out, bw)


def log(a) -> Tensor:
    a = as_tensor(a)
    a_data = a.data
    def bw(g):
        return (g / a_data,)
    return _record("log", (a,), np.log(a_data), bw)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    a_data, b_data = a.data, b.data
    def bw(g):
        return g @ b_data.T, a_data.T @ g
    return _record("matmul", (a, b), a_data @ b_data, bw)


def dot(x, y) -> Tensor:
    x, y = as_tensor(x), as_tensor(y)
    if x.data.ndim != 1 or x.shape != y.shape:
        raise ShapeError(f"dot expects equal-length vectors, got {x.shape} and {y.shape}")
    x_data, y_data = x.data, y.data
    def bw(g):
        return g * y_data, g * x_data
    return _record("dot", (x, y), x_data @ y_data, bw)


# ---------------------------------------------------------------------------
# shape manipulation


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    shape = tuple(int(s) for s in shape)
    old_shape = a.shape
    def bw(g):
        return (g.reshape(old_shape),)
    return _record("reshape", (a,), a.data.reshape(shape), bw)


def concat(parts: Sequence, axis: int = 0) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    if not parts:
        raise ShapeError("concat of zero tensors")
    widths = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + widths)
    def bw(g):
        return tuple(np.take(g, range(offsets[i], offsets[i + 1]), axis=axis)
                     for i in range(len(parts)))
    return _record("concat", tuple(parts), np.concatenate([p.data for p in parts], axis=axis), bw)


def narrow(a, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start+length) along one axis."""
    a = as_tensor(a)
    if not (0 <= start and start + length <= a.shape[axis]):
        raise ShapeError(f"narrow [{start}:{start + length}) out of range for "
                         f"axis {axis} of shape {a.shape}")
    idx = tuple(slice(None) if d != axis else slice(start, start + length)
                for d in range(a.data.ndim))
    full_shape = a.shape
    def bw(g):
        out = np.zeros(full_shape, dtype=g.dtype)
        out[idx] = g
        return (out,)
    return _record("narrow", (a,), a.data[idx].copy(), bw)


def repeat_rows(a, r: int) -> Tensor:
    """Repeat each row of a matrix r consecutive times: (m, n) -> (m*r, n)."""
    a = as_tensor(a)
    if a.data.ndim != 2:
        raise ShapeError(f"repeat_rows expects a matrix, got shape {a.shape}")
    m, n = a.shape
    def bw(g):
        return (g.reshape(m, r, n).sum(axis=1),)
    return _record("repeat_rows", (a,), np.repeat(a.data, r, axis=0), bw)


# ---------------------------------------------------------------------------
# softmax and reductions


def softmax(x, axis: int = -1) -> Tensor:
    """Numerically stable softmax along one axis (max-subtraction)."""
    x = as_tensor(x)
    if x.size == 0:
        raise ShapeError("softmax of an empty tensor")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)
    def bw(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - inner),)
    return _record("softmax", (x,), out, bw)


def reduce_sum(x, axis=None) -> Tensor:
    x = as_tensor(x)
    _check_axis(x, axis, "sum")
    in_shape = x.shape
    def bw(g):
        if axis is None:
            return (np.broadcast_to(g, in_shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis), in_shape).copy(),)
    return _record("sum", (x,), x.data.sum(axis=axis), bw)


def reduce_mean(x, axis=None) -> Tensor:
    x = as_tensor(x)
    _check_axis(x, axis, "mean")
    in_shape = x.shape
    count = x.size if axis is None else in_shape[axis]
    def bw(g):
        if axis is None:
            return (np.broadcast_to(g / count, in_shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis), in_shape) / count,)
    return _record("mean", (x,), x.data.mean(axis=axis), bw)


def reduce_max(x, axis=None) -> Tensor:
    """Max reduction; gradient flows to the first maximizer only on ties."""
    x = as_tensor(x)
    _check_axis(x, axis, "max")
    in_shape = x.shape
    if axis is None:
        arg = int(x.data.argmax())
        def bw(g):
            out = np.zeros(in_shape, dtype=g.dtype)
            out.reshape(-1)[arg] = g
            return (out,)
        return _record("max", (x,), x.data.max(), bw)
    arg = x.data.argmax(axis=axis)
    def bw(g):
        out = np.zeros(in_shape, dtype=g.dtype)
        np.put_along_axis(out, np.expand_dims(arg, axis), np.expand_dims(g, axis), axis=axis)
        return (out,)
    return _record("max", (x,), x.data.max(axis=axis), bw)


def _check_axis(x: Tensor, axis, op: str) -> None:
    if axis is not None and not (-x.data.ndim <= axis < x.data.ndim):
        raise ShapeError(f"{op}: axis {axis} invalid for shape {x.shape}")


# ---------------------------------------------------------------------------
# batched helpers used by attention and classification heads


def attend(weights, values) -> Tensor:
    """Per-row weighted sum: (B, k) weights over (B, k, d) values -> (B, d)."""
    weights, values = as_tensor(weights), as_tensor(values)
    if weights.data.ndim != 2 or values.data.ndim != 3 \
            or weights.shape != values.shape[:2]:
        raise ShapeError(f"attend: weights {weights.shape} do not match values {values.shape}")
    w_data, v_data = weights.data, values.data
    def bw(g):
        return (np.einsum("bd,bkd->bk", g, v_data),
                np.einsum("bk,bd->bkd", w_data, g))
    return _record("attend", (weights, values), np.einsum("bk,bkd->bd", w_data, v_data), bw)


def rows_pick(x, ids) -> Tensor:
    """Pick one entry per row: (B, n), ids (B,) -> (B,)."""
    x = as_tensor(x)
    ids = np.asarray(ids, dtype=np.intp)
    if x.data.ndim != 2 or ids.shape != (x.shape[0],):
        raise ShapeError(f"rows_pick: ids shape {ids.shape} does not match rows of {x.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= x.shape[1]):
        raise IndexError(f"rows_pick: index out of range for {x.shape[1]} columns")
    rows = np.arange(x.shape[0])
    in_shape = x.shape
    def bw(g):
        out = np.zeros(in_shape, dtype=g.dtype)
        out[rows, ids] = g
        return (out,)
    return _record("rows_pick", (x,), x.data[rows, ids].copy(), bw)


def logsumexp_rows(x) -> Tensor:
    """Row-wise log(sum(exp(x))) with max-subtraction; gradient is row softmax."""
    x = as_tensor(x)
    if x.data.ndim != 2:
        raise ShapeError(f"logsumexp_rows expects a matrix, got {x.shape}")
    m = x.data.max(axis=1, keepdims=True)
    e = np.exp(x.data - m)
    s = e.sum(axis=1, keepdims=True)
    out = (m + np.log(s)).reshape(-1)
    soft = e / s
    def bw(g):
        return (soft * g[:, None],)
    return _record("logsumexp_rows", (x,), out, bw)


# ---------------------------------------------------------------------------
# backward pass and the finite-difference oracle


def backward(root: Tensor) -> None:
    """Accumulate d(root)/d(leaf) into every requires_grad leaf.

    The root must be scalar. The active tape is consumed: records up to the
    root are replayed once in reverse order, then the tape is discarded.
    Repeated backward calls (over fresh forward passes) accumulate into
    leaf gradients until zero_grad.
    """
    if root.size != 1:
        raise ShapeError(f"backward root must be scalar, got shape {root.shape}")
    if root._tape is None:
        if root.requires_grad:
            if root.grad is None:
                root.grad = np.zeros_like(root.data)
            root.grad = root.grad + np.ones_like(root.data)
            return
        raise RuntimeError("backward: tape does not reach root (no recorded operations)")

    tape = root._tape
    if root._generation != tape.generation:
        raise RuntimeError("backward: the tape behind this tensor was already "
                           "consumed; rebuild the forward pass")
    grads: dict[int, np.ndarray] = {id(root): np.ones_like(root.data)}
    for record in reversed(tape.records[: root._index + 1]):
        g_out = grads.pop(id(record.output), None)
        if g_out is None:
            continue
        in_grads = record.backward_fn(g_out)
        for tensor, g in zip(record.inputs, in_grads):
            if not isinstance(tensor, Tensor) or not tensor.requires_grad or g is None:
                continue
            if tensor.is_leaf:
                if tensor.grad is None:
                    tensor.grad = np.zeros_like(tensor.data)
                tensor.grad = tensor.grad + g
            else:
                key = id(tensor)
                if key in grads:
                    grads[key] = grads[key] + g
                else:
                    grads[key] = g
    tape.clear()


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, eps: float = 1e-5) -> float:
    """Compare the analytic gradient of scalar f at x with central differences.

    Returns max over coordinates of |analytic - numeric| / max(1, |analytic|,
    |numeric|). f must be deterministic.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not x.requires_grad:
        raise ValueError("grad_check target must require gradients")
    saved_grad = x.grad
    x.grad = None
    out = f(x)
    if out.size != 1:
        raise ShapeError(f"grad_check function must return a scalar, got shape {out.shape}")
    backward(out)
    analytic = np.zeros_like(x.data) if x.grad is None else x.grad.copy()
    x.grad = saved_grad

    numeric = np.empty_like(x.data)
    flat = x.data.reshape(-1)
    num_flat = numeric.reshape(-1)
    with no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = float(f(x).data.reshape(-1)[0])
            flat[i] = orig - eps
            f_minus = float(f(x).data.reshape(-1)[0])
            flat[i] = orig
            num_flat[i] = (f_plus - f_minus) / (2.0 * eps)

    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))


def zero_grads(tensors: Iterable[Tensor]) -> None:
    for t in tensors:
        t.zero_grad()
