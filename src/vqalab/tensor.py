"""Dense tensors with reverse-mode automatic differentiation.

A Tensor wraps a numpy array plus an optional gradient. Operations are
recorded only inside a ``with recording() as tape:`` block, and only when an
input requires gradients; nothing records outside one. ``backward`` replays
the tape in reverse, adds into the leaves' ``grad`` arrays in place (which
``zero_grad`` zeroes in place) and consumes the tape. Leaving the block
releases whatever the tape still holds, so a forward pass without a
backward, or one cut short by an exception, leaves nothing behind. The
current tape and the default dtype are context variables: each thread has
its own.

The backward rules of matmul, affine, mul, scene_attention and gru_sequence
return None, computing nothing, for an input that did not require gradients
when the op was recorded.

Broadcasting is deliberately restricted: two operands must have equal
shapes, or one is a scalar, or the second operand's shape equals the
first's with the leading axis dropped (row-wise broadcast). Anything else
raises ShapeError.
"""

from __future__ import annotations

import contextlib
import contextvars
from typing import Callable, Iterable, Sequence

import numpy as np

_default_dtype = contextvars.ContextVar("default_dtype", default=np.float64)
_current_tape = contextvars.ContextVar("current_tape", default=None)


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible with an operation."""


def get_default_dtype():
    return _default_dtype.get()


@contextlib.contextmanager
def using_dtype(dtype):
    """Create tensors of this dtype (float64 or float32) inside the block."""
    if dtype not in (np.float64, np.float32):
        raise ValueError(f"unsupported dtype {dtype!r}; use float64 or float32")
    token = _default_dtype.set(dtype)
    try:
        yield
    finally:
        _default_dtype.reset(token)


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
    """Ordered record of the operations of one recording.

    A backward pass over it, or the end of its recording, consumes it: its
    records are released and it takes no more.
    """

    __slots__ = ("records", "consumed")

    def __init__(self):
        self.records: list[TapeRecord] = []
        self.consumed = False

    def append(self, record: TapeRecord) -> int:
        self.records.append(record)
        return len(self.records) - 1

    def release(self) -> None:
        self.records.clear()
        self.consumed = True

    def __len__(self) -> int:
        return len(self.records)


@contextlib.contextmanager
def recording():
    """Record operations on a fresh tape, yielded, until the block ends.

    On exit, normal or by exception, the tape's records are released.
    Recordings do not nest.
    """
    if _current_tape.get() is not None:
        raise RuntimeError("recording: a recording is already open")
    tape = Tape()
    token = _current_tape.set(tape)
    try:
        yield tape
    finally:
        _current_tape.reset(token)
        tape.release()


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_tape", "_index")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=_default_dtype.get())
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._tape: Tape | None = None
        self._index: int = -1

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        req = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{req})\n{self.data}"

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad[...] = 0

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def sum(self, axis=None):
        return reduce_sum(self, axis)

    def mean(self, axis=None):
        return reduce_mean(self, axis)

    def max(self, axis=None):
        return reduce_max(self, axis)

    def reshape(self, shape):
        return reshape(self, shape)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _record(op: str, inputs: tuple, out_data: np.ndarray,
            backward_fn: Callable[[np.ndarray], tuple]) -> Tensor:
    out = Tensor(out_data)
    tape = _current_tape.get()
    if tape is not None and any(t.requires_grad for t in inputs):
        if tape.consumed or any(t._tape is not None and t._tape is not tape
                                for t in inputs):
            raise RuntimeError(
                f"{op}: recording onto a consumed tape, or an input comes from "
                "one; rebuild the forward pass from leaves in a new recording")
        out.requires_grad = True
        out._tape = tape
        out._index = tape.append(TapeRecord(op, inputs, out, backward_fn))
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
    need_a, need_b = a.requires_grad, b.requires_grad
    def bw(g):
        return (g * b_data if need_a else None,
                _reduce_to(g * a_data, mode) if need_b else None)
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


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    a_data, b_data = a.data, b.data
    need_a, need_b = a.requires_grad, b.requires_grad
    def bw(g):
        return g @ b_data.T if need_a else None, a_data.T @ g if need_b else None
    return _record("matmul", (a, b), a_data @ b_data, bw)


def affine(x, w, b) -> Tensor:
    """x @ w + b as one tape op: x (B, d_in), w (d_in, d_out), b (d_out,). The
    bias is added in place into the product, so the values are those of
    `add(matmul(x, w), b)`, and so are the gradients."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.data.ndim != 2 or w.data.ndim != 2:
        raise ShapeError(f"affine expects 2-D operands, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[0]:
        raise ShapeError(f"affine inner dimensions disagree: {x.shape} @ {w.shape}")
    if b.shape != w.shape[1:]:
        raise ShapeError(f"affine: bias {b.shape} does not match output width {w.shape[1]}")
    x_data, w_data = x.data, w.data
    out = x_data @ w_data
    out += b.data
    need_x, need_w, need_b = x.requires_grad, w.requires_grad, b.requires_grad

    def bw(g):
        return (g @ w_data.T if need_x else None, x_data.T @ g if need_w else None,
                g.sum(axis=0) if need_b else None)
    return _record("affine", (x, w, b), out, bw)


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


def take_rows(a, index) -> Tensor:
    """Gather rows of a matrix: (m, n), index (B,) of ids in [0, m) -> (B, n),
    row i being a[index[i]]. A row may be taken any number of times, or not
    at all; the backward adds each row's gradients by a one-hot (m, B) matmul."""
    a = as_tensor(a)
    index = np.asarray(index, dtype=np.intp)
    if a.data.ndim != 2 or index.ndim != 1:
        raise ShapeError(f"take_rows: expects a matrix and a 1-D index, got shapes "
                         f"{a.shape} and {index.shape}")
    m = a.shape[0]
    if index.size and (index.min() < 0 or index.max() >= m):
        raise IndexError(f"take_rows: index out of range for {m} rows")
    def bw(g):
        return ((np.arange(m)[:, None] == index).astype(g.dtype) @ g,)
    return _record("take_rows", (a,), a.data[index], bw)


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
    x_data = x.data
    # the maximizers are found in the backward only: a forward without one never
    # looks for them
    if axis is None:
        def bw(g):
            out = np.zeros(in_shape, dtype=g.dtype)
            out.reshape(-1)[np.argmax(x_data)] = g
            return (out,)
        return _record("max", (x,), x_data.max(), bw)
    top = x_data.max(axis=axis)
    def bw(g):
        # one masked pass per position along the axis; `free` marks the outputs
        # whose gradient no earlier position has taken
        out = np.zeros(in_shape, dtype=g.dtype)
        slabs, out_slabs = np.moveaxis(x_data, axis, 0), np.moveaxis(out, axis, 0)
        free = np.ones(top.shape, dtype=bool)
        for slab, out_slab in zip(slabs, out_slabs):
            hit = slab == top
            hit &= free
            np.copyto(out_slab, g, where=hit)
            free ^= hit
        return (out,)
    return _record("max", (x,), top, bw)


def _check_axis(x: Tensor, axis, op: str) -> None:
    if axis is not None and not (-x.data.ndim <= axis < x.data.ndim):
        raise ShapeError(f"{op}: axis {axis} invalid for shape {x.shape}")


# ---------------------------------------------------------------------------
# batched helpers used by attention and classification heads


def scene_attention(words, score_column, labels, visual) -> tuple[Tensor, np.ndarray]:
    """Attention of step-major words over their scenes as one tape op.

    words (T*B, d_w), row t*B + b a word of scene b; score_column (d_w, 1);
    labels (B, k, d_w), scene data without gradient; visual (B, k, d_v).
    Row t*B + b scores object i as (words[t*B + b] * labels[b, i]) @
    score_column, softmaxed over the k objects with max-subtraction. Returns
    the attended visual features (T*B, d_v) as a Tensor and the weights
    (T*B, k) as an array. Each scene is scored and pooled by batched matmuls
    over its own T words; the scene is never repeated per word.
    """
    words, score_column = as_tensor(words), as_tensor(score_column)
    labels, visual = as_tensor(labels), as_tensor(visual)
    if labels.requires_grad:
        raise ShapeError("scene_attention: labels are scene data and take no gradient")
    if labels.data.ndim != 3 or visual.data.ndim != 3 or labels.shape[:2] != visual.shape[:2]:
        raise ShapeError(f"scene_attention: scene tensors disagree: visual {visual.shape}, "
                         f"labels {labels.shape}")
    batch, k, d_w = labels.shape
    if k < 1:
        raise ShapeError("scene_attention: a scene needs at least one object")
    if words.data.ndim != 2 or words.shape[1] != d_w or batch == 0 \
            or words.shape[0] % batch:
        raise ShapeError(f"scene_attention: words {words.shape} are not step-major rows "
                         f"of {batch} scenes with labels {labels.shape}")
    if score_column.shape != (d_w, 1):
        raise ShapeError(f"scene_attention: score column {score_column.shape} does not "
                         f"match word dim {d_w}")
    steps = words.shape[0] // batch
    w_data, s_row = words.data, score_column.data[:, 0]
    l_data, v_data = labels.data, visual.data
    # (B, T, *) views of the step-major rows: scene b's T words in one matmul
    scaled = (w_data * s_row).reshape(steps, batch, d_w).transpose(1, 0, 2)
    scores = scaled @ l_data.transpose(0, 2, 1)
    e = np.exp(scores - scores.max(axis=2, keepdims=True))
    alpha = e / e.sum(axis=2, keepdims=True)
    out = (alpha @ v_data).transpose(1, 0, 2).reshape(steps * batch, -1)
    need_w, need_s = words.requires_grad, score_column.requires_grad
    need_v = visual.requires_grad

    def bw(g):
        g = g.reshape(steps, batch, -1).transpose(1, 0, 2)
        g_alpha = g @ v_data.transpose(0, 2, 1)
        g_scores = alpha * (g_alpha - (g_alpha * alpha).sum(axis=2, keepdims=True))
        g_scaled = (g_scores @ l_data).transpose(1, 0, 2).reshape(steps * batch, d_w)
        return (g_scaled * s_row if need_w else None,
                (g_scaled * w_data).sum(axis=0)[:, None] if need_s else None,
                alpha.transpose(0, 2, 1) @ g if need_v else None)

    weights = alpha.transpose(1, 0, 2).reshape(steps * batch, k)
    return _record("scene_attention", (words, score_column, visual), out, bw), weights


def _sigmoid_in_place(a: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-a)), written over a, one operation at a time as the
    expression rounds."""
    np.negative(a, out=a)
    np.exp(a, out=a)
    a += 1.0
    return np.divide(1.0, a, out=a)


def _gru_forward(x, h, wz, uz, bz, wr, ur, br, wc, uc, bc):
    """One GRU step on arrays: the new state and what its backward reads.

    Each gate is built in place in its fresh input product, term by term in
    the order of the `gru_sequence` docstring, so it rounds as that expression.
    A state of None is the zero state: its products, the reset gate and
    (1 - z) * h are zero, so they are skipped and the new state is z * c.
    """
    z = x @ wz
    if h is not None:
        z += h @ uz
    z += bz
    _sigmoid_in_place(z)
    c = x @ wc
    if h is None:
        c += bc
        return z * np.tanh(c, out=c), (x, None, z, None, None, c)
    r = x @ wr
    r += h @ ur
    r += br
    _sigmoid_in_place(r)
    rh = r * h
    c += rh @ uc
    c += bc
    np.tanh(c, out=c)
    out = np.subtract(1.0, z)
    out *= h
    out += z * c
    return out, (x, h, z, r, rh, c)


def _gru_backward(g, saved, weights, need_x: bool, need_h: bool):
    """Gradients of one GRU step: (g_x or None, g_h or None, the nine weight
    gradients in GruParams order).

    Each product is built in place in a fresh array, factor by factor in the
    order of the expression beside it; g and the saved arrays are only read.
    From the zero state (saved h None) the reset gate takes no gradient, and
    the five weight gradients that multiply by the state are None.
    """
    x, h, z, r, rh, c = saved
    wz, uz, _, wr, ur, _, wc, uc, _ = weights
    # g_ac = g * z * (1 - c * c)
    g_ac = g * z
    scratch = np.multiply(c, c)
    g_ac *= np.subtract(1.0, scratch, out=scratch)
    # g_az = g * (c - h) * z * (1 - z), c - h being c at the zero state
    if h is None:
        g_az = g * c
    else:
        g_az = np.subtract(c, h)
        g_az *= g
    g_az *= z
    one_minus_z = np.subtract(1.0, z, out=scratch)
    g_az *= one_minus_z
    # g_x = g_az @ wz.T + g_ar @ wr.T + g_ac @ wc.T
    g_x = g_az @ wz.T if need_x else None
    if h is None:
        if need_x:
            g_x += g_ac @ wc.T
        return g_x, None, (x.T @ g_az, None, g_az.sum(axis=0), None, None, None,
                           x.T @ g_ac, None, g_ac.sum(axis=0))
    g_rh = g_ac @ uc.T
    # g_ar = g_rh * h * r * (1 - r)
    g_ar = g_rh * h
    g_ar *= r
    g_ar *= np.subtract(1.0, r)
    if need_x:
        g_x += g_ar @ wr.T
        g_x += g_ac @ wc.T
    g_h = None
    if need_h:
        # g_h = g * (1 - z) + g_rh * r + g_az @ uz.T + g_ar @ ur.T
        g_h = np.multiply(g, one_minus_z, out=one_minus_z)
        g_rh *= r
        g_h += g_rh
        g_h += g_az @ uz.T
        g_h += g_ar @ ur.T
    return g_x, g_h, (x.T @ g_az, h.T @ g_az, g_az.sum(axis=0),
                      x.T @ g_ar, h.T @ g_ar, g_ar.sum(axis=0),
                      x.T @ g_ac, rh.T @ g_ac, g_ac.sum(axis=0))


def gru_sequence(xs, w_update, u_update, b_update, w_reset, u_reset, b_reset,
                 w_cand, u_cand, b_cand, reverse: bool = False) -> Tensor:
    """A GRU read over a sequence as one tape op: xs (T, B, d_in) -> the final
    (B, H) state, from a zero state, over steps T-1 .. 0 when reverse.

    Each step is z = sigmoid(x Wz + h Uz + bz), r = sigmoid(x Wr + h Ur + br),
    c = tanh(x Wc + (r * h) Uc + bc) and the new state (1 - z) * h + z * c,
    each term added in that order, so its value rounds as `encoder.gru_cell`,
    the same step composed from primitive tape ops. The first read starts
    from the zero state, so it skips every product with the state and the
    reset gate (see `_gru_forward`): the values are the same. The backward
    runs the steps from the last read to the first and sums each weight's
    gradient across steps in that order, in place; the first read adds
    nothing to the five gradients that multiply by the state. The gradients
    add their terms in another order than a fold of `gru_cell` records, so
    they agree with it to rounding.
    """
    xs = as_tensor(xs)
    weights = tuple(as_tensor(t) for t in (w_update, u_update, b_update, w_reset,
                                           u_reset, b_reset, w_cand, u_cand, b_cand))
    if xs.data.ndim != 3 or xs.shape[0] < 1:
        raise ShapeError(f"gru_sequence: inputs {xs.shape} are not (T, B, d_in) with T >= 1")
    steps, _, width = xs.shape
    if weights[0].data.ndim != 2:
        raise ShapeError(f"gru_sequence: w_update {weights[0].shape} is not (d_in, hidden)")
    d_in, hidden = weights[0].shape
    if width != d_in:
        raise ShapeError(f"gru_sequence: steps of {xs.shape[1:]} are not row-batches of "
                         f"the parameter dims ({d_in}, {hidden})")
    for t, shape in zip(weights, ((d_in, hidden), (hidden, hidden), (hidden,)) * 3):
        if t.shape != shape:
            raise ShapeError(f"gru_sequence: weights of shapes {[w.shape for w in weights]} "
                             f"do not form a GRU of dims ({d_in}, {hidden})")
    data = tuple(t.data for t in weights)
    order = range(steps - 1, -1, -1) if reverse else range(steps)
    h = None
    saved = []
    for t in order:
        h, step = _gru_forward(xs.data[t], h, *data)
        saved.append(step)
    need_x = xs.requires_grad

    def bw(g):
        g_xs = np.empty_like(xs.data) if need_x else None
        g_w = [None] * len(data)
        for i in range(steps - 1, -1, -1):
            g_x, g, g_step = _gru_backward(g, saved[i], data, need_x, i > 0)
            if need_x:
                g_xs[order[i]] = g_x
            for j, part in enumerate(g_step):
                if g_w[j] is None:
                    g_w[j] = part
                elif part is not None:
                    g_w[j] += part
        # a one-step read has only the zero state: its five state gradients are 0
        return (g_xs, *(np.zeros_like(w) if gw is None else gw for w, gw in zip(data, g_w)))

    return _record("gru_sequence", (xs, *weights), h, bw)


def block_bilinear(px, py, wx_chunks: Sequence, bx_chunks: Sequence,
                   wy_chunks: Sequence, by_chunks: Sequence, rank: int) -> Tensor:
    """Block-term bilinear core: (k*N, P) x (N, P) -> (k*N, P_out), chunk by chunk.

    Row i of px pairs with row i mod N of py: px is k blocks of N rows, each
    paired row for row with py, so py is projected once and every product
    runs over k*N contiguous rows. The factor weights set the chunk layout:
    chunk c has rank-stacked weights (P_c, R*O_c), column r*O_c + o for rank
    r, and biases (R*O_c,), the same on both sides. It reads the next P_c
    columns of px and py and writes the next O_c output columns, both from
    column 0, so P is the sum of the P_c and P_out that of the O_c. With
    u = px_c @ Wx_c + bx_c and v = py_c @ Wy_c + by_c, the output chunk is
    (u * v) @ S_c, where S_c stacks R (O_c, O_c) identities: the sum over
    ranks of the (u * v) column blocks. Factors that do not stack so raise
    ShapeError.
    """
    px, py = as_tensor(px), as_tensor(py)
    wx, bx = [as_tensor(w) for w in wx_chunks], [as_tensor(b) for b in bx_chunks]
    wy, by = [as_tensor(w) for w in wy_chunks], [as_tensor(b) for b in by_chunks]
    if not isinstance(rank, (int, np.integer)) or rank < 1:
        raise ShapeError(f"block_bilinear: rank {rank!r} is not an int of at least 1")
    if not wx or not len(wx) == len(bx) == len(wy) == len(by):
        raise ShapeError(f"block_bilinear: {len(wx)}/{len(wy)} factor weights and "
                         f"{len(bx)}/{len(by)} biases do not give both sides the same chunks")
    x_bounds, out_bounds = [0], [0]
    for c, w in enumerate(wx):
        if w.data.ndim != 2 or wy[c].shape != w.shape or w.shape[1] % rank \
                or bx[c].shape != w.shape[1:] or by[c].shape != w.shape[1:]:
            raise ShapeError(f"block_bilinear: chunk {c} factor weights {w.shape}, "
                             f"{wy[c].shape} and biases {bx[c].shape}, {by[c].shape} do "
                             f"not stack {rank} ranks")
        x_bounds.append(x_bounds[-1] + w.shape[0])
        out_bounds.append(out_bounds[-1] + w.shape[1] // rank)
    if px.data.ndim != 2 or py.data.ndim != 2 or px.shape[1] != py.shape[1] \
            or px.shape[1] != x_bounds[-1]:
        raise ShapeError(f"block_bilinear: inputs {px.shape}, {py.shape} do not match "
                         f"{x_bounds[-1]} chunked columns")
    n = py.shape[0]
    if n == 0 or px.shape[0] % n:
        raise ShapeError(f"block_bilinear: {px.shape[0]} x rows are not a multiple of "
                         f"{n} y rows")
    k = px.shape[0] // n
    # chunk c reads columns xs:xe of px and py and writes columns os_:oe
    chunks = list(zip(zip(x_bounds, x_bounds[1:]), zip(out_bounds, out_bounds[1:])))

    px_data, py_data = px.data, py.data
    wx_data, wy_data = [w.data for w in wx], [w.data for w in wy]
    rows, dtype = px.shape[0], px_data.dtype
    # S_c for each output width: R stacked identities
    rank_sums = {w: np.tile(np.eye(w, dtype=dtype), (rank, 1))
                 for w in {oe - os_ for _, (os_, oe) in chunks}}
    # u * v, and in the backward g_uv and g_u, live one chunk at a time in
    # buffers sized for the widest chunk
    largest = rows * rank * max(rank_sums)
    out = np.empty((rows, out_bounds[-1]), dtype=dtype)
    uv_buf = np.empty(largest, dtype=dtype)
    saved = []
    for c, ((xs, xe), (os_, oe)) in enumerate(chunks):
        u = px_data[:, xs:xe] @ wx_data[c]
        v = py_data[:, xs:xe] @ wy_data[c]
        u += bx[c].data
        v += by[c].data
        uv = uv_buf[:u.size].reshape(k, n, -1)
        np.multiply(u.reshape(k, n, -1), v, out=uv)
        np.matmul(uv.reshape(u.shape), rank_sums[oe - os_], out=out[:, os_:oe])
        saved.append((u, v))

    def bw(g):
        g_px, g_py = np.empty_like(px_data), np.empty_like(py_data)
        g_uv_buf, g_u_buf = np.empty(largest, dtype=g.dtype), np.empty(largest, dtype=g.dtype)
        # bias gradients as gemv column sums: an axis-0 sum runs one short loop per row
        ones = np.ones(rows, dtype=g.dtype)
        g_wx, g_wy, g_bx, g_by = [], [], [], []
        for c, ((xs, xe), (os_, oe)) in enumerate(chunks):
            u, v = saved[c]
            g_uv = g_uv_buf[:u.size].reshape(k, n, -1)
            np.matmul(g[:, os_:oe], rank_sums[oe - os_].T, out=g_uv.reshape(u.shape))
            g_u = np.multiply(g_uv, v, out=g_u_buf[:u.size].reshape(k, n, -1)).reshape(u.shape)
            g_uv *= u.reshape(k, n, -1)
            g_v = g_uv.sum(axis=0)
            np.matmul(g_u, wx_data[c].T, out=g_px[:, xs:xe])
            np.matmul(g_v, wy_data[c].T, out=g_py[:, xs:xe])
            g_wx.append(px_data[:, xs:xe].T @ g_u)
            g_wy.append(py_data[:, xs:xe].T @ g_v)
            g_bx.append(ones @ g_u)
            g_by.append(ones[:n] @ g_v)
        return (g_px, g_py, *g_wx, *g_bx, *g_wy, *g_by)

    return _record("block_bilinear", (px, py, *wx, *bx, *wy, *by), out, bw)


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

    The root must be scalar and recorded on the current tape. Records up to
    the root are replayed once in reverse order, then the tape is consumed.
    Leaf gradients are added into their grad arrays in place (zeros first
    if None), so later backward passes accumulate until zero_grad.
    """
    if root.size != 1:
        raise ShapeError(f"backward root must be scalar, got shape {root.shape}")
    tape = root._tape
    if tape is None:
        if root.requires_grad:
            if root.grad is None:
                root.grad = np.zeros_like(root.data)
            root.grad += np.ones_like(root.data)
            return
        raise RuntimeError("backward: no recorded operation reaches root; run the "
                           "forward pass inside T.recording()")
    if tape.consumed or tape is not _current_tape.get():
        raise RuntimeError("backward: the tape behind this tensor was already "
                           "consumed; rebuild the forward pass in a new recording")
    # by record index, added out of place: a rule may return one array twice
    grads: list[np.ndarray | None] = [None] * (root._index + 1)
    grads[root._index] = np.ones_like(root.data)
    for index in range(root._index, -1, -1):
        g_out, grads[index] = grads[index], None
        if g_out is None:
            continue
        record = tape.records[index]
        for tensor, g in zip(record.inputs, record.backward_fn(g_out)):
            if not tensor.requires_grad or g is None:
                continue
            if tensor._tape is None:
                if tensor.grad is None:
                    tensor.grad = np.zeros_like(tensor.data)
                tensor.grad += g
            else:
                i = tensor._index
                grads[i] = g if grads[i] is None else grads[i] + g
    tape.release()


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, eps: float = 1e-5) -> float:
    """Compare the analytic gradient of scalar f at x with central differences.

    Returns max over coordinates of |analytic - numeric| / max(1, |analytic|,
    |numeric|). f must be deterministic.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not x.requires_grad:
        raise ValueError("grad_check target must require gradients")
    saved_grad, x.grad = x.grad, None
    try:
        with recording():
            out = f(x)
            if out.size != 1:
                raise ShapeError(f"grad_check function must return a scalar, got shape {out.shape}")
            backward(out)
        analytic = np.zeros_like(x.data) if x.grad is None else x.grad
    finally:
        x.grad = saved_grad

    numeric = np.empty_like(x.data)
    flat = x.data.reshape(-1)
    num_flat = numeric.reshape(-1)
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
