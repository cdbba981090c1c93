"""`affine` and the in-place `gru_sequence` against the code they replaced,
compared with `np.array_equal`: the values must be the same bits, not close.

`affine(x, w, b)` records `x @ w + b` as one op where `Linear` recorded a
`matmul` and an `add`. `gru_sequence` builds each gate in place and skips the
zero-state work of its first read. The old per-step forward and backward are
kept here, as they were, and folded over the steps as the oracle.
"""

import itertools

import numpy as np
import pytest

from vqalab import tensor as T
from vqalab.encoder import gru_params_init
from vqalab.layers import Linear
from vqalab.tensor import ShapeError, Tensor


def leaf_grads(loss_fn, leaves):
    """Forward value and each leaf's gradient, the leaves starting from zero
    gradient arrays, as a model's parameters do."""
    for t in leaves:
        t.grad = np.zeros_like(t.data) if t.requires_grad else None
    with T.recording():
        out = loss_fn()
        T.backward(T.mul(out, Tensor(np.linspace(-1.0, 1.5, out.size).reshape(out.shape)))
                   .sum())
    return out.data, [t.grad for t in leaves]


def assert_bits(got, want):
    (out_g, grads_g), (out_w, grads_w) = got, want
    assert out_g.dtype == out_w.dtype and np.array_equal(out_g, out_w)
    for g, w in zip(grads_g, grads_w, strict=True):
        assert (g is None) == (w is None)
        if g is not None:
            assert g.dtype == w.dtype and np.array_equal(g, w)


# ---------------------------------------------------------------------------
# affine


@pytest.mark.parametrize("dtype,x_grad,shape", list(itertools.product(
    (np.float64, np.float32), (True, False), ((37, 9, 13), (1, 9, 1)))))
def test_affine_matches_matmul_then_add(dtype, x_grad, shape):
    # shape is (rows, d_in, d_out); one row and one output column are the edges
    rows, d_in, d_out = shape
    rng = np.random.default_rng(11)
    with T.using_dtype(dtype):
        x = Tensor(rng.normal(size=(rows, d_in)), requires_grad=x_grad)
        w = Tensor(rng.normal(size=(d_in, d_out)), requires_grad=True)
        b = Tensor(rng.normal(size=d_out), requires_grad=True)
        leaves = [x, w, b]
        assert_bits(leaf_grads(lambda: T.affine(x, w, b), leaves),
                    leaf_grads(lambda: T.add(T.matmul(x, w), b), leaves))


def test_linear_records_one_affine_op():
    rng = np.random.default_rng(12)
    layer = Linear(Tensor(rng.normal(size=(4, 3)), requires_grad=True),
                   Tensor(rng.normal(size=3), requires_grad=True))
    x = Tensor(rng.normal(size=(5, 4)))
    with T.recording() as tape:
        out = layer(x)
        assert [r.op for r in tape.records] == ["affine"]
        T.backward(out.sum())
    assert x.grad is None
    assert layer.weight.grad is not None and layer.bias.grad is not None


def test_affine_rejects_mismatched_shapes():
    x, w, b = Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 4))), Tensor(np.zeros(4))
    with pytest.raises(ShapeError, match="2-D"):
        T.affine(Tensor(np.zeros(3)), w, b)
    with pytest.raises(ShapeError, match="inner dimensions"):
        T.affine(x, Tensor(np.zeros((4, 4))), b)
    with pytest.raises(ShapeError, match="bias"):
        T.affine(x, w, Tensor(np.zeros(3)))
    with pytest.raises(ShapeError, match="bias"):
        T.affine(x, w, Tensor(np.zeros((2, 4))))


# ---------------------------------------------------------------------------
# gru_sequence


def old_gru_forward(x, h, wz, uz, bz, wr, ur, br, wc, uc, bc):
    z = 1.0 / (1.0 + np.exp(-(x @ wz + h @ uz + bz)))
    r = 1.0 / (1.0 + np.exp(-(x @ wr + h @ ur + br)))
    rh = r * h
    c = np.tanh(x @ wc + rh @ uc + bc)
    return (1.0 - z) * h + z * c, (x, h, z, r, rh, c)


def old_gru_backward(g, saved, weights, need_x, need_h):
    x, h, z, r, rh, c = saved
    wz, uz, _, wr, ur, _, wc, uc, _ = weights
    g_ac = g * z * (1.0 - c * c)
    g_az = g * (c - h) * z * (1.0 - z)
    g_rh = g_ac @ uc.T
    g_ar = g_rh * h * r * (1.0 - r)
    g_x = (g_az @ wz.T + g_ar @ wr.T + g_ac @ wc.T) if need_x else None
    g_h = (g * (1.0 - z) + g_rh * r + g_az @ uz.T + g_ar @ ur.T) if need_h else None
    return g_x, g_h, (x.T @ g_az, h.T @ g_az, g_az.sum(axis=0),
                      x.T @ g_ar, h.T @ g_ar, g_ar.sum(axis=0),
                      x.T @ g_ac, rh.T @ g_ac, g_ac.sum(axis=0))


def old_gru_sequence(xs, weights, reverse, need_x, g):
    """The final state, and the input and nine weight gradients for the
    state gradient g, as the old fold computed them."""
    steps, batch = xs.shape[:2]
    order = range(steps - 1, -1, -1) if reverse else range(steps)
    h = np.zeros((batch, weights[0].shape[1]), dtype=xs.dtype)
    saved = []
    for t in order:
        h, step = old_gru_forward(xs[t], h, *weights)
        saved.append(step)
    g_xs = np.empty_like(xs) if need_x else None
    g_w = None
    for i in range(steps - 1, -1, -1):
        g_x, g, g_step = old_gru_backward(g, saved[i], weights, need_x, i > 0)
        if need_x:
            g_xs[order[i]] = g_x
        g_w = g_step if g_w is None else tuple(a + b for a, b in zip(g_w, g_step))
    return h, g_xs, g_w


@pytest.mark.parametrize("batch,steps,reverse,x_grad", [
    (batch, steps, reverse, x_grad)
    for batch, steps in ((128, 4), (6, 3), (5, 1))
    for reverse, x_grad in itertools.product((False, True), (True, False))])
def test_gru_sequence_matches_the_old_fold(batch, steps, reverse, x_grad):
    rng = np.random.default_rng(1000 * batch + 10 * steps + reverse)
    params = gru_params_init(32, 16, seed=steps)
    weights = params.arrays()
    for t in weights[2::3]:                      # nonzero biases
        t.data[...] = rng.normal(size=t.shape)
    xs = Tensor(rng.normal(size=(steps, batch, 32)), requires_grad=x_grad)
    g = rng.normal(size=(batch, 16))
    for t in weights:
        t.grad = np.zeros_like(t.data)
    with T.recording():
        h = T.gru_sequence(xs, *weights, reverse=reverse)
        T.backward(T.mul(h, Tensor(g)).sum())

    want_h, want_xs, want_w = old_gru_sequence(xs.data, [t.data for t in weights], reverse,
                                               x_grad, g)
    assert np.array_equal(h.data, want_h)
    assert (xs.grad is None) != x_grad
    if x_grad:
        assert np.array_equal(xs.grad, want_xs)
    for t, want in zip(weights, want_w, strict=True):
        assert np.array_equal(t.grad, want)
