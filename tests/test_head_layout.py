"""The object-major head against the scene-major head it replaced.

`forward_batch` stores the head's object rows object-major (row o*B + b), so
`block_bilinear` pairs x row i with question row i mod B, sums a chunk's ranks
with one 0/1 matmul, and `reduce_max` pools over the leading axis with one
masked pass per object. The scene-major head (row b*k + o, question row
i // k, rank blocks added in order, `np.tile` in the backward, pooling by
argmax and `put_along_axis`) is kept here as the oracle. One full training
step, dropout included, must give bit-equal logits; the loss and every
parameter gradient, whose weight and bias gradients now sum the rows in
another order, must agree to 1e-12 relative.
"""

import numpy as np
import pytest

from vqalab import model as M, tensor as T
from vqalab.fusion import block_fuse
from vqalab.model import FusionConfig, ModelConfig, forward_batch, init_model
from vqalab.tensor import Tensor
from vqalab.train import cross_entropy_rows

TINY = dict(d_v=6, d_w=5, hidden=4, refined_dim=4, grounded_dim=6, pooled_dim=6,
            answer_count=8, vocab_size=9,
            vgw_fusion=FusionConfig(6, 6, 2, 2), obj_fusion=FusionConfig(6, 6, 2, 2))

# (config fields, B, k, T): the default model at the default batch, and TINY
SIZES = {"default": ({}, 128, 8, 4), "tiny": (TINY, 4, 3, 3)}

REL = 1e-12


def scene_major_block_bilinear(px, py, wx, bx, wy, by, rank):
    """block_bilinear with x row i paired with y row i // k, ranks added block by block."""
    px, py = T.as_tensor(px), T.as_tensor(py)
    n = py.shape[0]
    k = px.shape[0] // n
    px_data, py_data = px.data, py.data
    wx_data, wy_data = [w.data for w in wx], [w.data for w in wy]
    # chunk c reads the next wx[c].shape[0] columns and writes the next
    # wx[c].shape[1] // rank, from column 0
    x_bounds = np.cumsum([0] + [w.shape[0] for w in wx_data])
    out_bounds = np.cumsum([0] + [w.shape[1] // rank for w in wx_data])
    chunks = list(zip(zip(x_bounds, x_bounds[1:]), zip(out_bounds, out_bounds[1:])))
    out = np.empty((px.shape[0], out_bounds[-1]), dtype=px_data.dtype)
    saved = []
    for c, ((xs, xe), (os_, oe)) in enumerate(chunks):
        u = px_data[:, xs:xe] @ wx_data[c] + bx[c].data
        v = py_data[:, xs:xe] @ wy_data[c] + by[c].data
        uv = (u.reshape(n, k, -1) * v[:, None]).reshape(u.shape)
        width = oe - os_
        acc = uv[:, :width]
        for r in range(1, rank):
            acc = acc + uv[:, r * width:(r + 1) * width]
        out[:, os_:oe] = acc
        saved.append((u, v))

    def bw(g):
        g_px, g_py = np.zeros_like(px_data), np.zeros_like(py_data)
        g_wx, g_wy, g_bx, g_by = [], [], [], []
        for c, ((xs, xe), (os_, oe)) in enumerate(chunks):
            u, v = saved[c]
            g_uv = np.tile(g[:, os_:oe], (1, rank)).reshape(n, k, -1)
            g_u = (g_uv * v[:, None]).reshape(u.shape)
            g_v = (g_uv * u.reshape(n, k, -1)).sum(axis=1)
            g_px[:, xs:xe] = g_u @ wx_data[c].T
            g_py[:, xs:xe] = g_v @ wy_data[c].T
            g_wx.append(px_data[:, xs:xe].T @ g_u)
            g_wy.append(py_data[:, xs:xe].T @ g_v)
            g_bx.append(g_u.sum(axis=0))
            g_by.append(g_v.sum(axis=0))
        return (g_px, g_py, *g_wx, *g_bx, *g_wy, *g_by)

    return T._record("block_bilinear", (px, py, *wx, *bx, *wy, *by), out, bw)


def argmax_reduce_max(x, axis):
    """reduce_max over one axis, its gradient placed by argmax and put_along_axis."""
    x = T.as_tensor(x)
    x_data = x.data

    def bw(g):
        out = np.zeros(x_data.shape, dtype=g.dtype)
        np.put_along_axis(out, np.expand_dims(x_data.argmax(axis=axis), axis),
                          np.expand_dims(g, axis), axis=axis)
        return (out,)
    return T._record("max", (x,), x_data.max(axis=axis), bw)


def scene_major_forward(params, visual, labels, tokens, drop_rng):
    """forward_batch in training mode over scene-major object rows (b*k + o)."""
    cfg = params.config
    batch, k, d_v = visual.shape
    q_enc = M.encode_questions(params, visual, labels, tokens)
    fused = block_fuse(Tensor(visual.reshape(batch * k, d_v)), q_enc, params.obj_fusion)
    pooled = T.reduce_max(T.reshape(fused, (batch, k, cfg.pooled_dim)), axis=1)
    pooled = M._dropout(pooled, cfg.dropout, drop_rng)
    hidden = M._dropout(T.relu(params.cls_hidden(pooled)), cfg.dropout, drop_rng)
    return params.cls_out(hidden)


def training_step(params, forward, answers):
    """Logits, loss and a copy of every parameter gradient after one backward."""
    params.grad.fill(0.0)
    with T.recording():
        logits = forward()
        loss = T.reduce_mean(cross_entropy_rows(logits, answers))
        T.backward(loss)
    grads = {name: t.grad.copy() for name, t in params.named_parameters()}
    return logits.data.copy(), loss.item(), grads


@pytest.mark.parametrize("size", sorted(SIZES))
@pytest.mark.parametrize("variant", ["baseline", "vgqe"])
def test_training_step_matches_scene_major_head(variant, size, monkeypatch):
    fields, batch, k, steps = SIZES[size]
    cfg = ModelConfig(variant=variant, seed=5, **fields)
    params = init_model(cfg)
    rng = np.random.default_rng(17)
    visual = rng.normal(size=(batch, k, cfg.d_v))
    labels = rng.normal(size=(batch, k, cfg.d_w))
    tokens = rng.integers(0, cfg.vocab_size, size=(batch, steps))
    answers = rng.integers(0, cfg.answer_count, size=batch)

    got = training_step(params, lambda: forward_batch(
        params, visual, labels, tokens, training=True,
        drop_rng=np.random.default_rng(3)), answers)
    with monkeypatch.context() as patched:
        patched.setattr(T, "block_bilinear", scene_major_block_bilinear)
        patched.setattr(T, "reduce_max", argmax_reduce_max)
        want = training_step(params, lambda: scene_major_forward(
            params, visual, labels, tokens, np.random.default_rng(3)), answers)

    (got_logits, got_loss, got_grads), (want_logits, want_loss, want_grads) = got, want
    assert np.array_equal(got_logits, want_logits)
    assert abs(got_loss - want_loss) <= REL * abs(want_loss)
    assert got_grads.keys() == want_grads.keys()
    for name, want_grad in want_grads.items():
        scale = np.max(np.abs(want_grad))
        assert np.max(np.abs(got_grads[name] - want_grad)) <= REL * scale, name
