"""The fused tape ops against the compositions of primitive tape ops they
replace: the forward value and every gradient agree to 1e-12.

`gru_step` is compared with the gate-by-gate GRU step, over sequences of T
steps, and `gru_sequence` with a fold of `gru_step` over the same steps in
either direction. Grouped `block_bilinear` (x at k*N rows, y at N rows) is
compared with tiling y k times, so x row i meets y row i mod N, and composing
the chunk-and-rank core from matmuls, adds and products; column slices are
taken by multiplying with 0/1 selection matrices, which is exact. `scene_attention` over T
step-major words per scene is compared with tiling each scene T times and
composing `take_rows` (each word taken k times), `mul`, `matmul`, `softmax`
and `attend`; it sums in another order, so it agrees to 1e-12 relative.
Last, each fused op runs over
shapes drawn from a seeded generator: `grad_check` on every input and weight,
and ShapeError on mismatched shapes.
"""

import itertools

import numpy as np
import pytest

from vqalab import tensor as T
from vqalab.encoder import gru_params_init
from vqalab.fusion import near_equal_partition
from vqalab.tensor import ShapeError, Tensor

TOL = 1e-12


def gradients(loss_fn, leaves):
    """Forward value and the gradient of every leaf that requires one."""
    for t in leaves:
        t.zero_grad()
    with T.recording():
        out, loss = loss_fn()
        T.backward(loss)
    grads = [None if t.grad is None else t.grad.copy() for t in leaves]
    for t in leaves:
        t.zero_grad()
    return out.data.copy(), grads


def assert_same(fused, composed):
    (out_f, grads_f), (out_c, grads_c) = fused, composed
    assert np.max(np.abs(out_f - out_c)) < TOL
    for g_f, g_c in zip(grads_f, grads_c):
        assert (g_f is None) == (g_c is None)
        if g_f is not None:
            assert g_f.shape == g_c.shape
            assert np.max(np.abs(g_f - g_c)) < TOL


# ---------------------------------------------------------------------------
# gru_step


def gru_step_composed(x, h, wz, uz, bz, wr, ur, br, wc, uc, bc):
    z = T.sigmoid(T.add(T.add(T.matmul(x, wz), T.matmul(h, uz)), bz))
    r = T.sigmoid(T.add(T.add(T.matmul(x, wr), T.matmul(h, ur)), br))
    cand = T.tanh(T.add(T.add(T.matmul(x, wc), T.matmul(T.mul(r, h), uc)), bc))
    return T.add(T.mul(T.sub(1.0, z), h), T.mul(z, cand))


@pytest.mark.parametrize("rows,steps,x_grad,h_grad",
                         list(itertools.product((1, 4), (1, 3), (True, False), (True, False))))
def test_gru_step_matches_composition(rows, steps, x_grad, h_grad):
    rng = np.random.default_rng(10 * rows + steps)
    weights = [t for _, t in gru_params_init(5, 3, seed=rows + steps).named_arrays()]
    for t in weights[2::3]:                      # nonzero biases
        t.data[...] = rng.normal(size=t.shape)
    xs = [Tensor(rng.normal(size=(rows, 5)), requires_grad=x_grad) for _ in range(steps)]
    h0 = Tensor(rng.normal(size=(rows, 3)), requires_grad=h_grad)
    probe = Tensor(rng.normal(size=(rows, 3)))

    def run(step):
        def loss_fn():
            h = h0
            for x in xs:
                h = step(x, h, *weights)
            return h, T.mul(h, probe).sum()
        return gradients(loss_fn, [*xs, h0, *weights])

    assert_same(run(T.gru_step), run(gru_step_composed))


def test_gru_step_records_once_per_step():
    p = gru_params_init(4, 3, seed=0)
    with T.recording() as tape:
        h = T.gru_step(Tensor(np.ones((2, 4))), Tensor(np.zeros((2, 3))),
                       *(t for _, t in p.named_arrays()))
        assert [r.op for r in tape.records] == ["gru_step"]
        T.backward(h.sum())


def test_gru_step_rejects_mismatched_shapes():
    weights = [t for _, t in gru_params_init(4, 3, seed=0).named_arrays()]
    with pytest.raises(ShapeError, match="row-batches"):
        T.gru_step(Tensor(np.zeros((2, 4))), Tensor(np.zeros((3, 3))), *weights)
    with pytest.raises(ShapeError, match="row-batches"):
        T.gru_step(Tensor(np.zeros((2, 5))), Tensor(np.zeros((2, 3))), *weights)
    with pytest.raises(ShapeError, match="do not form a GRU"):
        T.gru_step(Tensor(np.zeros((2, 4))), Tensor(np.zeros((2, 3))),
                   *weights[:4], Tensor(np.zeros((4, 3))), *weights[5:])


# ---------------------------------------------------------------------------
# gru_sequence


@pytest.mark.parametrize("rows,steps,reverse,x_grad",
                         list(itertools.product((1, 4), (1, 3), (False, True), (True, False))))
def test_gru_sequence_matches_folded_gru_step(rows, steps, reverse, x_grad):
    rng = np.random.default_rng(100 * rows + 10 * steps + reverse)
    weights = [t for _, t in gru_params_init(5, 3, seed=rows + steps).named_arrays()]
    for t in weights[2::3]:                      # nonzero biases
        t.data[...] = rng.normal(size=t.shape)
    xs = Tensor(rng.normal(size=(steps, rows, 5)), requires_grad=x_grad)
    step_xs = [Tensor(x.copy(), requires_grad=x_grad) for x in xs.data]
    probe = Tensor(rng.normal(size=(rows, 3)))

    def sequence():
        h = T.gru_sequence(xs, *weights, reverse=reverse)
        return h, T.mul(h, probe).sum()

    def folded():
        h = Tensor(np.zeros((rows, 3)))
        for x in (step_xs[::-1] if reverse else step_xs):
            h = T.gru_step(x, h, *weights)
        return h, T.mul(h, probe).sum()

    out_f, grads_f = gradients(folded, [*step_xs, *weights])
    g_xs_f = np.stack(grads_f[:steps]) if x_grad else None
    assert_same(gradients(sequence, [xs, *weights]), (out_f, [g_xs_f, *grads_f[steps:]]))


def test_gru_sequence_records_once():
    weights = [t for _, t in gru_params_init(4, 3, seed=0).named_arrays()]
    with T.recording() as tape:
        h = T.gru_sequence(Tensor(np.ones((3, 2, 4))), *weights, reverse=True)
        assert [r.op for r in tape.records] == ["gru_sequence"]
        T.backward(h.sum())


def test_gru_sequence_rejects_mismatched_shapes():
    weights = [t for _, t in gru_params_init(4, 3, seed=0).named_arrays()]
    with pytest.raises(ShapeError, match=r"not \(T, B, d_in\)"):
        T.gru_sequence(Tensor(np.zeros((2, 4))), *weights)
    with pytest.raises(ShapeError, match=r"not \(T, B, d_in\)"):
        T.gru_sequence(Tensor(np.zeros((0, 2, 4))), *weights)
    with pytest.raises(ShapeError, match="row-batches"):
        T.gru_sequence(Tensor(np.zeros((3, 2, 5))), *weights)
    with pytest.raises(ShapeError, match="do not form a GRU"):
        T.gru_sequence(Tensor(np.zeros((3, 2, 4))), *weights[:4], Tensor(np.zeros((4, 3))),
                       *weights[5:])


# ---------------------------------------------------------------------------
# grouped block_bilinear

X_CHUNKS = [(0, 3), (3, 5), (5, 7)]        # P=7 splits 3/2/2
OUT_CHUNKS = [(0, 2), (2, 4), (4, 5)]      # P_out=5 splits 2/2/1
RANK = 2


def select(n, start, end):
    """(n, end - start) 0/1 matrix: m @ select(...) is m[:, start:end]."""
    s = np.zeros((n, end - start))
    s[np.arange(start, end), np.arange(end - start)] = 1.0
    return Tensor(s)


def block_bilinear_composed(px, py, wx, bx, wy, by, k):
    """Chunk by chunk and rank by rank from primitive tape ops, y tiled k times."""
    py = T.concat([py] * k)
    parts = []
    for c, ((xs, xe), (os_, oe)) in enumerate(zip(X_CHUNKS, OUT_CHUNKS)):
        width = oe - os_
        cols = select(px.shape[1], xs, xe)
        acc = None
        for r in range(RANK):
            rank_cols = select(RANK * width, r * width, (r + 1) * width)

            def factor(p, w, b):
                out = T.matmul(T.matmul(p, cols), T.matmul(w[c], rank_cols))
                if b is None:
                    return out
                return T.add(out, T.reshape(T.matmul(T.reshape(b[c], (1, RANK * width)),
                                                     rank_cols), (width,)))

            uv = T.mul(factor(px, wx, bx), factor(py, wy, by))
            acc = uv if acc is None else T.add(acc, uv)
        parts.append(acc)
    return T.concat(parts, axis=1)


@pytest.mark.parametrize("rows,k,bias,x_grad",
                         list(itertools.product((1, 3), (1, 4), (True, False), (True, False))))
def test_grouped_block_bilinear_matches_composition(rows, k, bias, x_grad):
    rng = np.random.default_rng(100 * rows + 10 * k + bias)
    px = Tensor(rng.normal(size=(rows * k, 7)), requires_grad=x_grad)
    py = Tensor(rng.normal(size=(rows, 7)), requires_grad=True)

    def side():
        w = [Tensor(rng.normal(size=(xe - xs, RANK * (oe - os_))), requires_grad=True)
             for (xs, xe), (os_, oe) in zip(X_CHUNKS, OUT_CHUNKS)]
        b = [Tensor(rng.normal(size=RANK * (oe - os_)), requires_grad=True)
             for os_, oe in OUT_CHUNKS]
        return w, (b if bias else None)

    (wx, bx), (wy, by) = side(), side()
    probe = Tensor(rng.normal(size=(rows * k, 5)))
    leaves = [px, py, *wx, *wy, *(bx + by if bias else [])]

    def run(core):
        def loss_fn():
            z = core()
            return z, T.mul(z, probe).sum()
        return gradients(loss_fn, leaves)

    fused = run(lambda: T.block_bilinear(px, py, wx, bx, wy, by, X_CHUNKS, OUT_CHUNKS, RANK))
    composed = run(lambda: block_bilinear_composed(px, py, wx, bx, wy, by, k))
    assert_same(fused, composed)


@pytest.mark.parametrize("x_rows,y_rows", [(7, 2), (3, 4), (4, 0)])
def test_block_bilinear_rejects_rows_not_a_multiple(x_rows, y_rows):
    w = [Tensor(np.ones((xe - xs, RANK * (oe - os_))))
         for (xs, xe), (os_, oe) in zip(X_CHUNKS, OUT_CHUNKS)]
    with pytest.raises(ShapeError, match=f"{x_rows} x rows are not a multiple of {y_rows}"):
        T.block_bilinear(Tensor(np.ones((x_rows, 7))), Tensor(np.ones((y_rows, 7))),
                         w, None, w, None, X_CHUNKS, OUT_CHUNKS, RANK)


# ---------------------------------------------------------------------------
# scene_attention

# (B, k, d_w, d_v): the default model and data sizes, and the TINY test sizes
SCENE_DIMS = {"default": (128, 8, 16, 32), "tiny": (4, 3, 5, 6)}


def scene_attention_composed(words, column, labels, visual):
    """The grounding attention as composed before the fused op: each scene
    tiled once per step, every word repeated once per object."""
    batch, k, d_w = labels.shape
    rows = words.shape[0]
    steps = rows // batch
    tiled_labels = Tensor(np.tile(labels.data, (steps, 1, 1)).reshape(rows * k, d_w))
    tiled_visual = T.concat([visual] * steps, axis=0)
    scores = T.matmul(T.mul(tiled_labels, T.take_rows(words, np.repeat(np.arange(rows), k))),
                      column)
    alpha = T.softmax(T.reshape(scores, (rows, k)), axis=1)
    return T.attend(alpha, tiled_visual), alpha.data


def assert_relatively_same(fused, composed):
    for f, c in zip(fused, composed, strict=True):
        assert (f is None) == (c is None)
        if f is not None:
            assert f.shape == c.shape
            assert np.max(np.abs(f - c)) <= TOL * np.max(np.abs(c))


@pytest.mark.parametrize("dims,steps,visual_grad",
                         list(itertools.product(SCENE_DIMS, (1, 4), (True, False))))
def test_scene_attention_matches_composition(dims, steps, visual_grad):
    batch, k, d_w, d_v = SCENE_DIMS[dims]
    rng = np.random.default_rng(600 + 10 * steps + visual_grad)
    words = Tensor(rng.normal(size=(steps * batch, d_w)), requires_grad=True)
    column = Tensor(rng.normal(size=(d_w, 1)), requires_grad=True)
    labels = Tensor(rng.normal(size=(batch, k, d_w)))
    visual = Tensor(rng.normal(size=(batch, k, d_v)), requires_grad=visual_grad)
    probe = Tensor(rng.normal(size=(steps * batch, d_v)))
    leaves = [words, column, visual]

    def run(attention):
        weights = []

        def loss_fn():
            attended, alpha = attention(words, column, labels, visual)
            weights.append(alpha)
            return attended, T.mul(attended, probe).sum()
        out, grads = gradients(loss_fn, leaves)
        return [out, weights[0], *grads]

    fused = run(T.scene_attention)
    composed = run(scene_attention_composed)
    assert (fused[-1] is not None) == visual_grad
    assert_relatively_same(fused, composed)


def test_scene_attention_records_once():
    rng = np.random.default_rng(610)
    words = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    with T.recording() as tape:
        attended, weights = T.scene_attention(words, Tensor(rng.normal(size=(4, 1))),
                                              rng.normal(size=(2, 3, 4)),
                                              rng.normal(size=(2, 3, 5)))
        assert [r.op for r in tape.records] == ["scene_attention"]
        assert attended.shape == (6, 5) and weights.shape == (6, 3)
        assert isinstance(weights, np.ndarray)


def test_scene_attention_refuses_labels_with_gradient():
    rng = np.random.default_rng(611)
    labels = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    with pytest.raises(ShapeError, match="labels are scene data and take no gradient"):
        T.scene_attention(Tensor(rng.normal(size=(2, 4))), Tensor(rng.normal(size=(4, 1))),
                          labels, rng.normal(size=(2, 3, 5)))


@pytest.mark.parametrize("rows,batch", [(5, 2), (3, 4), (2, 0)])
def test_scene_attention_refuses_rows_not_a_multiple(rows, batch):
    rng = np.random.default_rng(612)
    with pytest.raises(ShapeError, match="not step-major rows of") as err:
        T.scene_attention(Tensor(rng.normal(size=(rows, 4))), Tensor(rng.normal(size=(4, 1))),
                          rng.normal(size=(batch, 3, 4)), rng.normal(size=(batch, 3, 5)))
    assert "\n" not in str(err.value)


def test_scene_attention_leaves_no_records_after_a_refusal():
    rng = np.random.default_rng(613)
    words = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
    column = Tensor(rng.normal(size=(4, 1)), requires_grad=True)
    labels, visual = rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 3, 5))
    with pytest.raises(ShapeError, match="score column"):
        with T.recording() as tape:
            T.scene_attention(words, column, labels, visual)
            assert len(tape) == 1
            T.scene_attention(words, Tensor(np.ones((5, 1))), labels, visual)
    assert len(tape) == 0


# ---------------------------------------------------------------------------
# drawn shapes: every input and weight against central differences, and
# mismatched shapes refused


def drawn_gru(rng):
    """(d_in, hidden, rows, the nine weights with nonzero biases), dims in 1..4."""
    d_in, hidden, rows = (int(v) for v in rng.integers(1, 5, size=3))
    weights = [t for _, t in gru_params_init(d_in, hidden, seed=int(rng.integers(1000)))
               .named_arrays()]
    for t in weights[2::3]:
        t.data[...] = rng.normal(size=t.shape)
    return d_in, hidden, rows, weights


def assert_gradients_checked(loss, tensors):
    for t in tensors:
        assert T.grad_check(lambda _t: loss(), t) < 1e-6, t.shape


@pytest.mark.parametrize("draw", range(4))
def test_gru_step_drawn_shapes(draw):
    rng = np.random.default_rng(300 + draw)
    d_in, hidden, rows, weights = drawn_gru(rng)
    x = Tensor(rng.normal(size=(rows, d_in)), requires_grad=True)
    h = Tensor(rng.normal(size=(rows, hidden)), requires_grad=True)
    probe = Tensor(rng.normal(size=(rows, hidden)))
    assert_gradients_checked(lambda: T.mul(T.gru_step(x, h, *weights), probe).sum(),
                             [x, h, *weights])
    bad_u = Tensor(np.zeros((hidden, hidden + 1)))
    for args in ((Tensor(np.zeros((rows, d_in + 1))), h, *weights),
                 (x, Tensor(np.zeros((rows + 1, hidden))), *weights),
                 (x, h, weights[0], bad_u, *weights[2:]),
                 (x, h, *weights[:8], Tensor(np.zeros(hidden + 1)))):
        with pytest.raises(ShapeError):
            T.gru_step(*args)


@pytest.mark.parametrize("draw,long,reverse",
                         list(itertools.product(range(2), (False, True), (False, True))))
def test_gru_sequence_drawn_shapes(draw, long, reverse):
    rng = np.random.default_rng(400 + 10 * draw + 2 * long + reverse)
    d_in, hidden, rows, weights = drawn_gru(rng)
    steps = int(rng.integers(3, 6)) if long else 1
    xs = Tensor(rng.normal(size=(steps, rows, d_in)), requires_grad=True)
    probe = Tensor(rng.normal(size=(rows, hidden)))
    assert_gradients_checked(
        lambda: T.mul(T.gru_sequence(xs, *weights, reverse=reverse), probe).sum(),
        [xs, *weights])
    for bad in (Tensor(np.zeros((steps, rows, d_in + 1))), Tensor(np.zeros((rows, d_in))),
                Tensor(np.zeros((0, rows, d_in)))):
        with pytest.raises(ShapeError):
            T.gru_sequence(bad, *weights, reverse=reverse)
    with pytest.raises(ShapeError):
        T.gru_sequence(xs, *weights[:7], Tensor(np.zeros((hidden + 1, hidden))), weights[8],
                       reverse=reverse)


@pytest.mark.parametrize("draw", range(6))
def test_grouped_block_bilinear_drawn_shapes(draw):
    rng = np.random.default_rng(500 + draw)
    proj, out = (int(v) for v in rng.integers(2, 7, size=2))
    chunks = int(rng.integers(1, min(proj, out, 3) + 1))
    rank, n, k = (int(v) for v in rng.integers(1, 4, size=3))
    bias = bool(draw % 2)
    x_bounds = np.cumsum([0] + near_equal_partition(proj, chunks))
    out_bounds = np.cumsum([0] + near_equal_partition(out, chunks))
    x_chunks = [(int(a), int(b)) for a, b in zip(x_bounds[:-1], x_bounds[1:])]
    out_chunks = [(int(a), int(b)) for a, b in zip(out_bounds[:-1], out_bounds[1:])]

    def factors():
        w = [Tensor(rng.normal(size=(xe - xs, rank * (oe - os_))), requires_grad=True)
             for (xs, xe), (os_, oe) in zip(x_chunks, out_chunks)]
        b = [Tensor(rng.normal(size=rank * (oe - os_)), requires_grad=True)
             for os_, oe in out_chunks]
        return w, (b if bias else None)

    (wx, bx), (wy, by) = factors(), factors()
    px = Tensor(rng.normal(size=(n * k, proj)), requires_grad=True)
    py = Tensor(rng.normal(size=(n, proj)), requires_grad=True)
    probe = Tensor(rng.normal(size=(n * k, out)))

    def core(px=px, py=py, wx=wx, bx=bx, wy=wy, by=by):
        return T.block_bilinear(px, py, wx, bx, wy, by, x_chunks, out_chunks, rank)

    assert_gradients_checked(lambda: T.mul(core(), probe).sum(),
                             [px, py, *wx, *wy, *(bx + by if bias else [])])
    wrong_w = [Tensor(np.zeros((w.shape[0], w.shape[1] + 1))) for w in wy]
    for bad in (dict(py=Tensor(np.zeros((n, proj + 1)))),
                dict(py=Tensor(np.zeros((n * k + 1, proj)))),
                dict(wy=wrong_w),
                dict(by=None if bias else [Tensor(np.zeros(rank * (oe - os_)))
                                           for os_, oe in out_chunks])):
        with pytest.raises(ShapeError):
            core(**bad)


@pytest.mark.parametrize("draw", range(4))
def test_scene_attention_drawn_shapes(draw):
    rng = np.random.default_rng(700 + draw)
    # two scenes or more, so that one extra word row is not a multiple of them
    batch, steps, k, d_w, d_v = (int(v) for v in rng.integers((2, 1, 1, 1, 1), 5))
    words = Tensor(rng.normal(size=(steps * batch, d_w)), requires_grad=True)
    column = Tensor(rng.normal(size=(d_w, 1)), requires_grad=True)
    labels = rng.normal(size=(batch, k, d_w))
    visual = Tensor(rng.normal(size=(batch, k, d_v)), requires_grad=True)
    probe = Tensor(rng.normal(size=(steps * batch, d_v)))

    def attend(words=words, column=column, labels=labels, visual=visual):
        return T.scene_attention(words, column, labels, visual)[0]

    assert_gradients_checked(lambda: T.mul(attend(), probe).sum(), [words, column, visual])
    for bad in (dict(words=Tensor(np.zeros((steps * batch, d_w + 1)))),
                dict(words=Tensor(np.zeros((steps * batch + 1, d_w)))),
                dict(column=Tensor(np.zeros((d_w, 2)))),
                dict(labels=np.zeros((batch, k + 1, d_w))),
                dict(labels=np.zeros((batch, 0, d_w)), visual=np.zeros((batch, 0, d_v))),
                dict(visual=np.zeros((batch, d_v)))):
        with pytest.raises(ShapeError):
            attend(**bad)
