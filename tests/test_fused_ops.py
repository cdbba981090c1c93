"""The fused tape ops against the compositions of primitive tape ops they
replace: the forward value and every gradient agree to 1e-12.

`gru_sequence` is compared with a fold of `encoder.gru_cell`, the GRU step
composed from primitive tape ops, from the zero state over the same steps in
either direction; `gru_cell` shares no code with the fused kernels, and is
itself held to the GRU equations and their backpropagation through time
written out in plain numpy. Grouped
`block_bilinear` (x at k*N rows, y at N rows) is compared with tiling y k
times, so x row i meets y row i mod N, and composing the chunk-and-rank core
from matmuls, adds and products; column slices are taken by multiplying with
0/1 selection matrices, which is exact. `scene_attention` over T step-major
words per scene is compared with tiling each scene T times and composing
`take_rows` (each word taken k times), `mul`, `matmul`, `softmax` and
`reshape`, pooled by 0/1 matrices; it sums in another order, so it agrees to
1e-12 relative. Last, `gru_cell` and each fused op run over shapes drawn from
a seeded generator: `grad_check` on every input and weight, and ShapeError on
mismatched shapes.
"""

import itertools

import numpy as np
import pytest

from vqalab import tensor as T
from vqalab.encoder import GruParams, gru_cell, gru_params_init
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
# gru_cell, the reference, and gru_sequence against a fold of it

PRIMITIVE_OPS = {"matmul", "add", "sigmoid", "tanh", "mul", "sub", "scale"}


def test_gru_cell_records_only_primitive_ops(monkeypatch):
    def refuse(*args):
        raise AssertionError("gru_cell reached a fused GRU kernel")
    monkeypatch.setattr(T, "_gru_forward", refuse)
    monkeypatch.setattr(T, "_gru_backward", refuse)
    p = gru_params_init(4, 3, seed=0)
    x = Tensor(np.ones((2, 4)), requires_grad=True)
    h = Tensor(np.full((2, 3), 0.5), requires_grad=True)
    with T.recording() as tape:
        out = gru_cell(x, h, p)
        ops = [r.op for r in tape.records]
        T.backward(out.sum())
    assert len(ops) == 21 and set(ops) <= PRIMITIVE_OPS
    assert all(t.grad is not None for t in (x, h, *p.arrays()))


def test_gru_cell_rejects_mismatched_shapes():
    p = gru_params_init(4, 3, seed=0)
    w = p.arrays()
    with pytest.raises(ShapeError, match="add: shapes"):
        gru_cell(Tensor(np.zeros((2, 4))), Tensor(np.zeros((3, 3))), p)
    with pytest.raises(ShapeError, match="matmul inner dimensions"):
        gru_cell(Tensor(np.zeros((2, 5))), Tensor(np.zeros((2, 3))), p)
    with pytest.raises(ShapeError, match="matmul inner dimensions"):
        gru_cell(Tensor(np.zeros((2, 4))), Tensor(np.zeros((2, 3))),
                 GruParams(*w[:4], Tensor(np.zeros((4, 3))), *w[5:]))


@pytest.mark.parametrize("rows,steps,reverse,x_grad",
                         list(itertools.product((1, 4), (1, 3), (False, True), (True, False))))
def test_gru_sequence_matches_folded_gru_cell(rows, steps, reverse, x_grad):
    rng = np.random.default_rng(100 * rows + 10 * steps + reverse)
    p = gru_params_init(5, 3, seed=rows + steps)
    weights = list(p.arrays())
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
            h = gru_cell(x, h, p)
        return h, T.mul(h, probe).sum()

    out_f, grads_f = gradients(folded, [*step_xs, *weights])
    g_xs_f = np.stack(grads_f[:steps]) if x_grad else None
    fused = gradients(sequence, [xs, *weights])
    # the values to the bit; the gradients add their terms in another order
    assert np.array_equal(fused[0], out_f)
    assert_same(fused, (out_f, [g_xs_f, *grads_f[steps:]]))


def _sigmoid(a):
    return 1.0 / (1.0 + np.exp(-a))


def gru_equations(xs, w, probe):
    """h after folding z = sigmoid(x Wz + h Uz + bz), r = sigmoid(x Wr + h Ur
    + br), c = tanh(x Wc + (r * h) Uc + bc), h' = (1 - z) * h + z * c over
    the steps of xs (T, B, d_in) from the zero state, the gradients of
    sum(h * probe) with respect to every step's x and the nine weights, by
    backpropagation through time in plain numpy."""
    wz, uz, bz, wr, ur, br, wc, uc, bc = w
    h = np.zeros((xs.shape[1], uz.shape[0]))
    saved = []
    for x in xs:
        z = _sigmoid(x @ wz + h @ uz + bz)
        r = _sigmoid(x @ wr + h @ ur + br)
        c = np.tanh(x @ wc + (r * h) @ uc + bc)
        saved.append((x, h, z, r, c))
        h = (1.0 - z) * h + z * c
    g_w = [np.zeros_like(a) for a in w]
    g_xs = np.zeros_like(xs)
    g_h = probe.copy()
    for step in reversed(range(len(saved))):
        x, h_prev, z, r, c = saved[step]
        a_c = g_h * z * (1.0 - c * c)
        a_z = g_h * (c - h_prev) * z * (1.0 - z)
        g_rh = a_c @ uc.T
        a_r = g_rh * h_prev * r * (1.0 - r)
        g_h_prev = g_h * (1.0 - z) + g_rh * r
        for i, (a, u) in enumerate(((a_z, uz), (a_r, ur), (a_c, uc))):
            into = (r * h_prev) if i == 2 else h_prev
            g_w[3 * i] += x.T @ a
            g_w[3 * i + 1] += into.T @ a
            g_w[3 * i + 2] += a.sum(axis=0)
            g_xs[step] += a @ w[3 * i].T
            if i < 2:
                g_h_prev += a @ u.T
        g_h = g_h_prev
    return h, g_xs, g_w


@pytest.mark.parametrize("rows,steps,reverse,x_grad",
                         list(itertools.product((1, 4), (1, 3), (False, True), (True, False))))
def test_gru_cell_matches_gru_equations(rows, steps, reverse, x_grad):
    """The reference against the GRU equations written out in numpy, which
    share no code with the tape: a fold of `gru_cell` gives their state and
    their gradients through time."""
    rng = np.random.default_rng(200 + 100 * rows + 10 * steps + reverse)
    p = gru_params_init(5, 3, seed=7 + rows + steps)
    weights = list(p.arrays())
    for t in weights[2::3]:                      # nonzero biases
        t.data[...] = rng.normal(size=t.shape)
    xs = rng.normal(size=(steps, rows, 5))
    step_xs = [Tensor(x.copy(), requires_grad=x_grad) for x in xs]
    probe = rng.normal(size=(rows, 3))

    def folded():
        h = Tensor(np.zeros((rows, 3)))
        for x in (step_xs[::-1] if reverse else step_xs):
            h = gru_cell(x, h, p)
        return h, T.mul(h, Tensor(probe)).sum()

    out, grads = gradients(folded, [*step_xs, *weights])
    h, g_xs, g_w = gru_equations(xs[::-1] if reverse else xs,
                                 [t.data for t in weights], probe)
    g_xs = g_xs[::-1] if reverse else g_xs
    assert_same((out, grads), (h, [*(g_xs if x_grad else [None] * steps), *g_w]))


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
    with pytest.raises(ShapeError, match=r"^gru_sequence: w_update \(4,\) is not"):
        T.gru_sequence(Tensor(np.zeros((3, 2, 4))), Tensor(np.zeros(4)), *weights[1:])


# ---------------------------------------------------------------------------
# grouped block_bilinear

X_CHUNKS = [(0, 3), (3, 5), (5, 7)]        # P=7 splits 3/2/2
OUT_CHUNKS = [(0, 2), (2, 4), (4, 5)]      # P_out=5 splits 2/2/1
RANK = 2
# (x_chunks, out_chunks, rank): block_bilinear reads the layout from the factor
# shapes alone, so the composition is checked on more than one of them
LAYOUTS = {
    "three_chunks": (X_CHUNKS, OUT_CHUNKS, RANK),
    "uneven_two_chunks": ([(0, 1), (1, 6)], [(0, 3), (3, 4)], 3),
}


def select(n, start, end):
    """(n, end - start) 0/1 matrix: m @ select(...) is m[:, start:end]."""
    s = np.zeros((n, end - start))
    s[np.arange(start, end), np.arange(end - start)] = 1.0
    return Tensor(s)


def block_bilinear_composed(px, py, wx, bx, wy, by, k, layout):
    """Chunk by chunk and rank by rank from primitive tape ops, y tiled k times."""
    x_chunks, out_chunks, rank = layout
    py = T.concat([py] * k)
    parts = []
    for c, ((xs, xe), (os_, oe)) in enumerate(zip(x_chunks, out_chunks)):
        width = oe - os_
        cols = select(px.shape[1], xs, xe)
        acc = None
        for r in range(rank):
            rank_cols = select(rank * width, r * width, (r + 1) * width)

            def factor(p, w, b):
                return T.add(T.matmul(T.matmul(p, cols), T.matmul(w[c], rank_cols)),
                             T.reshape(T.matmul(T.reshape(b[c], (1, rank * width)),
                                                rank_cols), (width,)))

            uv = T.mul(factor(px, wx, bx), factor(py, wy, by))
            acc = uv if acc is None else T.add(acc, uv)
        parts.append(acc)
    return T.concat(parts, axis=1)


@pytest.mark.parametrize("rows,k,x_grad,layout",
                         list(itertools.product((1, 3), (1, 4), (True, False), LAYOUTS)))
def test_grouped_block_bilinear_matches_composition(rows, k, x_grad, layout):
    x_chunks, out_chunks, rank = LAYOUTS[layout]
    rng = np.random.default_rng(100 * rows + 10 * k + 1)
    px = Tensor(rng.normal(size=(rows * k, x_chunks[-1][1])), requires_grad=x_grad)
    py = Tensor(rng.normal(size=(rows, x_chunks[-1][1])), requires_grad=True)

    def side():
        w = [Tensor(rng.normal(size=(xe - xs, rank * (oe - os_))), requires_grad=True)
             for (xs, xe), (os_, oe) in zip(x_chunks, out_chunks)]
        b = [Tensor(rng.normal(size=rank * (oe - os_)), requires_grad=True)
             for os_, oe in out_chunks]
        return w, b

    (wx, bx), (wy, by) = side(), side()
    probe = Tensor(rng.normal(size=(rows * k, out_chunks[-1][1])))
    leaves = [px, py, *wx, *wy, *bx, *by]

    def run(core):
        def loss_fn():
            z = core()
            return z, T.mul(z, probe).sum()
        return gradients(loss_fn, leaves)

    fused = run(lambda: T.block_bilinear(px, py, wx, bx, wy, by, rank))
    composed = run(lambda: block_bilinear_composed(px, py, wx, bx, wy, by, k, LAYOUTS[layout]))
    assert_same(fused, composed)


@pytest.mark.parametrize("x_rows,y_rows", [(7, 2), (3, 4), (4, 0)])
def test_block_bilinear_rejects_rows_not_a_multiple(x_rows, y_rows):
    w = [Tensor(np.ones((xe - xs, RANK * (oe - os_))))
         for (xs, xe), (os_, oe) in zip(X_CHUNKS, OUT_CHUNKS)]
    b = [Tensor(np.ones(RANK * (oe - os_))) for os_, oe in OUT_CHUNKS]
    with pytest.raises(ShapeError, match=f"{x_rows} x rows are not a multiple of {y_rows}"):
        T.block_bilinear(Tensor(np.ones((x_rows, 7))), Tensor(np.ones((y_rows, 7))),
                         w, b, w, b, RANK)


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
    d_v = visual.shape[2]
    # 0/1 matrices: one spreads weight i over object i's d_v columns, the
    # other, k stacked identities, sums the k weighted objects
    spread = Tensor(np.repeat(np.eye(k), d_v, axis=1))
    stacked = Tensor(np.tile(np.eye(d_v), (k, 1)))
    weighted = T.mul(T.matmul(alpha, spread), T.reshape(tiled_visual, (rows, k * d_v)))
    return T.matmul(weighted, stacked), alpha.data


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
def test_gru_cell_drawn_shapes(draw):
    rng = np.random.default_rng(300 + draw)
    d_in, hidden, rows, weights = drawn_gru(rng)
    x = Tensor(rng.normal(size=(rows, d_in)), requires_grad=True)
    h = Tensor(rng.normal(size=(rows, hidden)), requires_grad=True)
    probe = Tensor(rng.normal(size=(rows, hidden)))
    p = GruParams(*weights)
    assert_gradients_checked(lambda: T.mul(gru_cell(x, h, p), probe).sum(),
                             [x, h, *weights])
    bad_u = Tensor(np.zeros((hidden, hidden + 1)))
    for args in ((Tensor(np.zeros((rows, d_in + 1))), h, p),
                 (x, Tensor(np.zeros((rows + 1, hidden))), p),
                 (x, h, GruParams(weights[0], bad_u, *weights[2:])),
                 (x, h, GruParams(*weights[:8], Tensor(np.zeros(hidden + 1))))):
        with pytest.raises(ShapeError):
            gru_cell(*args)


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
    # the chunk layout is in the factor shapes alone
    sizes = list(zip(near_equal_partition(proj, chunks), near_equal_partition(out, chunks)))

    def factors():
        w = [Tensor(rng.normal(size=(p, rank * o)), requires_grad=True) for p, o in sizes]
        b = [Tensor(rng.normal(size=rank * o), requires_grad=True) for _, o in sizes]
        return w, b

    (wx, bx), (wy, by) = factors(), factors()
    px = Tensor(rng.normal(size=(n * k, proj)), requires_grad=True)
    py = Tensor(rng.normal(size=(n, proj)), requires_grad=True)
    probe = Tensor(rng.normal(size=(n * k, out)))

    def core(px=px, py=py, wx=wx, bx=bx, wy=wy, by=by):
        return T.block_bilinear(px, py, wx, bx, wy, by, rank)

    assert_gradients_checked(lambda: T.mul(core(), probe).sum(),
                             [px, py, *wx, *wy, *bx, *by])
    wrong_w = [Tensor(np.zeros((w.shape[0], w.shape[1] + 1))) for w in wy]
    for bad in (dict(py=Tensor(np.zeros((n, proj + 1)))),
                dict(py=Tensor(np.zeros((n * k + 1, proj)))),
                dict(wy=wrong_w),
                dict(by=[Tensor(np.zeros(b.size + 1)) for b in by])):
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
