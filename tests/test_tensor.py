import math
import threading

import numpy as np
import pytest

from vqalab import tensor as T
from vqalab.tensor import ShapeError, Tensor


def triple_loop_matmul(a, b):
    """Independent dense oracle for the matrix product."""
    m, n = a.shape
    n2, p = b.shape
    assert n == n2
    out = np.zeros((m, p))
    for i in range(m):
        for j in range(p):
            acc = 0.0
            for k in range(n):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def central_diff(f, x, eps=1e-5):
    """Finite-difference gradient of a scalar callable over a numpy array."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f(x)
        flat[i] = orig - eps
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * eps)
    return g


class TestElementwise:
    def test_mul_annihilator(self):
        out = T.mul(Tensor([1.0, 2.0, 3.0]), Tensor([0.0, 0.0, 0.0]))
        assert np.array_equal(out.data, [0.0, 0.0, 0.0])

    def test_sigmoid_zero(self):
        assert T.sigmoid(Tensor([0.0])).data[0] == pytest.approx(0.5)

    def test_add(self):
        assert np.array_equal(T.add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0])).data, [4.0, 6.0])

    def test_scalar_and_row_broadcast(self):
        a = Tensor(np.arange(6.0).reshape(2, 3))
        assert np.array_equal(T.add(a, 1.0).data, a.data + 1)
        row = Tensor([10.0, 20.0, 30.0])
        assert np.array_equal(T.add(a, row).data, a.data + row.data)

    def test_rejects_general_broadcast(self):
        a = Tensor(np.zeros((2, 3)))
        with pytest.raises(ShapeError):
            T.add(a, Tensor(np.zeros((2, 1))))
        with pytest.raises(ShapeError):
            T.mul(a, Tensor(np.zeros(2)))

    def test_row_broadcast_gradient(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        with T.recording():
            T.backward(T.mul(a, b).sum())
        assert np.allclose(b.grad, a.data.sum(axis=0))
        assert np.allclose(a.grad, np.broadcast_to(b.data, (4, 3)))


class TestMatmul:
    def test_identity(self):
        eye = Tensor(np.eye(2))
        m = Tensor([[5.0, 6.0], [7.0, 8.0]])
        assert np.array_equal(T.matmul(eye, m).data, m.data)

    def test_dot_product(self):
        out = T.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.data.tolist() == [[11.0]]

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(4, 3))
        b = rng.normal(size=(3, 2))
        got = T.matmul(Tensor(a), Tensor(b)).data
        assert np.max(np.abs(got - triple_loop_matmul(a, b))) < 1e-12

    def test_inner_dim_mismatch(self):
        with pytest.raises(ShapeError):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_associativity_random_triples(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            a, b, c = (Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=(4, 5))),
                       Tensor(rng.normal(size=(5, 2))))
            left = T.matmul(T.matmul(a, b), c).data
            right = T.matmul(a, T.matmul(b, c)).data
            assert np.max(np.abs(left - right)) < 1e-9


class TestSoftmax:
    def test_symmetry(self):
        assert np.allclose(T.softmax(Tensor([0.0, 0.0])).data, [0.5, 0.5])

    def test_stability_under_large_logits(self):
        out = T.softmax(Tensor([1000.0, 1000.0])).data
        assert np.all(np.isfinite(out))
        assert np.allclose(out, [0.5, 0.5])

    def test_closed_form(self):
        e = math.e
        out = T.softmax(Tensor([1.0, 0.0])).data
        assert abs(out[0] - e / (e + 1)) < 1e-5
        assert abs(out[1] - 1 / (e + 1)) < 1e-5

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            T.softmax(Tensor(np.zeros(0)))

    def test_normalization_and_shift_invariance(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=9) * 10
            out = T.softmax(Tensor(x)).data
            assert np.all(out > 0) and np.all(out < 1)
            assert abs(out.sum() - 1.0) < 1e-6
            shifted = T.softmax(Tensor(x + 123.456)).data
            assert np.max(np.abs(out - shifted)) < 1e-9


class TestReduce:
    def test_max_axis0(self):
        out = T.reduce_max(Tensor([[1.0, 5.0], [3.0, 2.0]]), axis=0)
        assert out.data.tolist() == [3.0, 5.0]

    def test_sum_all(self):
        assert T.reduce_sum(Tensor([1.0, 2.0, 3.0])).item() == 6.0

    def test_mean_backward_linearity(self):
        x = Tensor([2.0, 4.0], requires_grad=True)
        with T.recording():
            T.backward(T.reduce_mean(x))
        assert np.allclose(x.grad, [0.5, 0.5])

    def test_invalid_axis(self):
        with pytest.raises(ShapeError):
            T.reduce_sum(Tensor(np.zeros((2, 2))), axis=5)

    def test_max_tie_goes_to_first(self):
        x = Tensor([3.0, 3.0, 1.0], requires_grad=True)
        with T.recording():
            T.backward(T.reduce_max(x))
        assert np.array_equal(x.grad, [1.0, 0.0, 0.0])

    @pytest.mark.parametrize("axis", [0, 1, -1])
    @pytest.mark.parametrize("seed", range(4))
    def test_max_backward_is_the_first_maximizer_rule(self, axis, seed):
        # small integers plant ties along every axis; the gradient must land
        # where argmax (the first maximizer) and put_along_axis put it
        rng = np.random.default_rng(seed)
        x = Tensor(rng.integers(0, 3, size=(4, 5, 6)).astype(float), requires_grad=True)
        g = rng.normal(size=np.delete(x.shape, axis))
        with T.recording():
            T.backward(T.mul(T.reduce_max(x, axis=axis), Tensor(g)).sum())
        want = np.zeros(x.shape)
        np.put_along_axis(want, np.expand_dims(x.data.argmax(axis=axis), axis),
                          np.expand_dims(g, axis), axis=axis)
        assert np.array_equal(x.grad, want)
        assert np.array_equal(np.count_nonzero(x.grad, axis=axis), np.ones(g.shape))

    @pytest.mark.parametrize("axis", [None, 0, 1])
    def test_max_forward_alone_takes_no_argmax(self, axis, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("argmax taken without a backward")
        monkeypatch.setattr(np, "argmax", refuse)
        monkeypatch.setattr(np, "put_along_axis", refuse)
        data = np.arange(6.0).reshape(2, 3)
        with T.recording() as tape:
            T.reduce_max(Tensor(data), axis=axis)
            assert len(tape) == 0
            out = T.reduce_max(Tensor(data, requires_grad=True), axis=axis)
            assert [r.op for r in tape.records] == ["max"]
        assert np.array_equal(out.data, data.max(axis=axis))


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        with T.recording():
            T.backward(x.sum())
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_square(self):
        x = Tensor([3.0], requires_grad=True)
        with T.recording():
            T.backward(T.mul(x, x).sum())
        assert np.allclose(x.grad, [6.0])

    def test_composite_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=5), requires_grad=True)
        w = rng.normal(size=5)

        def loss(t):
            return T.mul(T.tanh(T.mul(t, t)), Tensor(w)).sum()

        err = T.grad_check(loss, x)
        assert err < 1e-5

    def test_non_scalar_root_rejected(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        with T.recording(), pytest.raises(ShapeError):
            T.backward(T.mul(x, x))

    def test_reused_leaf_accumulates_both_paths(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=4), requires_grad=True)

        def loss(t):
            a = T.sigmoid(t)
            return T.mul(a, T.mul(t, t)).sum()  # t used on two paths

        assert T.grad_check(loss, x) < 1e-5

    def test_repeated_backward_accumulates(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        for _ in range(2):
            with T.recording():
                T.backward(x.sum())
        grad = x.grad
        assert np.array_equal(grad, [2.0, 2.0])
        x.zero_grad()            # in place: the same array, all zero
        assert x.grad is grad and np.array_equal(grad, [0.0, 0.0])

    def test_stale_intermediates_rejected_after_tape_consumed(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with T.recording():
            kept = T.mul(x, x)
            stale_root = kept.sum()
            T.backward(x.sum())  # consumes the tape backing `kept` and `stale_root`
            with pytest.raises(RuntimeError, match="consumed"):
                T.backward(stale_root)
            with pytest.raises(RuntimeError, match="consumed"):
                kept.sum()
            with pytest.raises(RuntimeError, match="consumed"):
                x.sum()
        with T.recording():
            with pytest.raises(RuntimeError, match="consumed"):
                kept.sum()
            with pytest.raises(RuntimeError, match="consumed"):
                T.backward(stale_root)

    def test_backward_needs_the_root_recorded_in_an_open_recording(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError, match="no recorded operation"):
            T.backward(T.mul(x, x).sum())
        with T.recording():
            root = T.mul(x, x).sum()
        with pytest.raises(RuntimeError, match="consumed"):
            T.backward(root)
        assert x.grad is None

    def test_recordings_do_not_nest(self):
        with T.recording() as tape:
            with pytest.raises(RuntimeError, match="already open"):
                with T.recording():
                    pass
            T.mul(Tensor([1.0], requires_grad=True), 2.0)
            assert len(tape) == 1


class TestGradCheck:
    def test_exact_for_sum(self):
        x = Tensor(np.linspace(-1, 1, 7), requires_grad=True)
        assert T.grad_check(lambda t: t.sum(), x) < 1e-10

    def test_softmax_then_dot(self):
        rng = np.random.default_rng(5)
        v = Tensor(rng.normal(size=6))
        x = Tensor(rng.normal(size=6), requires_grad=True)
        assert T.grad_check(lambda t: T.mul(T.softmax(t), v).sum(), x) < 1e-5

    def test_rejects_non_scalar(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(ShapeError):
            T.grad_check(lambda t: T.mul(t, t), x)


OPS_UNDER_TEST = [
    ("add", lambda x, rng: T.add(x, Tensor(rng.normal(size=x.shape))).sum()),
    ("sub", lambda x, rng: T.sub(x, Tensor(rng.normal(size=x.shape))).sum()),
    ("mul", lambda x, rng: T.mul(x, Tensor(rng.normal(size=x.shape))).sum()),
    ("scale", lambda x, rng: T.scale(x, 1.7).sum()),
    ("sigmoid", lambda x, rng: T.sigmoid(x).sum()),
    ("tanh", lambda x, rng: T.tanh(x).sum()),
    ("relu", lambda x, rng: T.relu(x).sum()),
    ("softmax", lambda x, rng: T.mul(T.softmax(x.reshape((x.size,))),
                                     Tensor(rng.normal(size=x.size))).sum()),
    ("matmul", lambda x, rng: T.matmul(x.reshape((2, 3)), Tensor(rng.normal(size=(3, 2)))).sum()),
    ("max", lambda x, rng: x.max()),
    ("mean", lambda x, rng: x.mean()),
    ("concat", lambda x, rng: T.concat([x, T.mul(x, x)], axis=0).sum()),
    ("take_rows", lambda x, rng: T.mul(T.take_rows(x.reshape((2, 3)), [1, 0, 1, 1]),
                                       Tensor(rng.normal(size=(4, 3)))).sum()),
    ("logsumexp_rows", lambda x, rng: T.logsumexp_rows(x.reshape((2, 3))).sum()),
    ("sum", lambda x, rng: T.mul(T.reduce_sum(x.reshape((2, 3)), axis=0),
                                 Tensor(rng.normal(size=3))).sum()),
    ("reshape", lambda x, rng: T.mul(T.reshape(x, (3, 2)),
                                     Tensor(rng.normal(size=(3, 2)))).sum()),
    ("affine", lambda x, rng: T.mul(T.affine(x.reshape((2, 3)), Tensor(rng.normal(size=(3, 4))),
                                             Tensor(rng.normal(size=4))),
                                    Tensor(rng.normal(size=(2, 4)))).sum()),
    ("rows_pick", lambda x, rng: T.mul(T.rows_pick(x.reshape((3, 2)), [1, 0, 1]),
                                       Tensor(rng.normal(size=3))).sum()),
]


@pytest.mark.parametrize("name,build", OPS_UNDER_TEST, ids=[n for n, _ in OPS_UNDER_TEST])
def test_op_gradients_match_finite_differences(name, build):
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=6), requires_grad=True)
        rng_for_build = np.random.default_rng(1000 + seed)
        err = T.grad_check(lambda t: build(t, np.random.default_rng(1000 + seed)), x)
        worst = max(worst, err)
    assert worst < 1e-4


BROADCAST_OPS = {"add": (T.add, np.add), "sub": (T.sub, np.subtract),
                 "mul": (T.mul, np.multiply)}


def broadcast_cases(rng, draws=6):
    """Seeded (rule, a shape, b shape) triples under the allowed rules."""
    for _ in range(draws):
        shape = tuple(int(s) for s in rng.integers(1, 4, size=rng.integers(1, 4)))
        yield "equal", shape, shape
        yield "scalar right", shape, ()
        yield "scalar left", (), shape
        if len(shape) >= 2:
            yield "row", shape, shape[1:]


@pytest.mark.parametrize("op", sorted(BROADCAST_OPS))
def test_broadcast_rules_gradients(op):
    fn, oracle = BROADCAST_OPS[op]
    rng = np.random.default_rng(9)
    for rule, a_shape, b_shape in broadcast_cases(rng):
        case = (rule, a_shape, b_shape)
        a = Tensor(rng.normal(size=a_shape), requires_grad=True)
        b = Tensor(rng.normal(size=b_shape), requires_grad=True)
        probe = Tensor(rng.normal(size=np.broadcast_shapes(a_shape, b_shape)))
        assert np.array_equal(fn(a, b).data, oracle(a.data, b.data)), case
        assert T.grad_check(lambda t: T.mul(fn(t, b), probe).sum(), a) < 1e-6, case
        assert T.grad_check(lambda t: T.mul(fn(a, t), probe).sum(), b) < 1e-6, case
        # one leaf as both operands: two contributions add into one gradient
        probe = Tensor(rng.normal(size=a_shape))
        assert T.grad_check(lambda t: T.mul(fn(t, t), probe).sum(), a) < 1e-6, case


@pytest.mark.parametrize("op", sorted(BROADCAST_OPS))
def test_broadcast_rules_reject_other_shapes(op):
    fn = BROADCAST_OPS[op][0]
    rng = np.random.default_rng(10)
    for _ in range(6):
        m, n = (int(s) for s in rng.integers(2, 5, size=2))
        for a_shape, b_shape in [((m, n), (m, 1)),        # column
                                 ((m, n), (n + 1,)),      # row of the wrong width
                                 ((m, n), (m + 1, n)),    # matrix of other rows
                                 ((n,), (m, n))]:         # row on the left
            with pytest.raises(ShapeError):
                fn(Tensor(np.ones(a_shape)), Tensor(np.ones(b_shape)))


# (name, left shape, right shape, op): ops whose backward skips a constant operand
SKIPPING_OPS = [
    ("matmul", (2, 3), (3, 4), T.matmul),
    ("mul", (2, 3), (2, 3), T.mul),
    ("mul row", (2, 3), (3,), T.mul),
]


@pytest.mark.parametrize("name,left,right,op", SKIPPING_OPS,
                         ids=[c[0] for c in SKIPPING_OPS])
def test_backward_leaves_a_constant_operand_slot_empty(name, left, right, op):
    rng = np.random.default_rng(11)
    for grad_left in (True, False):
        a = Tensor(rng.normal(size=left), requires_grad=grad_left)
        b = Tensor(rng.normal(size=right), requires_grad=not grad_left)
        with T.recording() as tape:
            out = op(a, b)
            g_a, g_b = tape.records[-1].backward_fn(np.ones(out.shape))
        assert (g_a is None) == (not grad_left) and (g_b is None) == grad_left
        kept = g_a if grad_left else g_b
        assert kept.shape == (left if grad_left else right)


def test_rows_pick_gradient_and_bounds():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    with T.recording():
        out = T.rows_pick(x, [2, 0])
        T.backward(out.sum())
    assert out.data.tolist() == [2.0, 3.0]
    assert np.array_equal(x.grad, [[0, 0, 1], [1, 0, 0]])
    with pytest.raises(IndexError):
        T.rows_pick(x, [0, 3])


def test_take_rows_gradient_and_bounds():
    x = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    probe = Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]])
    with T.recording():
        out = T.take_rows(x, [2, 0, 2, 2])
        T.backward(T.mul(out, probe).sum())
    assert out.data.tolist() == [[4.0, 5.0], [0.0, 1.0], [4.0, 5.0], [4.0, 5.0]]
    # row 2 gathers three probe rows; row 1 is never taken
    assert np.array_equal(x.grad, [[3.0, 4.0], [0.0, 0.0], [13.0, 16.0]])
    for bad in ([0, 3], [-1]):
        with pytest.raises(IndexError, match="take_rows: index out of range for 3 rows"):
            T.take_rows(x, bad)
    with pytest.raises(ShapeError):
        T.take_rows(x, [[0, 1]])
    with pytest.raises(ShapeError):
        T.take_rows(Tensor(np.zeros(3)), [0])


def test_finite_values_after_forward_backward():
    rng = np.random.default_rng(42)
    x = Tensor(rng.normal(size=8) * 50, requires_grad=True)
    with T.recording():
        out = T.mul(T.softmax(x), T.tanh(x)).sum()
        T.backward(out)
    assert np.all(np.isfinite(out.data))
    assert np.all(np.isfinite(x.grad))


def test_op_outside_recording_records_nothing():
    x = Tensor([1.0, 2.0], requires_grad=True)
    out = T.mul(x, x)
    assert not out.requires_grad
    assert out._tape is None


def test_dtype_switch():
    with T.using_dtype(np.float32):
        t = Tensor([1.0, 2.0])
        assert t.data.dtype == np.float32
    assert Tensor([1.0]).data.dtype == np.float64


def test_dtype_and_recording_are_per_thread():
    # the float32 thread holds its dtype and its recording open until the
    # float64 thread has made its tensors
    opened, done = threading.Event(), threading.Event()
    seen = {}

    def inside():
        with T.using_dtype(np.float32), T.recording() as tape:
            opened.set()
            done.wait(timeout=10)
            out = T.mul(Tensor([1.0, 2.0], requires_grad=True), 2.0)
            seen["inside"] = (out.data.dtype, out.requires_grad, len(tape))

    def outside():
        opened.wait(timeout=10)
        out = T.mul(Tensor([1.0, 2.0], requires_grad=True), 2.0)
        seen["outside"] = (out.data.dtype, out.requires_grad, out._tape)
        done.set()

    threads = [threading.Thread(target=inside), threading.Thread(target=outside)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    assert seen == {"inside": (np.float32, True, 1), "outside": (np.float64, False, None)}


def test_block_bilinear_rejects_mismatched_factors():
    # two chunks of rank 2, read from the weights: columns 0:2 -> 0:1 and 2:3 -> 1:2
    px = py = Tensor(np.ones((4, 3)))
    w = [Tensor(np.ones((2, 2))), Tensor(np.ones((1, 2)))]
    b = [Tensor(np.ones(2)), Tensor(np.ones(2))]
    out = T.block_bilinear(px, py, w, b, w, b, 2)
    assert np.array_equal(out.data, np.full((4, 2), [2 * 9.0, 2 * 4.0]))
    with pytest.raises(ShapeError, match="same chunks"):
        T.block_bilinear(px, py, w, b[:1], w, b[:1], 2)


# chunks of 3 -> 2 and 4 -> 3 columns at rank 2; each case spoils one thing,
# and the refusal names the op and what it could not do
STACKING = {"wx": [(3, 4), (4, 6)], "bx": [4, 6], "wy": [(3, 4), (4, 6)], "by": [4, 6],
            "px": (4, 7), "rank": 2}
SPOILED = {
    "wy_of_another_shape": (dict(wy=[(3, 4), (4, 4)]), "chunk 1 .* do not stack"),
    "bias_of_the_wrong_width": (dict(by=[4, 5]), "chunk 1 .* do not stack"),
    "width_not_divisible_by_rank": (dict(wx=[(3, 4), (4, 5)], wy=[(3, 4), (4, 5)],
                                         bx=[4, 5], by=[4, 5]), "chunk 1 .* do not stack"),
    "px_narrower_than_the_chunks": (dict(px=(4, 6)), "inputs .* do not match 7 chunked columns"),
    "px_wider_than_the_chunks": (dict(px=(4, 8)), "inputs .* do not match 7 chunked columns"),
    "one_dimensional_factor": (dict(wx=[(12,), (4, 6)], wy=[(12,), (4, 6)]),
                               "chunk 0 .* do not stack"),
    "rank_below_one": (dict(rank=0), "rank 0 is not an int of at least 1"),
    "rank_not_an_int": (dict(rank=2.0), "rank 2.0 is not an int of at least 1"),
}


@pytest.mark.parametrize("case", list(SPOILED))
def test_block_bilinear_refuses_factors_that_do_not_stack(case):
    spoil, message = SPOILED[case]
    given = {**STACKING, **spoil}
    wx, bx, wy, by = ([Tensor(np.ones(shape)) for shape in given[side]]
                      for side in ("wx", "bx", "wy", "by"))
    px = py = Tensor(np.ones(given["px"]))
    with pytest.raises(ShapeError, match=f"^block_bilinear: {message}"):
        T.block_bilinear(px, py, wx, bx, wy, by, given["rank"])
