import math

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
        T.backward(T.reduce_mean(x))
        assert np.allclose(x.grad, [0.5, 0.5])

    def test_invalid_axis(self):
        with pytest.raises(ShapeError):
            T.reduce_sum(Tensor(np.zeros((2, 2))), axis=5)

    def test_max_tie_goes_to_first(self):
        x = Tensor([3.0, 3.0, 1.0], requires_grad=True)
        T.backward(T.reduce_max(x))
        assert np.array_equal(x.grad, [1.0, 0.0, 0.0])


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        T.backward(x.sum())
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_square(self):
        x = Tensor([3.0], requires_grad=True)
        T.backward(T.mul(x, x).sum())
        assert np.allclose(x.grad, [6.0])

    def test_composite_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=5), requires_grad=True)
        w = rng.normal(size=5)

        def loss(t):
            return T.dot(T.tanh(T.mul(t, t)), Tensor(w))

        err = T.grad_check(loss, x, eps=1e-5)
        assert err < 1e-5

    def test_non_scalar_root_rejected(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(ShapeError):
            T.backward(T.mul(x, x))

    def test_reused_leaf_accumulates_both_paths(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=4), requires_grad=True)

        def loss(t):
            a = T.sigmoid(t)
            return T.dot(a, T.mul(t, t))  # t used on two paths

        assert T.grad_check(loss, x) < 1e-5

    def test_repeated_backward_accumulates(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        T.backward(x.sum())
        T.backward(x.sum())
        assert np.array_equal(x.grad, [2.0, 2.0])
        x.zero_grad()
        assert x.grad is None

    def test_stale_intermediates_rejected_after_tape_consumed(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        kept = T.mul(x, x)
        stale_root = kept.sum()
        T.backward(x.sum())  # consumes the tape backing `kept` and `stale_root`
        with pytest.raises(RuntimeError, match="consumed"):
            T.backward(stale_root)
        with pytest.raises(RuntimeError, match="consumed"):
            kept.sum()


class TestGradCheck:
    def test_exact_for_sum(self):
        x = Tensor(np.linspace(-1, 1, 7), requires_grad=True)
        assert T.grad_check(lambda t: t.sum(), x) < 1e-10

    def test_softmax_then_dot(self):
        rng = np.random.default_rng(5)
        v = Tensor(rng.normal(size=6))
        x = Tensor(rng.normal(size=6), requires_grad=True)
        assert T.grad_check(lambda t: T.dot(T.softmax(t), v), x) < 1e-5

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
    ("exp", lambda x, rng: T.exp(x).sum()),
    ("softmax", lambda x, rng: T.dot(T.softmax(x.reshape((x.size,))),
                                     Tensor(rng.normal(size=x.size))),),
    ("matmul", lambda x, rng: T.matmul(x.reshape((2, 3)), Tensor(rng.normal(size=(3, 2)))).sum()),
    ("max", lambda x, rng: x.max()),
    ("mean", lambda x, rng: x.mean()),
    ("concat", lambda x, rng: T.concat([x, T.mul(x, x)], axis=0).sum()),
    ("narrow", lambda x, rng: T.narrow(x.reshape((2, 3)), 1, 1, 2).sum()),
    ("repeat_rows", lambda x, rng: T.mul(T.repeat_rows(x.reshape((2, 3)), 2),
                                         Tensor(rng.normal(size=(4, 3)))).sum()),
    ("logsumexp_rows", lambda x, rng: T.logsumexp_rows(x.reshape((2, 3))).sum()),
    ("dot", lambda x, rng: T.dot(x, Tensor(rng.normal(size=6)))),
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


def test_attend_gradients():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        values = Tensor(rng.normal(size=(2, 3, 4)))
        w = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        assert T.grad_check(lambda t: T.attend(T.softmax(t, axis=1), values).sum(), w) < 1e-4


def test_rows_pick_gradient_and_bounds():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    out = T.rows_pick(x, [2, 0])
    assert out.data.tolist() == [2.0, 3.0]
    T.backward(out.sum())
    assert np.array_equal(x.grad, [[0, 0, 1], [1, 0, 0]])
    with pytest.raises(IndexError):
        T.rows_pick(x, [0, 3])


def test_finite_values_after_forward_backward():
    rng = np.random.default_rng(42)
    x = Tensor(rng.normal(size=8) * 50, requires_grad=True)
    out = T.dot(T.softmax(x), T.tanh(x))
    T.backward(out)
    assert np.all(np.isfinite(out.data))
    assert np.all(np.isfinite(x.grad))


def test_no_grad_suppresses_recording():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with T.no_grad():
        out = T.mul(x, x)
    assert not out.requires_grad
    assert out._tape is None


def test_dtype_switch():
    with T.using_dtype(np.float32):
        t = Tensor([1.0, 2.0])
        assert t.data.dtype == np.float32
    assert Tensor([1.0]).data.dtype == np.float64
