import numpy as np
import pytest

from vqalab import fusion, tensor as T
from vqalab.tensor import Tensor


def make_params(d_x=5, d_y=4, P=6, P_out=6, o=3, C=2, R=2, seed=0, **kw):
    return fusion.block_params_init(d_x, d_y, P, P_out, o, C, R, seed, **kw)


def dump(p):
    return {name: t.data.copy() for name, t in p.named_arrays()}


class TestPartition:
    def test_near_equal_rule(self):
        assert fusion.near_equal_partition(10, 3) == [4, 3, 3]

    def test_full_scale_partition(self):
        sizes = fusion.near_equal_partition(1000, 15)
        assert sizes.count(67) == 10 and sizes.count(66) == 5
        assert sum(sizes) == 1000

    def test_more_chunks_than_dims_rejected(self):
        with pytest.raises(ValueError):
            make_params(P=3, C=4)

    def test_chunk_ranges_cover_exactly(self):
        p = make_params(P=7, P_out=5, C=3)
        assert p.x_chunks[0][0] == 0 and p.x_chunks[-1][1] == 7
        assert p.out_chunks[-1][1] == 5
        for (a, b), (c, d) in zip(p.x_chunks, p.x_chunks[1:]):
            assert b == c and a < b


class TestInitDeterminism:
    def test_same_seed_bit_identical(self):
        a, b = dump(make_params(seed=11)), dump(make_params(seed=11))
        assert a.keys() == b.keys()
        for name in a:
            assert np.array_equal(a[name], b[name])

    def test_different_seed_differs(self):
        a, b = dump(make_params(seed=1)), dump(make_params(seed=2))
        assert any(not np.array_equal(a[n], b[n]) for n in a)

    def test_bias_flag_controls_bias_arrays(self):
        with_bias = dump(make_params(use_bias=True))
        without = dump(make_params(use_bias=False))
        assert any(n.endswith(".bias") for n in with_bias)
        assert not any(n.endswith(".bias") for n in without)


class TestBilinearity:
    def test_zero_input_gives_zero(self):
        p = make_params(use_bias=False)
        rng = np.random.default_rng(0)
        y = Tensor(rng.normal(size=(3, 4)))
        out = fusion.block_fuse(Tensor(np.zeros((3, 5))), y, p)
        assert np.allclose(out.data, 0.0)

    def test_homogeneity(self):
        p = make_params(use_bias=False)
        rng = np.random.default_rng(1)
        x, y = Tensor(rng.normal(size=(3, 5))), Tensor(rng.normal(size=(3, 4)))
        once = fusion.block_fuse(x, y, p).data
        doubled = fusion.block_fuse(T.scale(x, 2.0), y, p).data
        assert np.max(np.abs(doubled - 2.0 * once)) < 1e-9

    def test_additivity_both_arguments(self):
        p = make_params(use_bias=False)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            x1, x2 = Tensor(rng.normal(size=(2, 5))), Tensor(rng.normal(size=(2, 5)))
            y1, y2 = Tensor(rng.normal(size=(2, 4))), Tensor(rng.normal(size=(2, 4)))
            lhs = fusion.block_fuse(T.add(x1, x2), y1, p).data
            rhs = fusion.block_fuse(x1, y1, p).data + fusion.block_fuse(x2, y1, p).data
            assert np.max(np.abs(lhs - rhs)) < 1e-9
            lhs = fusion.block_fuse(x1, T.add(y1, y2), p).data
            rhs = fusion.block_fuse(x1, y1, p).data + fusion.block_fuse(x1, y2, p).data
            assert np.max(np.abs(lhs - rhs)) < 1e-9


class TestAgainstDenseOracle:
    def test_single_chunk_rank_one_matches_hand_computation(self):
        # C=1, R=1, identity-sized projections: z = proj_out((A x) * (B y))
        p = make_params(d_x=3, d_y=3, P=3, P_out=3, o=3, C=1, R=1, seed=5,
                        use_bias=False)
        p.proj_x.weight = Tensor(np.eye(3))
        p.proj_y.weight = Tensor(np.eye(3))
        rng = np.random.default_rng(9)
        x, y = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        got = fusion.block_fuse(Tensor(x), Tensor(y), p).data

        a = p.factors_x[0][0].weight.data
        b = p.factors_y[0][0].weight.data
        w_out = p.proj_out.weight.data
        expected = ((x @ a) * (y @ b)) @ w_out
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_batched_rows_match_vector_calls(self):
        p = make_params(seed=3)
        rng = np.random.default_rng(4)
        xs, ys = rng.normal(size=(6, 5)), rng.normal(size=(6, 4))
        batched = fusion.block_fuse(Tensor(xs), Tensor(ys), p).data
        for i in range(6):
            single = fusion.block_fuse(Tensor(xs[i:i + 1]), Tensor(ys[i:i + 1]), p).data
            assert np.max(np.abs(batched[i] - single[0])) < 1e-12


def test_zeroing_chunk_factors_touches_only_that_slice():
    p = make_params(d_x=5, d_y=4, P=6, P_out=6, o=6, C=3, R=2, seed=7, use_bias=False)
    p.proj_out.weight = Tensor(np.eye(6))
    rng = np.random.default_rng(2)
    x, y = Tensor(rng.normal(size=(2, 5))), Tensor(rng.normal(size=(2, 4)))
    before = fusion.block_fuse(x, y, p).data.copy()
    target = 1
    for r in range(p.rank):
        p.factors_x[target][r].weight.data[:] = 0.0
    after = fusion.block_fuse(x, y, p).data
    lo, hi = p.out_chunks[target]
    assert np.allclose(after[:, lo:hi], 0.0)
    mask = np.ones(6, dtype=bool)
    mask[lo:hi] = False
    assert np.array_equal(after[:, mask], before[:, mask])


def test_gradients_match_finite_differences():
    p = make_params(seed=13)
    rng = np.random.default_rng(6)
    x = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
    y = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
    probe = Tensor(rng.normal(size=(2, 3)))

    def loss():
        return T.mul(fusion.block_fuse(x, y, p), probe).sum()

    worst = max(
        T.grad_check(lambda t: loss(), x),
        T.grad_check(lambda t: loss(), y),
        max(T.grad_check(lambda t: loss(), t) for _, t in p.named_arrays()),
    )
    assert worst < 1e-4


def test_dimension_mismatch_rejected():
    p = make_params()
    with pytest.raises(T.ShapeError):
        fusion.block_fuse(Tensor(np.zeros((1, 7))), Tensor(np.zeros((1, 4))), p)
    with pytest.raises(T.ShapeError):
        fusion.block_fuse(Tensor(np.zeros(5)), Tensor(np.zeros(4)), p)
