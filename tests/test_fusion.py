import numpy as np
import pytest

from vqalab import fusion, tensor as T
from vqalab.layers import Linear, linear_init, seeded_rng
from vqalab.model import ModelConfig, init_model
from vqalab.tensor import Tensor


def make_params(d_x=5, d_y=4, P=6, P_out=6, o=3, C=2, R=2, seed=0):
    return fusion.block_params_init(d_x, d_y, P, P_out, o, C, R, seed)


def bilinear_params(**kw):
    """make_params with every bias array zeroed: an exactly bilinear map."""
    p = make_params(**kw)
    for name, t in p.named_arrays():
        if name.endswith(".bias"):
            t.data[...] = 0.0
    return p


def chunk_columns(p):
    """Per chunk, the projected and the output columns its factor weights cover."""
    x_end = out_end = 0
    for f in p.factors_x:
        width = f.d_out // p.rank
        yield (x_end, x_end + f.d_in), (out_end, out_end + width)
        x_end, out_end = x_end + f.d_in, out_end + width


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
        p = make_params(P=7, P_out=5, C=3, R=2)
        assert (p.chunks, p.rank) == (3, 2)
        assert list(chunk_columns(p)) == [((0, 3), (0, 2)), ((3, 5), (2, 4)), ((5, 7), (4, 5))]
        assert p.proj_x.d_out == 7 and p.proj_out.d_in == 5


class TestInitDeterminism:
    def test_same_seed_bit_identical(self):
        a, b = dump(make_params(seed=11)), dump(make_params(seed=11))
        assert a.keys() == b.keys()
        for name in a:
            assert np.array_equal(a[name], b[name])

    def test_different_seed_differs(self):
        a, b = dump(make_params(seed=1)), dump(make_params(seed=2))
        assert any(not np.array_equal(a[n], b[n]) for n in a)

    def test_rank_stacked_layout(self):
        p = make_params(P=7, P_out=5, C=3, R=2)
        shapes = {name: t.shape for name, t in p.named_arrays()}
        for c, ((lo, hi), (o_lo, o_hi)) in enumerate(chunk_columns(p)):
            for side in ("x", "y"):
                assert shapes[f"fusion.factor_{side}.{c}.weight"] == (hi - lo, 2 * (o_hi - o_lo))
                assert shapes[f"fusion.factor_{side}.{c}.bias"] == (2 * (o_hi - o_lo),)
        assert len(shapes) == 6 + 4 * 3
        assert p.rank == 2

    def test_draws_follow_per_rank_order(self):
        # per chunk: R x-factors, then R y-factors, each stacked rank-major;
        # then proj_x, proj_y, proj_out
        p = make_params(P=7, P_out=5, C=3, R=2, seed=4)
        rng = seeded_rng(4, 0xB10C)
        for c, ((lo, hi), (o_lo, o_hi)) in enumerate(chunk_columns(p)):
            for stacked in (p.factors_x[c], p.factors_y[c]):
                width = o_hi - o_lo
                for r in range(2):
                    drawn = linear_init(rng, hi - lo, width)
                    cols = slice(r * width, (r + 1) * width)
                    assert np.array_equal(stacked.weight.data[:, cols], drawn.weight.data)
                    assert np.array_equal(stacked.bias.data[cols], drawn.bias.data)
        for layer, (d_in, d_out) in ((p.proj_x, (5, 7)), (p.proj_y, (4, 7)),
                                     (p.proj_out, (5, 3))):
            drawn = linear_init(rng, d_in, d_out)
            assert np.array_equal(layer.weight.data, drawn.weight.data)
            assert np.array_equal(layer.bias.data, drawn.bias.data)

    @staticmethod
    def concatenating_init(rng, d_in, d_out, rank):
        """The rank-stacked init as R `linear_init` maps, concatenated."""
        maps = [linear_init(rng, d_in, d_out) for _ in range(rank)]
        weight = Tensor(np.concatenate([m.weight.data for m in maps], axis=1),
                        requires_grad=True)
        b = Tensor(np.concatenate([m.bias.data for m in maps]), requires_grad=True)
        return Linear(weight, b)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bytes_match_concatenating_init(self, monkeypatch, dtype):
        def build():
            with T.using_dtype(dtype):
                models = [init_model(ModelConfig(variant=variant, seed=seed)).flat.tobytes()
                          for variant in ("baseline", "vgqe") for seed in (0, 1, 7)]
                return models, dump(make_params(P=7, P_out=5, C=3, R=3, seed=2))
        models, fused = build()
        monkeypatch.setattr(fusion, "_rank_stacked_init", self.concatenating_init)
        want_models, want_fused = build()
        assert models == want_models
        assert fused.keys() == want_fused.keys()
        for name, value in fused.items():
            assert value.dtype == dtype and value.tobytes() == want_fused[name].tobytes()

    @pytest.mark.parametrize("variant", ["baseline", "vgqe"])
    def test_every_affine_map_has_a_bias(self, variant):
        # each `.weight` is an affine map's, and its `.bias` is as wide as its output
        arrays = dict(init_model(ModelConfig(variant=variant, seed=0)).named_arrays())
        weights = [n for n in arrays if n.endswith(".weight")]
        assert weights
        for name in weights:
            bias = arrays[name[: -len("weight")] + "bias"]
            assert bias.shape == (arrays[name].shape[1],) and bias.requires_grad
        assert sum(n.endswith(".bias") for n in arrays) == len(weights)


class TestBilinearity:
    def test_zero_input_gives_zero(self):
        p = bilinear_params()
        rng = np.random.default_rng(0)
        y = Tensor(rng.normal(size=(3, 4)))
        out = fusion.block_fuse(Tensor(np.zeros((3, 5))), y, p)
        assert np.allclose(out.data, 0.0)

    def test_homogeneity(self):
        p = bilinear_params()
        rng = np.random.default_rng(1)
        x, y = Tensor(rng.normal(size=(3, 5))), Tensor(rng.normal(size=(3, 4)))
        once = fusion.block_fuse(x, y, p).data
        doubled = fusion.block_fuse(T.scale(x, 2.0), y, p).data
        assert np.max(np.abs(doubled - 2.0 * once)) < 1e-9

    def test_additivity_both_arguments(self):
        p = bilinear_params()
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
        p = bilinear_params(d_x=3, d_y=3, P=3, P_out=3, o=3, C=1, R=1, seed=5)
        p.proj_x.weight = Tensor(np.eye(3))
        p.proj_y.weight = Tensor(np.eye(3))
        rng = np.random.default_rng(9)
        x, y = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        got = fusion.block_fuse(Tensor(x), Tensor(y), p).data

        a = p.factors_x[0].weight.data
        b = p.factors_y[0].weight.data
        w_out = p.proj_out.weight.data
        expected = ((x @ a) * (y @ b)) @ w_out
        assert np.max(np.abs(got - expected)) < 1e-12

    @pytest.mark.parametrize("C,R", [(3, 3), (1, 2)])
    def test_matches_per_chunk_per_rank_composition(self, C, R):
        # the composition block_bilinear replaces: per chunk, R separate affine
        # factor maps per side, multiplied and summed rank by rank
        p = make_params(d_x=5, d_y=4, P=7, P_out=5, o=3, C=C, R=R, seed=8)
        rng = np.random.default_rng(10)
        x, y = rng.normal(size=(6, 5)), rng.normal(size=(6, 4))
        affine = lambda v, layer: v @ layer.weight.data + layer.bias.data
        px, py = affine(x, p.proj_x), affine(y, p.proj_y)
        parts = []
        for c, ((lo, hi), (o_lo, o_hi)) in enumerate(chunk_columns(p)):
            wx, wy = p.factors_x[c], p.factors_y[c]
            acc = None
            for r in range(p.rank):
                cols = slice(r * (o_hi - o_lo), (r + 1) * (o_hi - o_lo))
                u = px[:, lo:hi] @ wx.weight.data[:, cols] + wx.bias.data[cols]
                v = py[:, lo:hi] @ wy.weight.data[:, cols] + wy.bias.data[cols]
                acc = u * v if acc is None else acc + u * v
            parts.append(acc)
        expected = affine(np.concatenate(parts, axis=1), p.proj_out)
        got = fusion.block_fuse(Tensor(x), Tensor(y), p).data
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
    p = bilinear_params(d_x=5, d_y=4, P=6, P_out=6, o=6, C=3, R=2, seed=7)
    p.proj_out.weight = Tensor(np.eye(6))
    rng = np.random.default_rng(2)
    x, y = Tensor(rng.normal(size=(2, 5))), Tensor(rng.normal(size=(2, 4)))
    before = fusion.block_fuse(x, y, p).data.copy()
    target = 1
    p.factors_x[target].weight.data[:] = 0.0
    after = fusion.block_fuse(x, y, p).data
    _, (lo, hi) = list(chunk_columns(p))[target]
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
