"""Block-term bilinear fusion of two row-batches of feature vectors.

Both inputs are projected into a shared space, split into chunks, and each
chunk pair is combined by a sum of R rank-one-style bilinear maps (a low-rank
factorization per chunk). The per-chunk results are concatenated and projected
to the output dimension. With biases disabled the whole map is exactly
bilinear in its two inputs.

Each chunk keeps its R factor maps per side in one rank-stacked affine map,
weight (P_c, R*O_c) with column r*O_c + o for rank r, so the whole chunk-and-
rank core is one tape op, ``tensor.block_bilinear``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .layers import Linear, init_rng, linear_init
from .tensor import ShapeError, Tensor


def near_equal_partition(total: int, chunks: int) -> list[int]:
    """Split total into `chunks` sizes differing by at most one, largest first."""
    if chunks < 1:
        raise ValueError("chunks must be >= 1")
    if chunks > total:
        raise ValueError(f"cannot partition {total} into {chunks} nonempty chunks")
    base, rem = divmod(total, chunks)
    return [base + 1] * rem + [base] * (chunks - rem)


def _ranges(sizes: list[int]) -> list[tuple[int, int]]:
    starts = np.cumsum([0] + sizes)
    return [(int(starts[i]), int(starts[i + 1])) for i in range(len(sizes))]


@dataclass
class BlockFusionParams:
    proj_x: Linear                      # d_x -> P
    proj_y: Linear                      # d_y -> P
    factors_x: list[Linear]             # [chunk]: x-chunk -> R stacked out-chunks
    factors_y: list[Linear]
    proj_out: Linear                    # P_out -> o
    x_chunks: list[tuple[int, int]] = field(default_factory=list)
    out_chunks: list[tuple[int, int]] = field(default_factory=list)
    use_bias: bool = True

    @property
    def chunks(self) -> int:
        return len(self.x_chunks)

    @property
    def rank(self) -> int:
        start, end = self.out_chunks[0]
        return self.factors_x[0].d_out // (end - start)

    @property
    def d_x(self) -> int:
        return self.proj_x.d_in

    @property
    def d_y(self) -> int:
        return self.proj_y.d_in

    @property
    def out_dim(self) -> int:
        return self.proj_out.d_out

    def named_arrays(self, prefix: str = "fusion"):
        yield from self.proj_x.named_arrays(f"{prefix}.proj_x")
        yield from self.proj_y.named_arrays(f"{prefix}.proj_y")
        for c in range(self.chunks):
            yield from self.factors_x[c].named_arrays(f"{prefix}.factor_x.{c}")
            yield from self.factors_y[c].named_arrays(f"{prefix}.factor_y.{c}")
        yield from self.proj_out.named_arrays(f"{prefix}.proj_out")


def _rank_stacked_init(rng: np.random.Generator, d_in: int, d_out: int, rank: int,
                       bias: bool) -> Linear:
    """R affine maps d_in -> d_out, drawn one after another, stacked rank-major
    into one d_in -> R*d_out map."""
    maps = [linear_init(rng, d_in, d_out, bias=bias) for _ in range(rank)]
    weight = Tensor(np.concatenate([m.weight.data for m in maps], axis=1),
                    requires_grad=True)
    b = Tensor(np.concatenate([m.bias.data for m in maps]), requires_grad=True) \
        if bias else None
    return Linear(weight, b)


def block_params_init(d_x: int, d_y: int, proj_dim: int, out_proj_dim: int,
                      out_dim: int, chunks: int, rank: int, seed: int | None,
                      use_bias: bool = True) -> BlockFusionParams:
    """Build fusion parameters with near-equal chunk partitions, seeded (a
    seed of None leaves them zero)."""
    if chunks < 1 or rank < 1:
        raise ValueError("chunks and rank must be >= 1")
    if chunks > proj_dim or chunks > out_proj_dim:
        raise ValueError(f"chunks={chunks} exceeds projection dim "
                         f"({proj_dim}) or output projection dim ({out_proj_dim})")
    rng = init_rng(seed, 0xB10C)
    x_sizes = near_equal_partition(proj_dim, chunks)
    out_sizes = near_equal_partition(out_proj_dim, chunks)
    factors_x, factors_y = [], []
    for c in range(chunks):
        factors_x.append(_rank_stacked_init(rng, x_sizes[c], out_sizes[c], rank, use_bias))
        factors_y.append(_rank_stacked_init(rng, x_sizes[c], out_sizes[c], rank, use_bias))
    return BlockFusionParams(
        proj_x=linear_init(rng, d_x, proj_dim, bias=use_bias),
        proj_y=linear_init(rng, d_y, proj_dim, bias=use_bias),
        factors_x=factors_x,
        factors_y=factors_y,
        proj_out=linear_init(rng, out_proj_dim, out_dim, bias=use_bias),
        x_chunks=_ranges(x_sizes),
        out_chunks=_ranges(out_sizes),
        use_bias=use_bias,
    )


def block_fuse(x, y, p: BlockFusionParams) -> Tensor:
    """Fuse row-batches x (N*k, d_x) and y (N, d_y) into (N*k, p.out_dim): x row
    i pairs with y row i // k, so y is projected once per group of k x rows;
    `tensor.block_bilinear` raises ShapeError when N does not divide the x rows."""
    x, y = T.as_tensor(x), T.as_tensor(y)
    if x.data.ndim != 2 or y.data.ndim != 2 or x.shape[1] != p.d_x or y.shape[1] != p.d_y:
        raise ShapeError(f"block_fuse: inputs {x.shape}, {y.shape} are not row-batches "
                         f"of the parameter dims ({p.d_x}, {p.d_y})")

    z = T.block_bilinear(p.proj_x(x), p.proj_y(y),
                         [f.weight for f in p.factors_x],
                         [f.bias for f in p.factors_x] if p.use_bias else None,
                         [f.weight for f in p.factors_y],
                         [f.bias for f in p.factors_y] if p.use_bias else None,
                         p.x_chunks, p.out_chunks, p.rank)
    return p.proj_out(z)
