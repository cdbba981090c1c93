"""Block-term bilinear fusion of two row-batches of feature vectors.

Both inputs are projected into a shared space, split into chunks, and each
chunk pair is combined by a sum of R rank-one-style bilinear maps (a low-rank
factorization per chunk). The per-chunk results are concatenated and projected
to the output dimension. Every map has a bias; with its bias arrays zeroed the
whole map is exactly bilinear in its two inputs.

Each chunk keeps its R factor maps per side in one rank-stacked affine map,
weight (P_c, R*O_c) with column r*O_c + o for rank r, so the whole chunk-and-
rank core is one tape op, ``tensor.block_bilinear``. The factor weights are
the chunk layout: chunk c covers the next P_c projected columns and the next
O_c output columns, and the chunk count and rank follow from the weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import ConfigError
from .layers import Linear, init_rng, linear_init
from .tensor import ShapeError, Tensor


def near_equal_partition(total: int, chunks: int) -> list[int]:
    """Split total into `chunks` sizes differing by at most one, largest first
    (1 <= chunks <= total)."""
    base, rem = divmod(total, chunks)
    return [base + 1] * rem + [base] * (chunks - rem)


@dataclass
class BlockFusionParams:
    proj_x: Linear                      # d_x -> P
    proj_y: Linear                      # d_y -> P
    factors_x: list[Linear]             # [chunk]: x-chunk -> R stacked out-chunks
    factors_y: list[Linear]
    proj_out: Linear                    # P_out -> o

    @property
    def chunks(self) -> int:
        return len(self.factors_x)

    @property
    def rank(self) -> int:
        return sum(f.d_out for f in self.factors_x) // self.proj_out.d_in

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


def _rank_stacked_init(rng: np.random.Generator, d_in: int, d_out: int,
                       rank: int) -> Linear:
    """R affine maps d_in -> d_out, drawn one after another as `linear_init`
    draws them (weight, then bias), straight into one rank-major stacked
    d_in -> R*d_out map."""
    bound = 1.0 / np.sqrt(d_in)
    weight = np.empty((d_in, rank, d_out), T.get_default_dtype())
    b = np.empty((rank, d_out), weight.dtype)
    for r in range(rank):
        weight[:, r] = rng.uniform(-bound, bound, size=(d_in, d_out))
        b[r] = rng.uniform(-bound, bound, size=d_out)
    return Linear(Tensor(weight.reshape(d_in, rank * d_out), requires_grad=True),
                  Tensor(b.reshape(-1), requires_grad=True))


def block_params_init(d_x: int, d_y: int, proj_dim: int, out_proj_dim: int,
                      out_dim: int, chunks: int, rank: int,
                      seed: int | None) -> BlockFusionParams:
    """Build fusion parameters with near-equal chunk partitions, seeded (a
    seed of None leaves them zero)."""
    if not 1 <= chunks <= min(proj_dim, out_proj_dim):
        raise ConfigError("chunks", f"must be from 1 to the projection dims ({proj_dim} and "
                          f"{out_proj_dim}), got {chunks}")
    rng = init_rng(seed, 0xB10C)
    x_sizes = near_equal_partition(proj_dim, chunks)
    out_sizes = near_equal_partition(out_proj_dim, chunks)
    factors_x, factors_y = [], []
    for c in range(chunks):
        factors_x.append(_rank_stacked_init(rng, x_sizes[c], out_sizes[c], rank))
        factors_y.append(_rank_stacked_init(rng, x_sizes[c], out_sizes[c], rank))
    return BlockFusionParams(
        proj_x=linear_init(rng, d_x, proj_dim),
        proj_y=linear_init(rng, d_y, proj_dim),
        factors_x=factors_x,
        factors_y=factors_y,
        proj_out=linear_init(rng, out_proj_dim, out_dim),
    )


def block_fuse(x, y, p: BlockFusionParams) -> Tensor:
    """Fuse row-batches x (k*N, d_x) and y (N, d_y) into (k*N, p.out_dim): x row
    i pairs with y row i mod N, so x is k blocks of N rows that each pair row for
    row with y, and y is projected once; `tensor.block_bilinear` raises
    ShapeError when N does not divide the x rows."""
    x, y = T.as_tensor(x), T.as_tensor(y)
    if x.data.ndim != 2 or y.data.ndim != 2 or x.shape[1] != p.d_x or y.shape[1] != p.d_y:
        raise ShapeError(f"block_fuse: inputs {x.shape}, {y.shape} are not row-batches "
                         f"of the parameter dims ({p.d_x}, {p.d_y})")

    z = T.block_bilinear(p.proj_x(x), p.proj_y(y),
                         [f.weight for f in p.factors_x], [f.bias for f in p.factors_x],
                         [f.weight for f in p.factors_y], [f.bias for f in p.factors_y],
                         p.rank)
    return p.proj_out(z)
