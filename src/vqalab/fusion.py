"""Block-term bilinear fusion of two row-batches of feature vectors.

Both inputs are projected into a shared space, split into chunks, and each
chunk pair is combined by a sum of R rank-one-style bilinear maps (a low-rank
factorization per chunk). The per-chunk results are concatenated and projected
to the output dimension. With biases disabled the whole map is exactly
bilinear in its two inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .layers import Linear, linear_init, seeded_rng
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
    factors_x: list[list[Linear]]       # [chunk][rank]: x-chunk -> out-chunk
    factors_y: list[list[Linear]]
    proj_out: Linear                    # P_out -> o
    x_chunks: list[tuple[int, int]] = field(default_factory=list)
    out_chunks: list[tuple[int, int]] = field(default_factory=list)
    use_bias: bool = True

    @property
    def chunks(self) -> int:
        return len(self.x_chunks)

    @property
    def rank(self) -> int:
        return len(self.factors_x[0])

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
            for r in range(self.rank):
                yield from self.factors_x[c][r].named_arrays(f"{prefix}.factor_x.{c}.{r}")
                yield from self.factors_y[c][r].named_arrays(f"{prefix}.factor_y.{c}.{r}")
        yield from self.proj_out.named_arrays(f"{prefix}.proj_out")


def block_params_init(d_x: int, d_y: int, proj_dim: int, out_proj_dim: int,
                      out_dim: int, chunks: int, rank: int, seed: int,
                      use_bias: bool = True) -> BlockFusionParams:
    """Build fusion parameters with near-equal chunk partitions, seeded."""
    if chunks < 1 or rank < 1:
        raise ValueError("chunks and rank must be >= 1")
    if chunks > proj_dim or chunks > out_proj_dim:
        raise ValueError(f"chunks={chunks} exceeds projection dim "
                         f"({proj_dim}) or output projection dim ({out_proj_dim})")
    rng = seeded_rng(seed, 0xB10C)
    x_sizes = near_equal_partition(proj_dim, chunks)
    out_sizes = near_equal_partition(out_proj_dim, chunks)
    factors_x, factors_y = [], []
    for c in range(chunks):
        fx = [linear_init(rng, x_sizes[c], out_sizes[c], bias=use_bias) for _ in range(rank)]
        fy = [linear_init(rng, x_sizes[c], out_sizes[c], bias=use_bias) for _ in range(rank)]
        factors_x.append(fx)
        factors_y.append(fy)
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
    """Fuse row-batches x (B, d_x) and y (B, d_y) into (B, p.out_dim)."""
    x, y = T.as_tensor(x), T.as_tensor(y)
    if x.data.ndim != 2 or y.data.ndim != 2 or x.shape[1] != p.d_x or y.shape[1] != p.d_y:
        raise ShapeError(f"block_fuse: inputs {x.shape}, {y.shape} are not row-batches "
                         f"of the parameter dims ({p.d_x}, {p.d_y})")

    px = p.proj_x(x)
    py = p.proj_y(y)
    parts = []
    for c, (start, end) in enumerate(p.x_chunks):
        x_c = T.narrow(px, 1, start, end - start)
        y_c = T.narrow(py, 1, start, end - start)
        acc = None
        for r in range(p.rank):
            term = T.mul(p.factors_x[c][r](x_c), p.factors_y[c][r](y_c))
            acc = term if acc is None else T.add(acc, term)
        parts.append(acc)
    z = T.concat(parts, axis=1)
    return p.proj_out(z)
