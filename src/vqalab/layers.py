"""Small shared building blocks: affine layers and seeded initializers.

Every initializer draws from a generator that `init_rng` hands out. Given no
seed, it hands out `LAYOUT` instead, which draws nothing: each "draw" is a
zero array of the asked size. So the one set of initializers also builds a
model's layout, arrays of the right shapes waiting to be filled, as loading a
checkpoint does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor


@dataclass
class Linear:
    """Affine map x @ weight + bias, the weight stored as (d_in, d_out) so
    batches multiply as x @ w; a call is one `tensor.affine` op."""

    weight: Tensor
    bias: Tensor

    @property
    def d_in(self) -> int:
        return self.weight.shape[0]

    @property
    def d_out(self) -> int:
        return self.weight.shape[1]

    def __call__(self, x: Tensor) -> Tensor:
        return T.affine(x, self.weight, self.bias)

    def named_arrays(self, prefix: str):
        yield f"{prefix}.weight", self.weight
        yield f"{prefix}.bias", self.bias


def linear_init(rng: np.random.Generator, d_in: int, d_out: int) -> Linear:
    """Uniform init scaled by 1/sqrt(fan_in), the usual dense-layer default."""
    bound = 1.0 / np.sqrt(d_in)
    weight = Tensor(rng.uniform(-bound, bound, size=(d_in, d_out)), requires_grad=True)
    return Linear(weight, Tensor(rng.uniform(-bound, bound, size=d_out), requires_grad=True))


def vector_init(rng: np.random.Generator, dim: int) -> Tensor:
    bound = 1.0 / np.sqrt(dim)
    return Tensor(rng.uniform(-bound, bound, size=dim), requires_grad=True)


def matrix_init(rng: np.random.Generator, d_in: int, d_out: int) -> Tensor:
    bound = 1.0 / np.sqrt(d_in)
    return Tensor(rng.uniform(-bound, bound, size=(d_in, d_out)), requires_grad=True)


def seeded_rng(*entropy) -> np.random.Generator:
    """Deterministic generator from a tuple of integers."""
    return np.random.default_rng(np.random.SeedSequence(list(entropy)))


class _Layout:
    """A stand-in generator for building layouts: every draw is a zero array
    of the asked size, in the default dtype, and no seed is drawn."""

    def uniform(self, low=0.0, high=1.0, size=None) -> np.ndarray:
        return np.zeros(size, T.get_default_dtype())

    normal = uniform


LAYOUT = _Layout()


def init_rng(seed: int | None, tag: int):
    """The generator an initializer draws from: seeded from (seed, tag), or
    LAYOUT, for a seed of None."""
    return LAYOUT if seed is None else seeded_rng(seed, tag)


def child_seed(rng) -> int | None:
    """The seed of a sub-module's initializer, drawn from `rng`; None, drawing
    nothing, from LAYOUT."""
    return None if rng is LAYOUT else int(rng.integers(2**31))
