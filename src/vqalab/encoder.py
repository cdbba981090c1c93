"""Token embedding and recurrent question encoding.

The baseline question encoder is deliberately language-only: a frozen
embedding lookup followed by a bidirectional GRU over the token sequence,
returning the concatenated final states of both directions. Every function
takes row-batches: a (B, T) token matrix, (B, d) inputs and states. Nothing
image-shaped enters this module, so the same token sequence always encodes
to the bit-identical vector regardless of the scene it is later paired with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .layers import matrix_init, seeded_rng
from .tensor import ShapeError, Tensor


@dataclass
class EmbeddingTable:
    """Frozen word vectors: looked up, never trained."""

    vectors: Tensor           # (vocab, d_w)

    @property
    def vocab_size(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def named_arrays(self, prefix: str = "embedding"):
        yield f"{prefix}.vectors", self.vectors


def embedding_table_init(vocab_size: int, dim: int, seed: int) -> EmbeddingTable:
    """Unit-variance Gaussian rows standing in for pre-trained word vectors."""
    rng = seeded_rng(seed, 0xE4BED)
    return EmbeddingTable(Tensor(rng.normal(size=(vocab_size, dim))))


def embed(ids, table: EmbeddingTable) -> Tensor:
    """Look up token rows, order preserved: ids of shape S -> S + (d_w,)."""
    ids = np.asarray(ids)
    if ids.size == 0:
        raise ValueError("cannot embed an empty token sequence")
    bad = (ids < 0) | (ids >= table.vocab_size)
    if bad.any():
        raise IndexError(f"token id {ids[bad][0]} out of range for vocabulary "
                         f"of size {table.vocab_size}")
    return Tensor(table.vectors.data[ids])


@dataclass
class GruParams:
    """Standard gated recurrent unit; h = (1-z)*h_prev + z*h_candidate."""

    w_update: Tensor   # (d_in, H)
    u_update: Tensor   # (H, H)
    b_update: Tensor   # (H,)
    w_reset: Tensor
    u_reset: Tensor
    b_reset: Tensor
    w_cand: Tensor
    u_cand: Tensor
    b_cand: Tensor

    @property
    def input_dim(self) -> int:
        return self.w_update.shape[0]

    @property
    def hidden_dim(self) -> int:
        return self.w_update.shape[1]

    def named_arrays(self, prefix: str = "gru"):
        for name in ("w_update", "u_update", "b_update", "w_reset", "u_reset",
                     "b_reset", "w_cand", "u_cand", "b_cand"):
            yield f"{prefix}.{name}", getattr(self, name)


def gru_params_init(input_dim: int, hidden_dim: int, seed: int) -> GruParams:
    rng = seeded_rng(seed, 0x62D0)
    def w():
        return matrix_init(rng, input_dim, hidden_dim)
    def u():
        return matrix_init(rng, hidden_dim, hidden_dim)
    def b():
        return Tensor(np.zeros(hidden_dim), requires_grad=True)
    return GruParams(w(), u(), b(), w(), u(), b(), w(), u(), b())


def gru_cell(x, h_prev, p: GruParams) -> Tensor:
    """One recurrence step over row-batches: x (B, d_in), h_prev (B, H) -> (B, H)."""
    x, h_prev = T.as_tensor(x), T.as_tensor(h_prev)
    if x.data.ndim != 2 or h_prev.data.ndim != 2 \
            or x.shape[1] != p.input_dim or h_prev.shape[1] != p.hidden_dim:
        raise ShapeError(f"gru_cell: input {x.shape} / state {h_prev.shape} are not "
                         f"row-batches of the parameter dims ({p.input_dim}, {p.hidden_dim})")
    z = T.sigmoid(T.add(T.add(T.matmul(x, p.w_update), T.matmul(h_prev, p.u_update)), p.b_update))
    r = T.sigmoid(T.add(T.add(T.matmul(x, p.w_reset), T.matmul(h_prev, p.u_reset)), p.b_reset))
    cand = T.tanh(T.add(T.add(T.matmul(x, p.w_cand),
                              T.matmul(T.mul(r, h_prev), p.u_cand)), p.b_cand))
    return T.add(T.mul(T.sub(1.0, z), h_prev), T.mul(z, cand))


def run_gru(steps: list[Tensor], p: GruParams, reverse: bool = False) -> Tensor:
    """Fold a GRU over a list of (B, d_in) inputs from a zero state."""
    batch = steps[0].shape[0]
    h = Tensor(np.zeros((batch, p.hidden_dim)))
    order = reversed(steps) if reverse else steps
    for x_t in order:
        h = gru_cell(x_t, h, p)
    return h


def encode_questions_baseline(token_matrix: np.ndarray, table: EmbeddingTable,
                              forward: GruParams, backward: GruParams) -> Tensor:
    """Bidirectional recurrence over embeddings: (B, T) token ids -> (B, 2H),
    the concatenated final states. All rows share one length."""
    token_matrix = np.asarray(token_matrix)
    if token_matrix.ndim != 2 or token_matrix.shape[1] < 1:
        raise ValueError("token matrix must be (batch, T) with T >= 1")
    steps = [embed(token_matrix[:, t], table) for t in range(token_matrix.shape[1])]
    h_fwd = run_gru(steps, forward)
    h_bwd = run_gru(steps, backward, reverse=True)
    return T.concat([h_fwd, h_bwd], axis=1)
