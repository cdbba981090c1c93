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
from .layers import init_rng, matrix_init
from .tensor import Tensor


def embedding_table_init(vocab_size: int, dim: int, seed: int | None) -> Tensor:
    """A frozen (vocab_size, dim) word table, looked up and never trained:
    unit-variance Gaussian rows standing in for pre-trained word vectors;
    zeros for a seed of None."""
    rng = init_rng(seed, 0xE4BED)
    return Tensor(rng.normal(size=(vocab_size, dim)))


def embed(ids, table: Tensor) -> Tensor:
    """Look up token rows, order preserved: ids of shape S -> S + (d_w,)."""
    ids = np.asarray(ids)
    if ids.size == 0:
        raise ValueError("cannot embed an empty token sequence")
    vocab_size = table.shape[0]
    bad = (ids < 0) | (ids >= vocab_size)
    if bad.any():
        raise IndexError(f"token id {ids[bad][0]} out of range for vocabulary "
                         f"of size {vocab_size}")
    return Tensor(table.data[ids])


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

    def named_arrays(self, prefix: str = "gru"):
        for name in ("w_update", "u_update", "b_update", "w_reset", "u_reset",
                     "b_reset", "w_cand", "u_cand", "b_cand"):
            yield f"{prefix}.{name}", getattr(self, name)

    def arrays(self) -> tuple[Tensor, ...]:
        """The nine arrays in the order `tensor.gru_sequence` takes."""
        return tuple(t for _, t in self.named_arrays())


def gru_params_init(input_dim: int, hidden_dim: int, seed: int | None) -> GruParams:
    rng = init_rng(seed, 0x62D0)
    def w():
        return matrix_init(rng, input_dim, hidden_dim)
    def u():
        return matrix_init(rng, hidden_dim, hidden_dim)
    def b():
        return Tensor(np.zeros(hidden_dim), requires_grad=True)
    return GruParams(w(), u(), b(), w(), u(), b(), w(), u(), b())


def gru_cell(x, h_prev, p: GruParams) -> Tensor:
    """One recurrence step over row-batches: x (B, d_in), h_prev (B, H) -> (B, H).

    z = sigmoid(x Wz + h Uz + bz), r = sigmoid(x Wr + h Ur + br),
    c = tanh(x Wc + (r * h) Uc + bc), and the new state (1 - z) * h + z * c,
    each term added in that order, composed from primitive tape ops. It is
    the reference `tensor.gru_sequence` is held to: a fold of this step from
    the zero state gives that op's values to the bit."""
    z = T.sigmoid(T.add(T.add(T.matmul(x, p.w_update), T.matmul(h_prev, p.u_update)),
                        p.b_update))
    r = T.sigmoid(T.add(T.add(T.matmul(x, p.w_reset), T.matmul(h_prev, p.u_reset)),
                        p.b_reset))
    c = T.tanh(T.add(T.add(T.matmul(x, p.w_cand), T.matmul(T.mul(r, h_prev), p.u_cand)),
                     p.b_cand))
    return T.add(T.mul(T.sub(1.0, z), h_prev), T.mul(z, c))


def encode_questions_baseline(token_matrix: np.ndarray, table: Tensor,
                              forward: GruParams, backward: GruParams) -> Tensor:
    """Bidirectional recurrence over embeddings: (B, T) token ids -> (B, 2H),
    the concatenated final states. All rows share one length.

    A row's encoding depends on its tokens alone, so each of the U distinct
    rows is encoded once: each direction is one `tensor.gru_sequence` op over
    their (T, U, d_w) embeddings, and one `tensor.take_rows` op gathers the
    (U, 2H) encodings back to the batch's rows. The distinct rows keep the
    order in which they first occur, so an out-of-range id is named as a read
    of every row, step by step, would name it."""
    token_matrix = np.asarray(token_matrix)
    if token_matrix.ndim != 2 or token_matrix.shape[1] < 1:
        raise ValueError("token matrix must be (batch, T) with T >= 1")
    # lexsort is stable: each run of equal rows starts at the row's first occurrence
    order = np.lexsort(token_matrix.T)
    ordered = token_matrix[order]
    starts = np.ones(len(order), dtype=bool)
    np.any(ordered[1:] != ordered[:-1], axis=1, out=starts[1:])
    firsts = order[starts]
    # number the runs in the order their rows first occur
    by_first = np.argsort(firsts)
    position = np.empty_like(by_first)
    position[by_first] = np.arange(len(by_first))
    index = np.empty_like(order)
    index[order] = position[np.cumsum(starts) - 1]
    steps = embed(token_matrix[firsts[by_first]].T, table)
    encoded = T.concat([T.gru_sequence(steps, *forward.arrays()),
                        T.gru_sequence(steps, *backward.arrays(), reverse=True)], axis=1)
    return T.take_rows(encoded, index)
