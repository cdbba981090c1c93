"""Visually grounded question encoding.

Instead of encoding the question from word embeddings alone, each word first
attends over the scene's object-label embeddings, pulls in a weighted sum of
the object visual features, and is fused with that visual counterpart before
entering the recurrence. The resulting question representation depends on the
scene, which is exactly what the language-only baseline encoder lacks.

Attention scores come from the label embeddings only; attended values come
from the visual features only. Scoring for object i is
``score_i = a . (M (l_i * q))`` with a learned vector ``a`` and matrix ``M``
(no bias terms), softmax-normalized over the scene's objects. Every function
but the single-question trace helper takes row-batches of scenes and words;
all the words of a batch are grounded in one pass, each against its scene.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
# gru_cell is not called here; the name stays bound because perfbench/tracer.py
# wraps it at vqalab.grounding:gru_cell.
from .encoder import EmbeddingTable, GruParams, embed, gru_cell  # noqa: F401
from .fusion import BlockFusionParams, block_fuse, block_params_init
from .layers import Linear, linear_init, matrix_init, seeded_rng, vector_init
from .tensor import ShapeError, Tensor


@dataclass
class VgwParams:
    """Parameters of the grounded-word module: attention scoring, the two-layer
    word refinement, and the visual-word fusion."""

    attn_vector: Tensor        # (d_w,)
    attn_matrix: Tensor        # (d_w, d_w)
    refine_hidden: Linear      # d_w -> d
    refine_out: Linear         # d -> d
    fusion: BlockFusionParams  # (d_v, d) -> grounded_dim

    def named_arrays(self, prefix: str = "vgw"):
        yield f"{prefix}.attn_vector", self.attn_vector
        yield f"{prefix}.attn_matrix", self.attn_matrix
        yield from self.refine_hidden.named_arrays(f"{prefix}.refine_hidden")
        yield from self.refine_out.named_arrays(f"{prefix}.refine_out")
        yield from self.fusion.named_arrays(f"{prefix}.fusion")

    def score_column(self) -> Tensor:
        """The (d_w, 1) column (a^T M)^T: a.(M g) == g.(a^T M), so each object
        scores with one matmul against this column."""
        d_w = self.attn_vector.shape[0]
        row = T.matmul(T.reshape(self.attn_vector, (1, d_w)), self.attn_matrix)
        return T.reshape(row, (d_w, 1))


def vgw_params_init(d_v: int, d_w: int, refined_dim: int, grounded_dim: int,
                    fusion_proj: int, fusion_out_proj: int, chunks: int,
                    rank: int, seed: int) -> VgwParams:
    rng = seeded_rng(seed, 0x76B3)
    return VgwParams(
        attn_vector=vector_init(rng, d_w),
        attn_matrix=matrix_init(rng, d_w, d_w),
        refine_hidden=linear_init(rng, d_w, refined_dim),
        refine_out=linear_init(rng, refined_dim, refined_dim),
        fusion=block_params_init(d_v, refined_dim, fusion_proj, fusion_out_proj,
                                 grounded_dim, chunks, rank,
                                 seed=int(rng.integers(0, 2**31))),
    )


def vgw_attention(labels, words, score_column: Tensor, visual) -> tuple[Tensor, Tensor]:
    """Score objects by label-word agreement; return (weights, attended visual).

    labels (B, k, d_w), words (T*B, d_w) step-major (row t*B + b a word of
    scene b; T=1 is one word per scene), visual (B, k, d_v) -> weights
    (T*B, k), a Tensor without gradient, and attended (T*B, d_v). score_column
    is the (d_w, 1) column (a^T M)^T of VgwParams.score_column(). One
    `tensor.scene_attention` op; labels take no gradient.
    """
    attended, weights = T.scene_attention(words, score_column, labels, visual)
    return Tensor(weights), attended


def grounded_words(visual: np.ndarray, labels: np.ndarray, words: Tensor,
                   vgw: VgwParams) -> tuple[Tensor, Tensor]:
    """Ground the words of a batch in their scenes in one pass: attention over
    the objects, then fusion of the attended visual feature with the refined
    word.

    visual (B, k, d_v) and labels (B, k, d_w) are scene data, with no
    gradient; words (T*B, d_w) are step-major, row t*B + b a word of scene b.
    Returns the grounded words (T*B, grounded_dim) and the attention weights
    (T*B, k), rows in the same order.
    """
    words = T.as_tensor(words)
    alpha, attended = vgw_attention(labels, words, vgw.score_column(), visual)
    refined = vgw.refine_out(T.relu(vgw.refine_hidden(words)))
    return block_fuse(attended, refined, vgw.fusion), alpha


def encode_questions_vgqe(visual: np.ndarray, labels: np.ndarray,
                          token_matrix: np.ndarray, table: EmbeddingTable, vgw: VgwParams,
                          forward: GruParams, backward: GruParams) -> tuple[Tensor, np.ndarray]:
    """Grounded encoding: scenes (B, k, *) and tokens (B, T) -> ((B, 2H), attention).

    All T*B words are grounded in one pass and both reading directions, one
    `tensor.gru_sequence` op each, consume them; the attention weights come
    back as a (T, B, k) array indexed by timestep.
    """
    visual, labels = np.asarray(visual), np.asarray(labels)
    if visual.ndim != 3 or labels.ndim != 3 or visual.shape[:2] != labels.shape[:2]:
        raise ShapeError(f"scene arrays disagree: visual {visual.shape}, labels "
                         f"{labels.shape}; both need (batch, objects, dims)")
    if visual.shape[1] < 1:
        raise ShapeError("a scene needs at least one object")
    if not (np.isfinite(visual).all() and np.isfinite(labels).all()):
        raise ValueError("scene features must be finite")
    token_matrix = np.asarray(token_matrix)
    if token_matrix.ndim != 2 or token_matrix.shape[1] < 1:
        raise ValueError("token matrix must be (batch, T) with T >= 1")

    batch, steps = token_matrix.shape
    grounded, alpha = grounded_words(visual, labels, embed(token_matrix.T.reshape(-1), table),
                                     vgw)
    inputs = T.reshape(grounded, (steps, batch, grounded.shape[1]))
    h_f = T.gru_sequence(inputs, *forward.arrays())
    h_b = T.gru_sequence(inputs, *backward.arrays(), reverse=True)
    return T.concat([h_f, h_b], axis=1), alpha.data.reshape(steps, batch, -1)


def encode_question_vgqe(visual, labels, tokens, table: EmbeddingTable, vgw: VgwParams,
                         forward: GruParams, backward: GruParams
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Encode one question against one scene, for attention traces.

    visual (k, d_v), labels (k, d_w) and a token list -> the (2H,) encoding
    and the (T, k) attention weights, one row per word; both directions read
    this one grounding.
    """
    enc, attention = encode_questions_vgqe(np.asarray(visual)[None], np.asarray(labels)[None],
                                           np.asarray([tokens]), table, vgw, forward, backward)
    return enc.data[0], attention[:, 0]


def trace_records(question_id: str, weights: np.ndarray) -> dict:
    """One question's attention trace as a JSON-ready record: its id and the
    per-word weight rows."""
    return {"question_id": question_id,
            "weights": [[float(x) for x in row] for row in np.asarray(weights)]}
