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
but the single-question trace helper takes row-batches of scenes and words.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
# gru_cell is not called here; the name stays bound because perfbench/tracer.py
# wraps it at vqalab.grounding:gru_cell.
from .encoder import EmbeddingTable, GruParams, embed, gru_cell, run_gru  # noqa: F401
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


@dataclass
class VgqeParams:
    """Grounded encoder parameters: one (optionally two) grounded-word modules
    plus independent recurrences per direction."""

    vgw: VgwParams
    rnn_forward: GruParams
    rnn_backward: GruParams
    vgw_backward: VgwParams | None = None   # None: both directions share vgw

    @property
    def shared_vgw(self) -> bool:
        return self.vgw_backward is None

    def named_arrays(self, prefix: str = "vgqe"):
        yield from self.vgw.named_arrays(f"{prefix}.vgw")
        if self.vgw_backward is not None:
            yield from self.vgw_backward.named_arrays(f"{prefix}.vgw_backward")
        yield from self.rnn_forward.named_arrays(f"{prefix}.rnn_forward")
        yield from self.rnn_backward.named_arrays(f"{prefix}.rnn_backward")


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


def vgw_attention(labels, word, attn_vector: Tensor, attn_matrix: Tensor,
                  visual) -> tuple[Tensor, Tensor]:
    """Score objects by label-word agreement; return (weights, attended visual).

    labels (B, k, d_w), word (B, d_w), visual (B, k, d_v) -> ((B, k), (B, d_v)).
    """
    labels, word, visual = T.as_tensor(labels), T.as_tensor(word), T.as_tensor(visual)
    if labels.data.ndim != 3 or visual.data.ndim != 3 or labels.shape[:2] != visual.shape[:2]:
        raise ShapeError(f"scene tensors disagree: visual {visual.shape}, labels {labels.shape}")
    batch, k, d_w = labels.shape
    if word.shape != (batch, d_w):
        raise ShapeError(f"word batch {word.shape} does not match labels {labels.shape}")
    if attn_vector.shape != (d_w,) or attn_matrix.shape != (d_w, d_w):
        raise ShapeError(f"attention parameters sized {attn_vector.shape}/"
                         f"{attn_matrix.shape} do not match word dim {d_w}")

    labels_flat = T.reshape(labels, (batch * k, d_w))
    word_rep = T.repeat_rows(word, k)
    gated = T.mul(labels_flat, word_rep)
    # a.(M g) == (a^T M).g: one (1, d_w) row times M, then one column per object
    row = T.matmul(T.reshape(attn_vector, (1, d_w)), attn_matrix)
    scores = T.matmul(gated, T.reshape(row, (d_w, 1)))
    alpha = T.softmax(T.reshape(scores, (batch, k)), axis=1)
    return alpha, T.attend(alpha, visual)


def grounded_words(v3: Tensor, l3: Tensor, words: list[Tensor],
                   vgw: VgwParams) -> tuple[list[Tensor], list[Tensor]]:
    """Ground each (B, d_w) word in its scene: attention over the objects, then
    fusion of the attended visual feature with the refined word.

    Returns the grounded words (B, grounded_dim) and the attention weights
    (B, k), one of each per word.
    """
    grounded, alphas = [], []
    for word in words:
        alpha, attended = vgw_attention(l3, word, vgw.attn_vector, vgw.attn_matrix, v3)
        refined = vgw.refine_out(T.relu(vgw.refine_hidden(word)))
        grounded.append(block_fuse(attended, refined, vgw.fusion))
        alphas.append(alpha)
    return grounded, alphas


def encode_questions_vgqe(visual: np.ndarray, labels: np.ndarray,
                          token_matrix: np.ndarray, table: EmbeddingTable,
                          p: VgqeParams, return_trace: bool = False):
    """Grounded encoding: scenes (B, k, *) and tokens (B, T) -> (B, 2H).

    With return_trace, also the attention weights per direction, each a
    (T, B, k) array indexed by timestep. With a shared grounded-word module
    the per-word grounding is computed once and consumed by both reading
    directions.
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
    v3, l3 = Tensor(visual), Tensor(labels)

    words = [embed(token_matrix[:, t], table) for t in range(token_matrix.shape[1])]
    fwd_inputs, fwd_alphas = grounded_words(v3, l3, words, p.vgw)
    if p.shared_vgw:
        bwd_inputs, bwd_alphas = fwd_inputs, fwd_alphas
    else:
        bwd_inputs, bwd_alphas = grounded_words(v3, l3, words, p.vgw_backward)
    h_f = run_gru(fwd_inputs, p.rnn_forward)
    h_b = run_gru(bwd_inputs, p.rnn_backward, reverse=True)
    encoding = T.concat([h_f, h_b], axis=1)

    if not return_trace:
        return encoding
    traces = {
        "forward": np.stack([a.data for a in fwd_alphas]),    # (T, B, k)
        "backward": np.stack([a.data for a in bwd_alphas]),
    }
    return encoding, traces


def encode_question_vgqe(visual, labels, tokens, table: EmbeddingTable,
                         p: VgqeParams) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Encode one question against one scene, for attention traces.

    visual (k, d_v), labels (k, d_w) and a token list -> the (2H,) encoding
    and per-direction attention weights, each a (T, k) array.
    """
    enc, traces = encode_questions_vgqe(np.asarray(visual)[None], np.asarray(labels)[None],
                                        np.asarray([tokens]), table, p, return_trace=True)
    return enc.data[0], {direction: mat[:, 0, :] for direction, mat in traces.items()}


def trace_records(question_id: str, trace: dict[str, np.ndarray]) -> list[dict]:
    """Attention traces as JSON-ready records: one object per direction with
    per-step weight arrays."""
    out = []
    for direction in ("forward", "backward"):
        mat = np.asarray(trace[direction])
        out.append({
            "question_id": question_id,
            "direction": direction,
            "weights": [[float(x) for x in row] for row in mat],
        })
    return out
