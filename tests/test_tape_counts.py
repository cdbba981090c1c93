"""Tape record counts of the hot paths, pinned exactly.

Step time is dominated by per-op Python overhead, so the number of records a
forward pass puts on the tape is the cost model. A change that falls back to
composing block fusion chunk by chunk and rank by rank, a GRU direction step
by step, or grounding word by word or op by op, changes these counts. Each
test counts on the tape of its own recording, which must hold no records
once the recording ends, whether by a backward pass, without one, or by an
exception.
"""

import numpy as np
import pytest

from vqalab import gradcheck, tensor as T
from vqalab.fusion import block_fuse, block_params_init
from vqalab.grounding import encode_question_vgqe
from vqalab.model import FusionConfig, ModelConfig, forward_batch, init_model
from vqalab.tensor import ShapeError, Tensor
from vqalab.train import cross_entropy_rows

TINY = dict(d_v=6, d_w=5, hidden=4, refined_dim=4, grounded_dim=6, pooled_dim=6,
            answer_count=8, vocab_size=9, dropout=0.0,
            vgw_fusion=FusionConfig(6, 6, 2, 2), obj_fusion=FusionConfig(6, 6, 2, 2))


def default_size_batch(seed):
    """Default ModelConfig inputs at B=128, T=4."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=(128, 8, 32)), rng.normal(size=(128, 8, 16)), \
        rng.integers(0, 16, size=(128, 4)), rng


@pytest.mark.parametrize("chunks,rank", [(4, 3), (1, 1)])
def test_block_fuse_records(chunks, rank):
    # proj_x and proj_y (one affine op each), block_bilinear, proj_out, at any layout
    p = block_params_init(32, 64, 32, 32, 32, chunks=chunks, rank=rank, seed=0)
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(5, 32)), requires_grad=True)
    y = Tensor(rng.normal(size=(5, 64)))
    with T.recording() as tape:
        out = block_fuse(x, y, p)
        assert len(tape) == 4
        assert [r.op for r in tape.records].count("block_bilinear") == 1
        T.backward(out.sum())


@pytest.mark.parametrize("variant,count", [("baseline", 17), ("vgqe", 28)])
def test_training_step_records(variant, count):
    params = init_model(ModelConfig(variant=variant, seed=3, **TINY))
    rng = np.random.default_rng(1)
    visual, labels = rng.normal(size=(4, 3, 6)), rng.normal(size=(4, 3, 5))
    tokens = np.array([[1, 4, 2], [0, 8, 8], [3, 3, 5], [7, 6, 2]])
    with T.recording() as tape:
        loss = T.reduce_mean(cross_entropy_rows(
            forward_batch(params, visual, labels, tokens), np.array([0, 3, 5, 7])))
        assert len(tape) == count
        T.backward(loss)
        assert len(tape) == 0


def default_size_step_ops(variant):
    """The op of each record of one default-size training step, in order."""
    params = init_model(ModelConfig(variant=variant, seed=0))
    visual, labels, tokens, rng = default_size_batch(3)
    with T.recording() as tape:
        loss = T.reduce_mean(cross_entropy_rows(
            forward_batch(params, visual, labels, tokens, training=True,
                          drop_rng=np.random.default_rng(4)),
            rng.integers(0, 11, size=128)))
        ops = [r.op for r in tape.records]
        T.backward(loss)
    return ops


@pytest.mark.parametrize("variant,budget", [("baseline", 80), ("vgqe", 120)])
def test_default_size_step_stays_within_budget(variant, budget):
    # default ModelConfig, B=128, T=4: one record per GRU direction, one
    # scene_attention op over all words, one fusion core per block_fuse and one
    # affine op per Linear layer keep a training step at 19 (baseline) and 30
    # (vgqe) records, under these budgets
    assert len(default_size_step_ops(variant)) <= budget


# the gradcheck entry that covers each op a training step records
ENTRY_FOR_OP = {
    "affine": "tensor_core.affine", "matmul": "tensor_core.matmul",
    "gru_sequence": "tensor_core.gru_sequence_forward_T3",
    "take_rows": "tensor_core.take_rows", "concat": "tensor_core.concat",
    "block_bilinear": "tensor_core.block_bilinear", "reshape": "tensor_core.concat",
    "max": "tensor_core.reductions", "mul": "tensor_core.elementwise",
    "relu": "tensor_core.relu", "logsumexp_rows": "tensor_core.logsumexp_rows",
    "rows_pick": "tensor_core.rows_pick", "sub": "tensor_core.sub",
    "mean": "tensor_core.reductions", "scene_attention": "tensor_core.scene_attention"}


def test_every_op_of_a_training_step_has_a_gradcheck_entry(monkeypatch):
    step_ops = set(default_size_step_ops("baseline")) | set(default_size_step_ops("vgqe"))
    # each entry's loss is recorded once, without finite differences
    entry_ops = {}
    def record(module, name, loss_fn, tensors, results):
        with T.recording() as tape:
            loss_fn()
            entry_ops[f"{module}.{name}"] = {r.op for r in tape.records}
    monkeypatch.setattr(gradcheck, "_check", record)
    gradcheck.run_all()
    assert len(entry_ops) == 29
    uncovered = {op for op in step_ops
                 if op not in entry_ops.get(ENTRY_FOR_OP.get(op), ())}
    assert not uncovered, f"ops without a gradcheck entry that records them: {uncovered}"
    assert step_ops == set(ENTRY_FOR_OP)


@pytest.mark.parametrize("variant", ["baseline", "vgqe"])
def test_forward_passes_without_backward_leave_no_records(variant):
    params = init_model(ModelConfig(variant=variant, seed=0))
    visual, labels, tokens, _ = default_size_batch(5)
    with T.recording() as tape:
        for _ in range(3):
            forward_batch(params, visual, labels, tokens)
        assert len(tape) > 0
    assert len(tape) == 0


def test_error_mid_forward_leaves_no_records():
    p = block_params_init(5, 4, 6, 6, 3, chunks=2, rank=2, seed=0)
    rng = np.random.default_rng(6)
    with pytest.raises(ShapeError, match="7 x rows are not a multiple of 2 y rows"):
        with T.recording() as tape:
            block_fuse(Tensor(rng.normal(size=(7, 5))), Tensor(rng.normal(size=(2, 4))), p)
    assert len(tape) == 0


def test_trace_helper_leaves_no_records():
    params = init_model(ModelConfig(variant="vgqe"))
    rng = np.random.default_rng(2)
    with T.recording() as tape:
        for _ in range(3):
            encode_question_vgqe(rng.normal(size=(8, 32)), rng.normal(size=(8, 16)),
                                 [0, 5, 3, 9], params.embedding, params.vgw, params.gru_fwd,
                                 params.gru_bwd)
    assert len(tape) == 0
