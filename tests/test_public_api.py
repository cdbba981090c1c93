"""The package surface: every re-export resolves, and the modules that gave up
their single-example API define exactly the batch-first functions and classes
listed here. A deleted name that comes back, or a half-done deletion, fails
the second test; a deliberate addition updates its module's list."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import vqalab

SURFACE = {
    "tensor": {
        "ShapeError", "Tape", "TapeRecord", "Tensor", "_broadcast_mode", "_check_axis",
        "_record", "_reduce_to", "active_tape", "add", "as_tensor", "attend", "backward",
        "concat", "dot", "exp", "get_default_dtype", "grad_check", "log",
        "logsumexp_rows", "matmul", "mul", "narrow", "no_grad", "reduce_max",
        "reduce_mean", "reduce_sum", "relu", "repeat_rows", "reshape", "rows_pick",
        "scale", "set_default_dtype", "sigmoid", "softmax", "sub", "tanh",
        "using_dtype", "zero_grads"},
    "fusion": {"BlockFusionParams", "_ranges", "block_fuse", "block_params_init",
               "near_equal_partition"},
    "encoder": {"EmbeddingTable", "GruParams", "embed", "embedding_table_init",
                "encode_questions_baseline", "gru_cell", "gru_params_init", "run_gru"},
    "grounding": {"VgqeParams", "VgwParams", "encode_question_vgqe",
                  "encode_questions_vgqe", "grounded_words", "trace_records",
                  "vgw_attention", "vgw_params_init"},
    "model": {"FusionConfig", "ModelConfig", "ModelParams", "_dropout",
              "count_parameters", "encode_questions", "forward_batch", "init_model",
              "load_checkpoint", "save_checkpoint"},
    "train": {"AdamWState", "EpochStats", "ScheduleConfig", "TrainConfig",
              "TrainingDiverged", "adamw_init", "adamw_step", "clip_grad_norm",
              "constant_schedule", "cross_entropy_rows", "length_bucketed_batches",
              "lr_at_epoch", "stack_batch", "train", "write_training_log"},
}


def reexports():
    tree = ast.parse(Path(vqalab.__file__).read_text())
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def test_every_reexport_imports():
    names = reexports()
    assert names
    for module_name, name in names:
        module = importlib.import_module(f"vqalab.{module_name}")
        assert getattr(vqalab, name) is getattr(module, name), f"{module_name}.{name}"


@pytest.mark.parametrize("module_name", sorted(SURFACE))
def test_module_defines_only_its_listed_surface(module_name):
    module = importlib.import_module(f"vqalab.{module_name}")
    defined = {name for name, obj in vars(module).items()
               if (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == module.__name__}
    assert defined == SURFACE[module_name]


def test_removed_knobs_stay_removed():
    from vqalab.encoder import EmbeddingTable
    from vqalab.fusion import BlockFusionParams
    assert set(EmbeddingTable.__dataclass_fields__) == {"vectors"}
    assert "use_bias" in BlockFusionParams.__dataclass_fields__
    assert not any("nonlinearity" in f for f in BlockFusionParams.__dataclass_fields__)
