"""The package surface: every re-export resolves, and the modules that gave up
their single-example API (and, for `data`, per-example and per-object
classes) define exactly the batch-first functions and classes listed here. A
deleted name that comes back, or a half-done deletion, fails the second test;
a deliberate addition updates its module's list."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import vqalab

SURFACE = {
    "tensor": {
        "ShapeError", "Tape", "TapeRecord", "Tensor", "_broadcast_mode", "_check_axis",
        "_record", "_reduce_to", "add", "as_tensor", "attend", "backward",
        "_gru_backward", "_gru_forward", "_gru_shapes", "block_bilinear", "concat", "dot",
        "get_default_dtype", "grad_check", "gru_sequence", "gru_step",
        "logsumexp_rows", "matmul", "mul", "recording", "reduce_max",
        "reduce_mean", "reduce_sum", "relu", "repeat_rows", "reshape", "rows_pick",
        "scale", "scene_attention", "sigmoid", "softmax", "sub", "tanh",
        "using_dtype", "zero_grads"},
    "data": {"DataConfig", "DatasetSplit", "GenerationError", "SyntheticDataset",
             "TypeBias", "Vocabularies", "_answer_probs", "_cache_key", "_cached_columns",
             "_columns_fit", "_divmod", "_float_texts",
             "_generate_split", "_hasher", "_id_array", "_padded", "_parse_split",
             "_quad_table", "_reads_back", "_refused_row", "_rounded", "_scene_shapes_for",
             "_shortest_digits", "_split_row", "_stream_states", "_veltkamp", "_write_cache",
             "answer_distribution", "digest_file",
             "build_bias_spec", "build_vocabularies", "generate_dataset", "load_dataset",
             "load_split", "manifest_field", "num_question_types", "question_type_name",
             "read_json_object", "save_dataset",
             "save_split", "template_tokens", "type_answer_domain"},
    "fusion": {"BlockFusionParams", "_rank_stacked_init", "_ranges", "block_fuse",
               "block_params_init", "near_equal_partition"},
    "encoder": {"EmbeddingTable", "GruParams", "embed", "embedding_table_init",
                "encode_questions_baseline", "gru_cell", "gru_params_init"},
    "grounding": {"VgwParams", "encode_question_vgqe",
                  "encode_questions_vgqe", "grounded_words", "trace_records",
                  "vgw_attention", "vgw_params_init"},
    "model": {"FusionConfig", "ModelConfig", "ModelParams", "_build_model",
              "_config_from_manifest", "_dropout",
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
    from vqalab import tensor
    from vqalab.encoder import EmbeddingTable
    from vqalab.fusion import BlockFusionParams
    from vqalab.grounding import encode_questions_vgqe
    from vqalab.model import ModelConfig, ModelParams
    from vqalab.tensor import Tensor
    assert set(EmbeddingTable.__dataclass_fields__) == {"vectors"}
    assert "use_bias" in BlockFusionParams.__dataclass_fields__
    assert not any("nonlinearity" in f for f in BlockFusionParams.__dataclass_fields__)
    # one grounded-word module, read by both directions; no pre-pool switch
    assert not {"shared_vgw", "prepool_nonlinearity"} & set(ModelConfig.__dataclass_fields__)
    assert len(ModelConfig.__dataclass_fields__) == 14
    assert "vgw_backward" not in ModelParams.__dataclass_fields__
    assert not hasattr(ModelParams, "vgqe_params")
    assert "return_trace" not in inspect.signature(encode_questions_vgqe).parameters
    assert not hasattr(Tensor, "detach")
    # recording is scoped to `with tensor.recording()`: no global tape or grad
    # switch, no global default dtype, one way to run backward
    assert not {"active_tape", "no_grad", "set_default_dtype"} & set(vars(tensor))
    assert not hasattr(Tensor, "backward")
    assert "_generation" not in Tensor.__slots__
