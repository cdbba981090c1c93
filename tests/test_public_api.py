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
        "_record", "_reduce_to", "_sigmoid_in_place", "add", "affine", "as_tensor", "backward",
        "_gru_backward", "_gru_forward", "block_bilinear", "concat",
        "get_default_dtype", "grad_check", "gru_sequence",
        "logsumexp_rows", "matmul", "mul", "recording", "reduce_max",
        "reduce_mean", "reduce_sum", "relu", "reshape", "rows_pick",
        "scale", "scene_attention", "sigmoid", "softmax", "sub", "take_rows", "tanh",
        "using_dtype", "zero_grads"},
    "data": {"ConfigError", "DataConfig", "DatasetSplit", "SyntheticDataset",
             "TypeBias", "Vocabularies", "_answer_probs", "_cache_key", "_cached_columns",
             "_columns_fit", "_divmod", "_dotted", "_finite", "_float_texts",
             "_generate_split", "_hasher", "_id_array", "_padded", "_parse_split",
             "_column", "_problem", "_quad_table", "_read", "_reads_back", "_refused_row",
             "_rounded", "_scene_shapes_for",
             "_shortest_digits", "_split_row", "_stream_states", "_veltkamp", "_within",
             "_write_cache", "bounded", "build_config", "check_fields", "config_section",
             "answer_distribution", "digest_file",
             "build_bias_spec", "build_vocabularies", "generate_dataset", "load_dataset",
             "load_split", "num_question_types", "question_type_name",
             "DatasetManifest", "Histograms", "_check_rows", "_crc32", "_items",
             "_vocabulary_lists",
             "existing_file", "load_manifest", "read_json_object", "read_record", "record_json",
             "_json_ready", "save_dataset",
             "save_split", "template_tokens", "type_answer_domain"},
    "evaluate": {"EvalReport", "PredictionRecord", "TypeReport", "comparison_csv",
                 "constant_majority_floor", "dataset_mismatch", "evaluate_split", "histograms_csv",
                 "predict_split", "report_from_json", "report_to_json",
                 "summarize_predictions"},
    "fusion": {"BlockFusionParams", "_rank_stacked_init", "block_fuse",
               "block_params_init", "near_equal_partition"},
    "encoder": {"GruParams", "embed", "embedding_table_init", "encode_questions_baseline",
                "gru_cell", "gru_params_init"},
    "grounding": {"VgwParams", "encode_question_vgqe",
                  "encode_questions_vgqe", "grounded_words", "trace_records",
                  "vgw_attention", "vgw_params_init"},
    "model": {"ArrayEntry", "CheckpointManifest", "FusionConfig", "ModelConfig", "ModelParams",
              "_build_model", "_dropout",
              "count_parameters", "dataset_fields", "encode_questions", "forward_batch",
              "init_model", "load_checkpoint", "save_checkpoint"},
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


def test_no_module_imports_another_modules_private_name():
    """A name with a leading underscore stays inside its module: a second
    module that needs it needs a public function instead."""
    package = Path(vqalab.__file__).parent
    private = [f"{path.name}: from {'.' * node.level}{node.module or ''} import {alias.name}"
               for path in sorted(package.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").split(".")[0] == "vqalab")
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_removed_knobs_stay_removed():
    from vqalab import encoder, tensor
    from vqalab.fusion import BlockFusionParams
    from vqalab.grounding import encode_questions_vgqe
    from vqalab.model import ArrayEntry, CheckpointManifest, ModelConfig, ModelParams
    from vqalab.tensor import Tensor
    # the frozen word table is the Tensor itself, with no wrapper around it
    assert not hasattr(encoder, "EmbeddingTable")
    # the five layers alone: every map has a bias, and the chunk layout, chunk
    # count and rank are read from the factor weights
    assert set(BlockFusionParams.__dataclass_fields__) == {
        "proj_x", "proj_y", "factors_x", "factors_y", "proj_out"}
    assert inspect.signature(tensor.affine).parameters["b"].default is inspect.Parameter.empty
    # one grounded-word module, read by both directions; no pre-pool switch
    assert not {"shared_vgw", "prepool_nonlinearity"} & set(ModelConfig.__dataclass_fields__)
    assert len(ModelConfig.__dataclass_fields__) == 14
    assert "vgw_backward" not in ModelParams.__dataclass_fields__
    assert not hasattr(ModelParams, "vgqe_params")
    assert not hasattr(ModelParams, "variant")   # it is `config.variant`
    # a checkpoint states its dtype once; each array's offset and trainable
    # flag follow from the names and shapes
    assert list(ArrayEntry.__dataclass_fields__) == ["name", "shape"]
    assert "dtype" in CheckpointManifest.__dataclass_fields__
    assert "return_trace" not in inspect.signature(encode_questions_vgqe).parameters
    assert not hasattr(Tensor, "detach")
    # recording is scoped to `with tensor.recording()`: no global tape or grad
    # switch, no global default dtype, one way to run backward
    assert not {"active_tape", "no_grad", "set_default_dtype"} & set(vars(tensor))
    assert not hasattr(Tensor, "backward")
    assert "_generation" not in Tensor.__slots__


def test_unused_surface_stays_deleted():
    """No caller used Tensor's operators or `EvalReport.type_weighted_mean`,
    and the settings below only ever took one value: they are constants now,
    or gone."""
    from vqalab import cli, data, gradcheck
    from vqalab.evaluate import EvalReport, evaluate_split, histograms_csv
    from vqalab.experiment import experiment_train_config, run_bias_shift
    from vqalab.fusion import BlockFusionParams
    from vqalab.gradcheck import CheckResult
    from vqalab.tensor import Tensor, grad_check
    from vqalab.train import AdamWState, adamw_init
    assert not {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                "__neg__", "__matmul__"} & set(vars(Tensor))
    assert not hasattr(BlockFusionParams, "out_dim")
    assert set(AdamWState.__dataclass_fields__) == {"m", "v", "lr", "weight_decay",
                                                    "step_count"}
    assert "lr" not in inspect.signature(adamw_init).parameters
    assert set(CheckResult.__dataclass_fields__) == {"module", "name", "max_rel_error"}
    assert "batch_size" not in inspect.signature(evaluate_split).parameters
    assert "top" not in inspect.signature(histograms_csv).parameters
    # the experiment's rate, its progress callback and the finite-difference step
    assert list(inspect.signature(run_bias_shift).parameters) == ["ds", "seeds", "epochs"]
    assert list(inspect.signature(experiment_train_config).parameters) == ["seed", "epochs"]
    assert list(inspect.signature(grad_check).parameters) == ["f", "x"]
    assert not hasattr(gradcheck, "EPS")
    assert not hasattr(EvalReport, "type_weighted_mean")
    # a digest is a sha256 hex string taken in the pass that writes or reads
    # the file: no hasher goes into a writer, a file digest or the cache key
    assert list(inspect.signature(data.save_split).parameters) == ["split", "path"]
    assert list(inspect.signature(data.digest_file).parameters) == ["path"]
    assert list(inspect.signature(data._cache_key).parameters) == ["config", "vocab",
                                                                   "split_sha256"]
    assert not hasattr(cli, "sha256_of") and not hasattr(cli, "hashlib")
