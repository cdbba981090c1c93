import dataclasses
import hashlib
import json
import random
import shutil
from functools import reduce
from operator import getitem
from pathlib import Path

import numpy as np
import pytest

from vqalab import cli
from vqalab.cli import run, sha256_of
from vqalab.data import DataConfig, load_dataset
from vqalab.evaluate import EvalReport, evaluate_split
from vqalab.grounding import encode_question_vgqe
from vqalab.model import FusionConfig, ModelConfig, load_checkpoint
from vqalab.tensor import using_dtype
from vqalab.train import ScheduleConfig, TrainConfig

TINY_CONFIG = {
    "data": {"shapes": 3, "colors": 3, "objects_per_scene": 3, "d_v": 8,
             "d_w": 6, "n_train": 120, "n_test": 60, "count_max": 2, "seed": 0},
    "model": {"hidden": 6, "refined_dim": 4, "grounded_dim": 8, "pooled_dim": 8,
              "dropout": 0.0,
              "vgw_fusion": {"proj_dim": 8, "out_proj_dim": 8, "chunks": 2, "rank": 2},
              "obj_fusion": {"proj_dim": 8, "out_proj_dim": 8, "chunks": 2, "rank": 2}},
    "train": {"epochs": 2, "batch_size": 32,
              "schedule": {"base_lr": 1e-3, "warm_factor": 0.0,
                           "warm_end_epoch": 1, "decay_factor": 1.0,
                           "decay_step": 1}},
}


# sha256 of checkpoint.json.bin after the two-epoch TINY_CONFIG run with
# --seed 1, as written once each GRU step and the grouped fusion core had
# hand-written backward passes (trained values within 6e-17 in float64 and
# 6e-8 in float32 of the gate-by-gate, repeated-question backward). The vgqe
# pins were re-taken when all words of a batch came to be grounded in one
# pass, which sums the grounding weights' gradients over T*B rows at once
# (trained values again within 6e-17 and 6e-8 of the per-word grounding);
# the baseline pins held. The vgqe pins were re-taken once more when the
# grounding attention became one `scene_attention` op that scores each scene
# against its T words by batched matmuls instead of tiling it T times
# (trained values within 1.1e-16 in float64, 130 of 1728 values moved, and
# 3.0e-8 in float32, 124 of 1728 moved); the baseline pins and the report
# digests held. All four were re-taken when the head's object rows became
# object-major (row o*B + b): the forward logits are bit-identical, but the
# proj_x, factor_x and proj_out weight and bias gradients sum over the object
# rows in another order, the factor bias gradients as a gemv (trained values
# within 5.6e-17 in float64, 61 of 1222 values moved for baseline and 95 of
# 1728 for vgqe, and 6.0e-8 in float32, 88 of 1222 and 113 of 1728 moved);
# the report digests held. The two baseline pins were re-taken when the
# baseline encoder came to run its GRUs over a batch's distinct token rows
# only: the logits are bit-identical, but the GRU weight gradients now add the
# repeated rows' gradients first (trained values within 5.6e-17 in float64,
# 78 of 1222 values moved, and 3.0e-8 in float32, 75 of 1222 moved); the vgqe
# pins and the report digests held. An update that moves
# one value by one ulp changes them. They hold for one numpy/BLAS build;
# another BLAS may round matmuls differently.
GOLDEN_BIN_SHA256 = {
    ("baseline", "float64"): "36d2a409cc04396ada86596cac6e1ca402482b2ec8016dc2afd7128c5153aa31",
    ("vgqe", "float64"): "a64f32fc7f9e94a4ce13c4d05f99b15cb10afc8e730a65c88eb62dbe8ff27016",
    ("baseline", "float32"): "360f11c90cbcb64139e070cf07a991d58309cbd86b996b7214a5b4c83db4180a",
    ("vgqe", "float32"): "322f53ec4ca79ec965edb4a133aa2131637de60a8da4a3ea47c8506598f9ec65",
}


# sha256 of the eval report on the test split for each float64 checkpoint
# above, as `vqalab eval --checkpoint <variant>/checkpoint.json --data data`
# writes it from the workspace directory (the report records both strings).
# Taken from the per-record summary and `json.dumps` writer, before counting
# and the prediction template replaced them; a writer or summary change that
# moves one byte fails here. They follow the checkpoint pins: a new checkpoint
# digest needs new report digests.
GOLDEN_REPORT_SHA256 = {
    "baseline": "cdb0b237b401efe3a32066370ff3833d09f6f5d8b80ffe974733ecdcd1c21113",
    "vgqe": "ae65cd5241a8bd7836f44756a4e4eaab02f59b16804788c056408f3f7dd98040",
}


# sha256 of traces.json as `vqalab report` writes it from the TINY workspace's
# test-split reports with the default --traces 8 and --trace-seed 0. Taken
# while each trace still came from a full grounded encoding of its question;
# traces now come from the grounding attention alone, with the same bytes.
# Re-taken with the object-major checkpoint pins above: the trained vgqe
# values moved, and with them 16 of the 99 trace weights, by at most 1.1e-16.
GOLDEN_TRACES_SHA256 = "10fbbf32fbf7946517b835deb443369d4fb8e714ac171f62a68ab8fe6e927cc1"


def sha(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def work_that_must_not_run(*args, **kwargs):
    raise AssertionError("a refused output path must be refused before any work")


def renamed(edit, problem, first_problem):
    """A refusal case whose message changed, under the id pytest first gave it."""
    return pytest.param(edit, problem, id=f"<lambda>-{first_problem}")


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("runs")
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(TINY_CONFIG))
    data_dir = root / "data"
    assert run(["gen-data", "--config", str(cfg_path), "--out", str(data_dir)]) == 0
    for variant in ("baseline", "vgqe"):
        assert run(["train", "--data", str(data_dir), "--variant", variant,
                    "--seed", "1", "--out", str(root / variant),
                    "--config", str(cfg_path)]) == 0
        assert run(["eval", "--checkpoint", str(root / variant / "checkpoint.json"),
                    "--data", str(data_dir), "--split", "test",
                    "--report", str(root / f"{variant}_report.json")]) == 0
    return root


class TestGenData:
    def test_artifacts_and_manifest(self, workspace):
        data_dir = workspace / "data"
        for name in ("train.jsonl", "test.jsonl", "test_iid.jsonl",
                     "manifest.json", "run_manifest.json"):
            assert (data_dir / name).exists()
        manifest = json.loads((data_dir / "run_manifest.json").read_text())
        assert manifest["command"] == "gen-data"
        assert manifest["config"]["data"]["n_train"] == 120
        for name, digest in manifest["artifacts"].items():
            assert sha(data_dir / name) == digest

    def test_flag_overrides_config(self, workspace, tmp_path):
        out = tmp_path / "d2"
        cfg_path = workspace / "config.json"
        assert run(["gen-data", "--config", str(cfg_path), "--out", str(out),
                    "--n-train", "30"]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["config"]["data"]["n_train"] == 30
        assert len((out / "train.jsonl").read_text().splitlines()) == 30

    def test_malformed_config_names_it(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(TINY_CONFIG)[:40])
        assert run(["gen-data", "--config", str(cfg_path), "--out", str(tmp_path / "d")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {cfg_path}: malformed JSON (")
        assert err.count("\n") == 1

    def test_refused_data_config_names_the_field(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"data": {**TINY_CONFIG["data"], "rho_train": 1.5}}))
        out = tmp_path / "d"
        assert run(["gen-data", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            "error: data.rho_train must be a finite number in [0, 1], got 1.5\n"
        assert not out.exists()

    @pytest.mark.parametrize("field,value,message", [   # ids as first collected
        pytest.param("n_train", "30", "data.n_train must be an integer in [1, inf), got '30'",
                     id="n_train-30-n_train must be an integer, got '30'"),
        pytest.param("d_v", 2.5, "data.d_v must be an integer in [1, inf), got 2.5",
                     id="d_v-2.5-d_v must be an integer, got 2.5")])
    def test_mistyped_data_config_names_the_field(self, tmp_path, capsys, field, value,
                                                  message):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"data": {field: value}}))
        out = tmp_path / "d"
        assert run(["gen-data", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_file_value_under_a_flag_is_still_read(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"data": {"n_train": "x"}}))
        out = tmp_path / "d"
        assert run(["gen-data", "--config", str(cfg_path), "--out", str(out),
                    "--n-train", "5"]) == 2
        assert capsys.readouterr().err == \
            "error: data.n_train must be an integer in [1, inf), got 'x'\n"
        assert not out.exists()

    @pytest.mark.parametrize("value,flags", [(1.5, []), ("3", []), (True, []),
                                             (0, ["--seed", "-1"])])
    def test_refused_seed_names_the_field(self, tmp_path, capsys, value, flags):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"data": {**TINY_CONFIG["data"], "seed": value}}))
        out = tmp_path / "d"
        assert run(["gen-data", "--config", str(cfg_path), "--out", str(out), *flags]) == 2
        shown = -1 if flags else value
        assert capsys.readouterr().err == ("error: data.seed must be an integer in [0, inf), "
                                           f"got {shown!r}\n")
        assert not out.exists()

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under a file"])
    def test_out_that_cannot_be_a_directory_is_refused_first(self, tmp_path, capsys,
                                                             monkeypatch, under):
        monkeypatch.setattr(cli, "generate_dataset", work_that_must_not_run)
        blocker = tmp_path / "blocker"
        blocker.write_text("kept")
        out = blocker / "data" if under else blocker
        assert run(["gen-data", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: output directory " + (
            f"{out} is under {blocker}, which is not a directory\n" if under
            else f"{out} exists and is not a directory\n")
        assert blocker.read_text() == "kept"

    def test_large_seed_round_trips(self, tmp_path):
        out = tmp_path / "d"
        assert run(["gen-data", "--out", str(out), "--seed", str(2**70),
                    "--n-train", "5", "--n-test", "3"]) == 0
        assert load_dataset(out).config.seed == 2**70


def test_sha256_of_streams_past_one_chunk(tmp_path):
    data = np.random.default_rng(0).bytes((1 << 20) * 2 + 12345)
    path = tmp_path / "blob"
    path.write_bytes(data)
    assert sha256_of(path) == hashlib.sha256(data).hexdigest()


class TestTrain:
    def test_run_directory_contents(self, workspace):
        run_dir = workspace / "baseline"
        for name in ("checkpoint.json", "checkpoint.json.bin",
                     "training_log.csv", "run_manifest.json"):
            assert (run_dir / name).exists()
        manifest = json.loads((run_dir / "run_manifest.json").read_text())
        assert manifest["config"]["train"]["epochs"] == 2
        assert manifest["trainable_parameters"] > 0
        assert sha(run_dir / "checkpoint.json") == manifest["artifacts"]["checkpoint.json"]

    def test_determinism_byte_identical(self, workspace, tmp_path):
        cfg_path = workspace / "config.json"
        digests = []
        run_dir = tmp_path / "repeat"
        for _ in range(2):
            assert run(["train", "--data", str(workspace / "data"),
                        "--variant", "baseline", "--seed", "5",
                        "--out", str(run_dir), "--config", str(cfg_path)]) == 0
            digests.append((sha(run_dir / "checkpoint.json"),
                            sha(run_dir / "checkpoint.json.bin")))
        assert digests[0] == digests[1]

    def test_missing_data_dir_fails(self, tmp_path):
        assert run(["train", "--data", str(tmp_path / "nope"), "--variant",
                    "baseline", "--out", str(tmp_path / "out")]) == 2

    def test_diverged_run_fails_in_one_line_and_writes_nothing(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert run(["gen-data", "--out", str(data), "--n-train", "40", "--n-test", "10"]) == 0
        capsys.readouterr()
        out = tmp_path / "out"
        assert run(["train", "--data", str(data), "--variant", "baseline", "--out", str(out),
                    "--base-lr", "1e300"]) == 2
        assert capsys.readouterr().err == "error: non-finite loss nan at epoch 1, batch 1\n"
        assert not out.exists()

    def test_run_directory_that_is_a_file_is_refused(self, workspace, tmp_path, capsys):
        out = tmp_path / "out"
        out.write_text("")
        assert run(["train", "--data", str(workspace / "data"), "--variant", "baseline",
                    "--out", str(out), "--config", str(workspace / "config.json")]) == 2
        assert capsys.readouterr().err == \
            f"error: run directory {out} exists and is not a directory\n"

    def test_nested_file_value_under_a_flag_is_still_read(self, workspace, tmp_path, capsys):
        data = workspace / "data"
        before = sorted((p.name, p.stat().st_mtime_ns) for p in data.iterdir())
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"train": {"schedule": {"base_lr": "x"}}}))
        out = tmp_path / "out"
        assert run(["train", "--data", str(data), "--variant", "baseline", "--out", str(out),
                    "--config", str(cfg_path), "--base-lr", "0.01"]) == 2
        assert capsys.readouterr().err == \
            "error: train.schedule.base_lr must be a finite number in (0, inf), got 'x'\n"
        assert not out.exists()
        assert sorted((p.name, p.stat().st_mtime_ns) for p in data.iterdir()) == before

    def test_cut_train_split_is_refused(self, workspace, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        cut = data / "train.jsonl"
        cut.write_text("".join(cut.read_text().splitlines(keepends=True)[:12]))
        out = tmp_path / "out"
        assert run(["train", "--data", str(data), "--variant", "baseline", "--out", str(out),
                    "--config", str(workspace / "config.json")]) == 2
        assert capsys.readouterr().err == \
            f"error: split file {cut} holds 12 records, but the manifest's n_train is 120\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [("--epochs", "0"), ("--epochs", "-1"),
                                            ("--batch-size", "0"), ("--batch-size", "-5")])
    def test_nonpositive_count_refused_before_writing(self, workspace, tmp_path, capsys,
                                                      flag, value):
        data = workspace / "data"
        before = sorted((p.name, p.stat().st_mtime_ns) for p in data.iterdir())
        out = tmp_path / "out"
        assert run(["train", "--data", str(data), "--variant", "baseline",
                    "--out", str(out), "--config", str(workspace / "config.json"),
                    flag, value]) == 2
        field = flag[2:].replace("-", "_")
        assert capsys.readouterr().err == \
            f"error: train.{field} must be an integer in [1, inf), got {value}\n"
        assert not out.exists()
        assert sorted((p.name, p.stat().st_mtime_ns) for p in data.iterdir()) == before

    @pytest.mark.parametrize("variant,precision", sorted(GOLDEN_BIN_SHA256))
    def test_checkpoint_bytes_match_golden_digests(self, workspace, tmp_path, variant,
                                                   precision):
        run_dir = workspace / variant
        if precision != "float64":
            run_dir = tmp_path / precision
            assert run(["train", "--data", str(workspace / "data"), "--variant", variant,
                        "--seed", "1", "--out", str(run_dir),
                        "--config", str(workspace / "config.json"),
                        "--precision", precision]) == 0
        assert sha(run_dir / "checkpoint.json.bin") == GOLDEN_BIN_SHA256[variant, precision]

    def test_float32_training_runs(self, workspace, tmp_path):
        out = tmp_path / "f32"
        assert run(["train", "--data", str(workspace / "data"),
                    "--variant", "vgqe", "--seed", "2", "--out", str(out),
                    "--config", str(workspace / "config.json"),
                    "--precision", "float32"]) == 0
        manifest = json.loads((out / "checkpoint.json").read_text())
        dtypes = {entry["dtype"] for entry in manifest["arrays"]}
        assert dtypes == {"float32"}


# a value of the wrong JSON type and one outside the field's bound, for every
# field of the five config classes, by dotted path; a nested section has no
# bound of its own. The model fields that the dataset or --variant decide are
# refused when a config file gives a different value.
REFUSED_VALUES = {
    "data": {"shapes": ("3", 1), "colors": (3.0, 9), "objects_per_scene": (True, 0),
             "d_v": ("8", 0), "d_w": (None, -1), "noise_v": ("0", -0.1),
             "noise_l": ([0.1], float("inf")), "n_train": (1.5, 0), "n_test": ("60", 0),
             "rho_train": (True, 1.5), "rho_test": ("x", float("nan")),
             "count_max": (2.0, 0), "seed": (False, -1)},
    "model": {"variant": (3, "vgqe"), "d_v": ("8", 0), "d_w": (6.0, 7),
              "hidden": ("32", 0), "refined_dim": (4.5, 0), "grounded_dim": ([8], -8),
              "pooled_dim": (None, 0), "answer_count": ("8", 1), "vocab_size": (True, 0),
              "dropout": ("0.1", 1.0), "seed": (1.5, -1), "vgw_fusion": (3, None),
              "obj_fusion": ([], None), "classifier_hidden": ("64", -1)},
    "model.vgw_fusion": {"proj_dim": ("8", 0), "out_proj_dim": (8.0, -2),
                         "chunks": (None, 0), "rank": (2.5, 0)},
    "model.obj_fusion": {"proj_dim": (True, -1), "out_proj_dim": ([8], 0),
                         "chunks": ("2", 99), "rank": ({}, 0)},
    "train": {"epochs": ("2", 0), "batch_size": (32.0, 0), "weight_decay": ("0", -1),
              "clip_norm": ("x", 0), "seed": ("0", -3), "schedule": ("fast", None)},
    "train.schedule": {"base_lr": ("0.1", 0), "warm_factor": (None, -0.5),
                       "warm_end_epoch": ("a", 0), "decay_factor": (True, -1.0),
                       "decay_step": (1.5, 0)},
}
CONFIG_CLASSES = {"data": DataConfig, "model": ModelConfig, "model.vgw_fusion": FusionConfig,
                  "model.obj_fusion": FusionConfig, "train": TrainConfig,
                  "train.schedule": ScheduleConfig}


def refused_cases():
    for section, values in REFUSED_VALUES.items():
        for name, (mistyped, out_of_range) in values.items():
            for label, value in (("type", mistyped), ("bound", out_of_range)):
                if value is not None or label == "type":
                    yield pytest.param(f"{section}.{name}", value, id=f"{section}.{name}-{label}")


class TestConfigRefusals:
    """Every config value is checked against its field's annotation and bound
    before anything is written: a refusal exits 2 with one error line that
    names the dotted field, and leaves no output directory."""

    def refusal(self, workspace, tmp_path, capsys, dotted=None, value=None, flags=()):
        config = json.loads(json.dumps(TINY_CONFIG))
        if dotted is not None:
            *sections, name = dotted.split(".")
            section = config
            for part in sections:
                section = section[part]
            section[name] = value
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "out"
        if dotted is not None and dotted.startswith("data."):
            argv = ["gen-data", "--config", str(cfg_path), "--out", str(out)]
        else:
            argv = ["train", "--data", str(workspace / "data"), "--variant", "baseline",
                    "--out", str(out), "--config", str(cfg_path)]
        code = run([*argv, *flags])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()
        return err[len("error: "):-1]

    def test_every_field_is_in_the_table(self):
        for section, cls in CONFIG_CLASSES.items():
            assert list(REFUSED_VALUES[section]) == [f.name for f in dataclasses.fields(cls)]

    @pytest.mark.parametrize("dotted,value", list(refused_cases()))
    def test_refused_value_names_the_field(self, workspace, tmp_path, capsys, dotted, value):
        assert self.refusal(workspace, tmp_path, capsys, dotted, value).startswith(f"{dotted} ")

    @pytest.mark.parametrize("dotted,value,flags,message", [
        ("model.hidden", 0, [], "model.hidden must be an integer in [1, inf), got 0"),
        ("model.hidden", "32", [], "model.hidden must be an integer in [1, inf), got '32'"),
        ("model.vgw_fusion.rank", 2.5, [],
         "model.vgw_fusion.rank must be an integer in [1, inf), got 2.5"),
        ("model.dropout", "0.1", [], "model.dropout must be a finite number in [0, 1), got '0.1'"),
        ("train.clip_norm", "x", [],
         "train.clip_norm must be a finite number in (0, inf), got 'x'"),
        ("train.clip_norm", 0, [], "train.clip_norm must be a finite number in (0, inf), got 0"),
        ("model.obj_fusion.bogus", 1, [], "model.obj_fusion.bogus is not a FusionConfig field"),
        ("train.schedule.bogus", 1, [], "train.schedule.bogus is not a ScheduleConfig field"),
        ("train.schedule.base_lr", "0.1", [],
         "train.schedule.base_lr must be a finite number in (0, inf), got '0.1'"),
        ("train.schedule.warm_end_epoch", "a", [],
         "train.schedule.warm_end_epoch must be an integer in [1, inf), got 'a'"),
        ("train.weight_decay", -1, [],
         "train.weight_decay must be a finite number in [0, inf), got -1"),
        ("model.obj_fusion.chunks", 99, [],
         "model.obj_fusion.chunks must be from 1 to the projection dims (8 and 8), got 99"),
        (None, None, ["--base-lr", "0"],
         "train.schedule.base_lr must be a finite number in (0, inf), got 0.0"),
        (None, None, ["--base-lr", "-0.5"],
         "train.schedule.base_lr must be a finite number in (0, inf), got -0.5"),
        (None, None, ["--base-lr", "nan"],
         "train.schedule.base_lr must be a finite number in (0, inf), got nan"),
        ("model.variant", "vgqe", [],
         "model.variant is 'vgqe' in the config file, but --variant gives 'baseline'"),
        ("model.d_v", 8.0, [], "model.d_v is 8.0 in the config file, but the dataset gives 8"),
        ("model.answer_count", 9, [],
         "model.answer_count is 9 in the config file, but the dataset gives 8"),
        ("model", [], [], "model is not a JSON object"),
        ("train.seed", 1, ["--seed", "-1"], "train.seed must be an integer in [0, inf), got -1")])
    def test_refusal_message(self, workspace, tmp_path, capsys, dotted, value, flags,
                             message):
        assert self.refusal(workspace, tmp_path, capsys, dotted, value, flags) == message

    @pytest.mark.parametrize("command", ["gen-data", "train"])
    def test_unknown_section_is_refused(self, workspace, tmp_path, capsys, command):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"modle": {"hidden": 0}, "train": {"epochs": 1}}))
        out = tmp_path / "out"
        argv = ["gen-data"] if command == "gen-data" else \
            ["train", "--data", str(workspace / "data"), "--variant", "baseline"]
        assert run([*argv, "--config", str(cfg_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: config file {cfg_path}: unknown section 'modle'; the sections are "
            "'data', 'model' and 'train'\n")
        assert not out.exists()

    def test_dataset_manifest_config_must_name_every_field(self, workspace, tmp_path,
                                                           capsys):
        data_dir = tmp_path / "data"
        shutil.copytree(workspace / "data", data_dir)
        manifest = data_dir / "manifest.json"
        payload = json.loads(manifest.read_text())
        del payload["config"]["count_max"]
        manifest.write_text(json.dumps(payload))
        out = tmp_path / "out"
        assert run(["train", "--data", str(data_dir), "--variant", "baseline",
                    "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"error: dataset manifest {manifest}: config.count_max is missing\n"
        assert not out.exists()

    def test_fusion_config_builds_positionally(self):
        assert FusionConfig(6, 6, 2, 2) == FusionConfig(proj_dim=6, out_proj_dim=6, chunks=2,
                                                        rank=2)

    def run_manifest(self, workspace, tmp_path, config, flags=()):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert run(["train", "--data", str(workspace / "data"), "--variant", "baseline",
                    "--out", str(out), "--config", str(cfg_path), *flags]) == 0
        return json.loads((out / "run_manifest.json").read_text())

    @pytest.mark.parametrize("flags,seeds", [([], (5, 7, 5)), (["--seed", "3"], (3, 3, 3))])
    def test_seed_flag_overrides_the_sections_only_when_given(self, workspace, tmp_path,
                                                              flags, seeds):
        config = json.loads(json.dumps(TINY_CONFIG))
        config["train"]["seed"], config["model"]["seed"] = 5, 7
        manifest = self.run_manifest(workspace, tmp_path, config, flags)
        assert (manifest["config"]["train"]["seed"], manifest["config"]["model"]["seed"],
                manifest["seed"]) == seeds

    def test_flags_override_nested_file_values(self, workspace, tmp_path):
        config = json.loads(json.dumps(TINY_CONFIG))
        config["model"].update(d_v=8, variant="baseline")   # repeats what the dataset decides
        manifest = self.run_manifest(workspace, tmp_path, config, ["--base-lr", "0.002"])
        assert manifest["config"]["train"]["schedule"] == {
            **TINY_CONFIG["train"]["schedule"], "base_lr": 0.002}


class TestEval:
    def test_report_content(self, workspace):
        report = json.loads((workspace / "vgqe_report.json").read_text())
        assert report["split"] == "test"
        assert report["variant"] == "vgqe"
        assert 0.0 <= report["overall"] <= 1.0
        assert report["count"] == 60
        assert report["precision"] == "float64"
        assert report["predictions"]
        total = sum(tr["count"] for tr in report["per_type"].values())
        assert total == report["count"]

    def test_float32_checkpoint_evaluates_in_float32(self, workspace, tmp_path):
        run_dir, report_path = tmp_path / "f32", tmp_path / "f32_report.json"
        assert run(["train", "--data", str(workspace / "data"), "--variant", "vgqe",
                    "--seed", "1", "--out", str(run_dir),
                    "--config", str(workspace / "config.json"),
                    "--precision", "float32"]) == 0
        assert run(["eval", "--checkpoint", str(run_dir / "checkpoint.json"),
                    "--data", str(workspace / "data"), "--split", "test",
                    "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        params = load_checkpoint(run_dir / "checkpoint.json")
        assert params.flat.dtype == np.float32
        ds = load_dataset(workspace / "data", splits=("test",))
        with using_dtype(np.float32):
            in_process = evaluate_split(params, ds.test, ds)
        assert report["precision"] == in_process.precision == "float32"
        assert report["overall"] == in_process.overall

    def test_cut_test_split_is_refused(self, workspace, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(workspace / "data", data)
        cut = data / "test.jsonl"
        cut.write_text("".join(cut.read_text().splitlines(keepends=True)[:12]))
        report = tmp_path / "report.json"
        assert run(["eval", "--checkpoint", str(workspace / "baseline" / "checkpoint.json"),
                    "--data", str(data), "--split", "test", "--report", str(report)]) == 2
        assert capsys.readouterr().err == \
            f"error: split file {cut} holds 12 records, but the manifest's n_test is 60\n"
        assert not report.exists()

    def test_reads_only_the_evaluated_split(self, workspace, tmp_path):
        data_dir = tmp_path / "data"
        shutil.copytree(workspace / "data", data_dir)
        (data_dir / "train.jsonl").unlink()
        (data_dir / "test.jsonl").write_text("not json\n")
        target = tmp_path / "iid.json"
        assert run(["eval", "--checkpoint", str(workspace / "baseline" / "checkpoint.json"),
                    "--data", str(data_dir), "--split", "test_iid",
                    "--report", str(target)]) == 0
        assert json.loads(target.read_text())["count"] == 60

    @pytest.mark.parametrize("under", [False, True], ids=["directory", "under a file"])
    def test_report_path_that_cannot_be_written_is_refused_first(self, workspace, tmp_path,
                                                                 capsys, monkeypatch, under):
        monkeypatch.setattr(cli, "load_dataset", work_that_must_not_run)
        blocker = tmp_path / "blocker"
        if under:
            blocker.write_text("kept")
        else:
            blocker.mkdir()
        target = blocker / "r.json" if under else blocker
        assert run(["eval", "--checkpoint", str(workspace / "vgqe" / "checkpoint.json"),
                    "--data", str(workspace / "data"), "--report", str(target)]) == 2
        assert capsys.readouterr().err == "error: report " + (
            f"{target} is under {blocker}, which is not a directory\n" if under
            else f"{target} exists and is a directory\n")
        assert (blocker.read_text() == "kept") if under else not any(blocker.iterdir())

    def test_missing_checkpoint_names_path(self, workspace, tmp_path, capsys):
        code = run(["eval", "--checkpoint", str(tmp_path / "absent.json"),
                    "--data", str(workspace / "data"), "--split", "test",
                    "--report", str(tmp_path / "r.json")])
        assert code == 2
        assert "absent.json" in capsys.readouterr().err

    def eval_with_record_edit(self, workspace, tmp_path, edit):
        """Run eval on a copy of the data whose fourth test record went through edit."""
        data_dir = tmp_path / "data"
        shutil.copytree(workspace / "data", data_dir)
        split = data_dir / "test.jsonl"
        lines = split.read_text().splitlines()
        record = json.loads(lines[3])
        edit(record)
        lines[3] = json.dumps(record)
        split.write_text("\n".join(lines) + "\n")
        return run(["eval", "--checkpoint", str(workspace / "vgqe" / "checkpoint.json"),
                    "--data", str(data_dir), "--split", "test",
                    "--report", str(tmp_path / "r.json")]), split

    def test_out_of_range_token_id_names_it(self, workspace, tmp_path, capsys):
        def bad_token(record):
            record["tokens"][0] = 99

        code, split = self.eval_with_record_edit(workspace, tmp_path, bad_token)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "token id 99" in err
        assert f"{split}:4: token id 99 out of range for vocabulary of size" in err

    def test_out_of_range_answer_id_names_it(self, workspace, tmp_path, capsys):
        def bad_answer(record):
            record["answer"] = 42

        code, split = self.eval_with_record_edit(workspace, tmp_path, bad_answer)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{split}:4: answer id 42 out of range for answer vocabulary of size" in err

    def test_malformed_object_names_line(self, workspace, tmp_path, capsys):
        def scalar_features(record):
            record["objects"][1]["v"] = 5

        code, split = self.eval_with_record_edit(workspace, tmp_path, scalar_features)
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: {split}:4: object 1 'v' is not a list\n"

    @pytest.mark.parametrize("bad_id", [[1], {"a": 1}, 5, None])
    def test_non_string_id_names_line(self, workspace, tmp_path, capsys, bad_id):
        def set_id(record):
            record["id"] = bad_id

        code, split = self.eval_with_record_edit(workspace, tmp_path, set_id)
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: {split}:4: example id {bad_id!r} is not a string\n"

    def test_unknown_checkpoint_config_field_names_it(self, workspace, tmp_path, capsys):
        ckpt_dir = tmp_path / "ckpt"
        shutil.copytree(workspace / "vgqe", ckpt_dir)
        path = ckpt_dir / "checkpoint.json"
        manifest = json.loads(path.read_text())
        manifest["config"]["bogus"] = 1
        path.write_text(json.dumps(manifest))
        code = run(["eval", "--checkpoint", str(path), "--data", str(workspace / "data"),
                    "--split", "test", "--report", str(tmp_path / "r.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: checkpoint {path}: config.bogus is not a ModelConfig field\n"

    def eval_with_manifest_text(self, workspace, tmp_path, capsys, edit):
        ckpt_dir = tmp_path / "ckpt"
        shutil.copytree(workspace / "vgqe", ckpt_dir)
        path = ckpt_dir / "checkpoint.json"
        path.write_text(edit(path.read_text()))
        code = run(["eval", "--checkpoint", str(path), "--data", str(workspace / "data"),
                    "--split", "test", "--report", str(tmp_path / "r.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: checkpoint {path}: ") and err.count("\n") == 1
        return err

    def test_truncated_checkpoint_manifest_names_it(self, workspace, tmp_path, capsys):
        err = self.eval_with_manifest_text(workspace, tmp_path, capsys,
                                           lambda text: text[:98])
        assert ": malformed JSON (" in err

    @pytest.mark.parametrize("edit,problem", [
        (lambda m: m.pop("arrays"), "arrays is missing"),
        (lambda m: m["arrays"][1].update(shape=-1), "arrays.1.shape must be a list of integers, "
                                                    "got -1"),
        (lambda m: m["arrays"][1].update(shape=True), "arrays.1.shape must be a list of "
                                                      "integers, got True"),
        (lambda m: m["arrays"][1].update(dtype="x"), "arrays.1.dtype must be 'float64' or "
                                                     "'float32', got 'x'"),
        (lambda m: m["arrays"][2].update(trainable=1), "arrays.2.trainable must be a boolean, "
                                                       "got 1"),
        (lambda m: m.update(data_file=0), "data_file must be a string, got 0"),
        (lambda m: m.update(data_file=[]), "data_file must be a string, got []"),
        (lambda m: m.update(data_file="../vgqe/checkpoint.json.bin"),
         "data_file must be a bare file name, got '../vgqe/checkpoint.json.bin'")])
    def test_malformed_checkpoint_manifest_names_the_field(self, workspace, tmp_path, capsys,
                                                           edit, problem):
        def rewrite(text):
            manifest = json.loads(text)
            edit(manifest)
            return json.dumps(manifest)

        err = self.eval_with_manifest_text(workspace, tmp_path, capsys, rewrite)
        assert err.endswith(f": {problem}\n")

    def test_malformed_dataset_manifest_names_it(self, workspace, tmp_path, capsys):
        data_dir = tmp_path / "data"
        shutil.copytree(workspace / "data", data_dir)
        manifest = data_dir / "manifest.json"
        manifest.write_text(manifest.read_text()[:60])
        code = run(["eval", "--checkpoint", str(workspace / "vgqe" / "checkpoint.json"),
                    "--data", str(data_dir), "--split", "test",
                    "--report", str(tmp_path / "r.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: dataset manifest {manifest}: malformed JSON (")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("edit,problem", [   # ids as first collected
        pytest.param(lambda m: m["config"].update(bogus=1),
                     "config.bogus is not a DataConfig field",
                     id="<lambda>-field 'config': DataConfig.__init__() got an unexpected "
                        "keyword argument 'bogus'"),
        pytest.param(lambda m: m["config"].update(seed=-1),
                     "config.seed must be an integer in [0, inf), got -1",
                     id="<lambda>-field 'config': seed must be a non-negative integer, got -1"),
        renamed(lambda m: m.update(config=[]), "config is not a JSON object",
                "field 'config' is not a JSON object"),
        renamed(lambda m: m.update(bias_spec=[]), "bias_spec is not a JSON object",
                "field 'bias_spec' is not a JSON object"),
        pytest.param(lambda m: m["bias_spec"]["1"].update(extra=0),
                     "bias_spec.1.extra is not a TypeBias field",
                     id="<lambda>-field 'bias_spec.1': TypeBias.__init__() got an unexpected "
                        "keyword argument 'extra'"),
        (lambda m: m["bias_spec"]["1"].update(answers=[0, "1"]),
         "bias_spec.1.answers must be a list of integers, got [0, '1']"),
        renamed(lambda m: m["bias_spec"].update(x={}),
                "bias_spec key 'x' is not a question type id",
                "field 'bias_spec' key 'x' is not a question type id"),
        renamed(lambda m: m["bias_spec"].update({"01": m["bias_spec"]["1"]}),
                "bias_spec key '01' is not a question type id",
                "field 'bias_spec' key '01' is not a question type id"),
        renamed(lambda m: m["vocabularies"].pop("tokens"), "vocabularies.tokens is missing",
                "missing field 'vocabularies.tokens'"),
        renamed(lambda m: m.update(feature_map={}), "feature_map is not a JSON array",
                "field 'feature_map' is not a JSON array"),
        pytest.param(lambda m: m["vocabularies"]["embedding"][2].__setitem__(0, 1e400),
                     lambda m: "vocabularies.embedding.2 must be a list of finite numbers, "
                               f"got {m['vocabularies']['embedding'][2]!r}", id="embedding-1e400"),
        pytest.param(lambda m: m["vocabularies"]["embedding"][1].pop(),
                     "vocabularies.embedding must hold 11 rows of 6 numbers, got 11 rows of "
                     "lengths [5, 6]", id="embedding-ragged"),
        pytest.param(lambda m: m["feature_map"].pop(),
                     "feature_map must hold 8 rows of 9 numbers, got 7 rows of lengths [9]",
                     id="feature_map-shape")])
    def test_malformed_dataset_manifest_field_names_it(self, workspace, tmp_path, capsys,
                                                       command, edit, problem):
        data_dir = tmp_path / "data"
        shutil.copytree(workspace / "data", data_dir)
        manifest = data_dir / "manifest.json"
        payload = json.loads(manifest.read_text())
        edit(payload)
        manifest.write_text(json.dumps(payload))
        if command == "train":
            argv = ["train", "--data", str(data_dir), "--variant", "baseline",
                    "--out", str(tmp_path / "run")]
        else:
            argv = ["eval", "--checkpoint", str(workspace / "vgqe" / "checkpoint.json"),
                    "--data", str(data_dir), "--report", str(tmp_path / "r.json")]
        code = run(argv)
        err = capsys.readouterr().err
        assert code == 2
        problem = problem(payload) if callable(problem) else problem
        assert err == f"error: dataset manifest {manifest}: {problem}\n"

    @pytest.mark.parametrize("reader", ["split", "dataset manifest", "checkpoint",
                                        "config file", "evaluation report"])
    def test_invalid_utf8_names_the_file(self, workspace, tmp_path, capsys, reader):
        data_dir, ckpt_dir = tmp_path / "data", tmp_path / "vgqe"
        shutil.copytree(workspace / "data", data_dir)
        shutil.copytree(workspace / "vgqe", ckpt_dir)
        config, report = tmp_path / "config.json", tmp_path / "vgqe_report.json"
        config.write_text(json.dumps(TINY_CONFIG))
        shutil.copy(workspace / "vgqe_report.json", report)
        target = {"split": data_dir / "test.jsonl", "dataset manifest": data_dir / "manifest.json",
                  "checkpoint": ckpt_dir / "checkpoint.json", "config file": config,
                  "evaluation report": report}[reader]
        raw = target.read_bytes()   # a byte 0xff after the first quote, in a split's third line
        start = raw.index(b"\n", raw.index(b"\n") + 1) + 1 if reader == "split" else 0
        target.write_bytes(raw[:start] + raw[start:].replace(b'"', b'"\xff', 1))
        argv = {"config file": ["gen-data", "--config", str(config), "--out",
                                str(tmp_path / "gen")],
                "evaluation report": ["report", "--baseline", str(workspace / "baseline_report.json"),
                                      "--vgqe", str(report), "--out", str(tmp_path / "cmp")]}.get(
            reader, ["eval", "--checkpoint", str(ckpt_dir / "checkpoint.json"), "--data",
                     str(data_dir), "--report", str(tmp_path / "r.json")])
        code = run(argv)
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1
        decode = "'utf-8' codec can't decode byte 0xff in position"
        if reader == "split":
            assert err.startswith(f"error: {target}:3: {decode} ")
        else:
            assert err.startswith(f"error: {reader} {target}: malformed JSON ({decode} ")

    def test_eval_deterministic(self, workspace, tmp_path):
        outs = []
        target = tmp_path / "re_report.json"
        for _ in range(2):
            assert run(["eval", "--checkpoint",
                        str(workspace / "baseline" / "checkpoint.json"),
                        "--data", str(workspace / "data"), "--split", "test_iid",
                        "--report", str(target)]) == 0
            outs.append(target.read_bytes())
        assert outs[0] == outs[1]


    def test_report_bytes_do_not_depend_on_the_split_cache(self, workspace, tmp_path):
        data_dir = tmp_path / "data"
        shutil.copytree(workspace / "data", data_dir)
        cache = data_dir / "test.jsonl.columns"
        cache.unlink()
        outs = []
        for _ in range(2):  # the first call parses and writes the cache, the second reads it
            target = tmp_path / "report.json"
            assert run(["eval", "--checkpoint", str(workspace / "vgqe" / "checkpoint.json"),
                        "--data", str(data_dir), "--split", "test",
                        "--report", str(target)]) == 0
            assert cache.exists()
            outs.append(target.read_bytes().replace(str(data_dir).encode(), b"DATA"))
        assert outs[0] == outs[1]
        assert outs[0] == (workspace / "vgqe_report.json").read_bytes().replace(
            str(workspace / "data").encode(), b"DATA")

    @pytest.mark.parametrize("variant", sorted(GOLDEN_REPORT_SHA256))
    def test_report_bytes_match_golden_digests(self, workspace, tmp_path, monkeypatch,
                                               variant):
        monkeypatch.chdir(workspace)
        target = tmp_path / "report.json"
        assert run(["eval", "--checkpoint", f"{variant}/checkpoint.json", "--data", "data",
                    "--split", "test", "--report", str(target)]) == 0
        assert sha(target) == GOLDEN_REPORT_SHA256[variant]

    def test_refused_call_leaves_the_next_call_unchanged(self, workspace, tmp_path, capsys):
        checkpoint = str(workspace / "vgqe" / "checkpoint.json")
        data = str(workspace / "data")
        target = tmp_path / "report.json"
        # argparse refuses these after reading --split or --checkpoint
        for argv in (["eval", "--checkpoint", checkpoint, "--data", data,
                      "--split", "test_iid", "--report", str(target), "--bogus"],
                     ["eval", "--checkpoint", checkpoint, "--data", data,
                      "--split", "nowhere", "--report", str(target)]):
            assert run(argv) == 2
            assert not target.exists()
        capsys.readouterr()
        # the default split is still "test"
        assert run(["eval", "--checkpoint", checkpoint, "--data", data,
                    "--report", str(target)]) == 0
        assert target.read_bytes() == (workspace / "vgqe_report.json").read_bytes()


class TestGradcheckCommand:
    def test_single_module_passes(self, capsys):
        assert run(["gradcheck", "--module", "fusion"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        assert "max relative error" in out

    def test_unknown_module_fails(self):
        assert run(["gradcheck", "--module", "nonsense"]) != 0


class TestReport:
    def test_emits_comparison_histograms_traces(self, workspace):
        out_dir = workspace / "cmp"
        assert run(["report", "--baseline", str(workspace / "baseline_report.json"),
                    "--vgqe", str(workspace / "vgqe_report.json"),
                    "--out", str(out_dir), "--traces", "3"]) == 0
        lines = (out_dir / "comparison.csv").read_text().strip().splitlines()
        assert lines[0] == "question_type,n,baseline,vgqe"
        assert lines[-1].startswith("overall,")
        hist_lines = (out_dir / "histograms.csv").read_text().strip().splitlines()
        assert len(hist_lines) > 1
        traces = json.loads((out_dir / "traces.json").read_text())
        assert len(traces) == 3  # one record per traced question
        k = TINY_CONFIG["data"]["objects_per_scene"]
        for rec in traces:
            assert sorted(rec) == ["question_id", "weights"]
            for step in rec["weights"]:
                assert len(step) == k
                assert abs(sum(step) - 1.0) < 1e-6

    def test_traces_match_golden_digest(self, workspace, tmp_path):
        assert run(["report", "--baseline", str(workspace / "baseline_report.json"),
                    "--vgqe", str(workspace / "vgqe_report.json"),
                    "--out", str(tmp_path)]) == 0
        assert sha(tmp_path / "traces.json") == GOLDEN_TRACES_SHA256

    @pytest.mark.parametrize("precision", ["float64", "float32"])
    def test_traces_are_the_grounded_encoders_attention(self, workspace, tmp_path, precision):
        report = workspace / "vgqe_report.json"
        if precision == "float32":
            assert run(["train", "--data", str(workspace / "data"), "--variant", "vgqe",
                        "--seed", "1", "--out", str(tmp_path / "vgqe"), "--precision",
                        "float32", "--config", str(workspace / "config.json")]) == 0
            report = tmp_path / "vgqe_report.json"
            assert run(["eval", "--checkpoint", str(tmp_path / "vgqe" / "checkpoint.json"),
                        "--data", str(workspace / "data"), "--split", "test",
                        "--report", str(report)]) == 0
        n_test = TINY_CONFIG["data"]["n_test"]
        assert run(["report", "--baseline", str(workspace / "baseline_report.json"),
                    "--vgqe", str(report), "--out", str(tmp_path / "cmp"),
                    "--traces", str(n_test)]) == 0
        traces = json.loads((tmp_path / "cmp" / "traces.json").read_text())
        params = load_checkpoint(json.loads(report.read_text())["checkpoint"])
        assert params.flat.dtype == np.dtype(precision)
        split = load_dataset(workspace / "data", splits=("test",)).split("test")
        assert [rec["question_id"] for rec in traces] == split.ids
        with using_dtype(params.flat.dtype.type):
            for i, rec in enumerate(traces):
                _, weights = encode_question_vgqe(
                    split.visual[i], split.labels[i], split.tokens[i, :split.lengths[i]],
                    params.embedding, params.vgw, params.gru_fwd, params.gru_bwd)
                assert rec["weights"] == weights.tolist(), rec["question_id"]

    def test_negative_trace_count_refused(self, workspace, tmp_path, capsys):
        argv = ["report", "--baseline", str(workspace / "baseline_report.json"),
                "--vgqe", str(workspace / "vgqe_report.json"), "--out", str(tmp_path / "cmp")]
        assert run(argv + ["--traces", "-3"]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "vqalab report: error: argument --traces: -3 is negative; give a count of "
            "0 or more")
        assert not (tmp_path / "cmp").exists()
        assert run(argv + ["--traces", "0"]) == 0
        assert (tmp_path / "cmp" / "traces.json").read_text() == "[]\n"

    def test_does_not_mutate_inputs(self, workspace, tmp_path):
        inputs = [workspace / "baseline_report.json", workspace / "vgqe_report.json",
                  workspace / "vgqe" / "checkpoint.json",
                  workspace / "data" / "train.jsonl"]
        before = [sha(p) for p in inputs]
        assert run(["report", "--baseline", str(inputs[0]), "--vgqe", str(inputs[1]),
                    "--out", str(tmp_path / "cmp2"), "--traces", "2"]) == 0
        assert [sha(p) for p in inputs] == before


class TestReportRefusals:
    """`vqalab report` refuses inputs that do not make one comparison, with one
    error line naming the files, and writes nothing."""

    def refusal(self, tmp_path, capsys, baseline, vgqe):
        out_dir = tmp_path / "cmp"
        code = run(["report", "--baseline", str(baseline), "--vgqe", str(vgqe),
                    "--out", str(out_dir)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out_dir.exists()
        return err

    def edited_report(self, workspace, tmp_path, edit, variant="vgqe"):
        payload = json.loads((workspace / f"{variant}_report.json").read_text())
        edit(payload)
        path = tmp_path / f"edited_{variant}_report.json"
        path.write_text(json.dumps(payload))
        return path

    def reports_on(self, workspace, tmp_path, baseline_dir, vgqe_dir):
        """The baseline and vgqe reports, with their data_dirs set as given."""
        def point(data_dir):
            return lambda payload: payload.update(data_dir=str(data_dir))
        return (self.edited_report(workspace, tmp_path, point(baseline_dir), "baseline"),
                self.edited_report(workspace, tmp_path, point(vgqe_dir)))

    def test_mixed_splits(self, workspace, tmp_path, capsys):
        iid = tmp_path / "vgqe_iid.json"
        assert run(["eval", "--checkpoint", str(workspace / "vgqe" / "checkpoint.json"),
                    "--data", str(workspace / "data"), "--split", "test_iid",
                    "--report", str(iid)]) == 0
        baseline = workspace / "baseline_report.json"
        err = self.refusal(tmp_path, capsys, baseline, iid)
        assert str(baseline) in err and str(iid) in err
        assert "different splits, 'test' and 'test_iid'" in err

    def test_swapped_variants(self, workspace, tmp_path, capsys):
        baseline, vgqe = workspace / "baseline_report.json", workspace / "vgqe_report.json"
        err = self.refusal(tmp_path, capsys, vgqe, baseline)
        assert str(baseline) in err and str(vgqe) in err
        assert "variants 'vgqe' and 'baseline', expected 'baseline' and 'vgqe'" in err

    def test_different_example_ids(self, workspace, tmp_path, capsys):
        def rename_first(payload):
            payload["predictions"][0]["example_id"] = "elsewhere-0"

        edited = self.edited_report(workspace, tmp_path, rename_first)
        baseline = workspace / "baseline_report.json"
        err = self.refusal(tmp_path, capsys, baseline, edited)
        assert str(baseline) in err and str(edited) in err
        assert "predict different example ids" in err

    def test_baseline_checkpoint_behind_vgqe_report(self, workspace, tmp_path, capsys):
        checkpoint = workspace / "baseline" / "checkpoint.json"

        def point_at_baseline(payload):
            payload["checkpoint"] = str(checkpoint)

        edited = self.edited_report(workspace, tmp_path, point_at_baseline)
        err = self.refusal(tmp_path, capsys, workspace / "baseline_report.json", edited)
        assert err == (f"error: checkpoint {checkpoint} behind vgqe report {edited} "
                       "holds a baseline model\n")

    def test_malformed_dataset_manifest_behind_reports(self, workspace, tmp_path, capsys):
        data_dir = tmp_path / "data"
        shutil.copytree(workspace / "data", data_dir)
        manifest = data_dir / "manifest.json"
        manifest.write_text("[]")
        reports = self.reports_on(workspace, tmp_path, data_dir, data_dir)
        err = self.refusal(tmp_path, capsys, *reports)
        assert err == f"error: dataset manifest {manifest}: top level is not a JSON object\n"

    def test_reports_on_different_datasets(self, workspace, tmp_path, capsys):
        # a dataset of the same sizes from another seed numbers its examples alike
        other = tmp_path / "other"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"data": TINY_CONFIG["data"]}))
        assert run(["gen-data", "--config", str(config), "--seed", "5", "--out",
                    str(other)]) == 0
        vgqe = tmp_path / "vgqe_other.json"
        assert run(["eval", "--checkpoint", str(workspace / "vgqe" / "checkpoint.json"),
                    "--data", str(other), "--split", "test", "--report", str(vgqe)]) == 0
        baseline = workspace / "baseline_report.json"
        ids = [[r["example_id"] for r in json.loads(p.read_text())["predictions"]]
               for p in (baseline, vgqe)]
        assert ids[0] == ids[1]
        err = self.refusal(tmp_path, capsys, baseline, vgqe)
        assert err == (f"error: reports {baseline} (--baseline) and {vgqe} (--vgqe) do not "
                       f"name one dataset directory: '{workspace / 'data'}' and '{other}'\n")

    @pytest.mark.parametrize("empty", ["baseline", "vgqe", "both"])
    def test_reports_without_a_dataset_directory(self, workspace, tmp_path, capsys,
                                                 monkeypatch, empty):
        # an empty data_dir once read manifest.json from the working directory
        monkeypatch.chdir(workspace / "data")
        data = str(workspace / "data")
        dirs = {"baseline": ("", data), "vgqe": (data, ""), "both": ("", "")}[empty]
        baseline, vgqe = self.reports_on(workspace, tmp_path, *dirs)
        err = self.refusal(tmp_path, capsys, baseline, vgqe)
        assert err == (f"error: reports {baseline} (--baseline) and {vgqe} (--vgqe) do not "
                       f"name one dataset directory: {dirs[0]!r} and {dirs[1]!r}\n")

    def test_one_dataset_directory_named_two_ways(self, workspace, tmp_path, monkeypatch):
        monkeypatch.chdir(workspace)
        pairs = [self.reports_on(workspace, tmp_path, "./data/", workspace / "data"),
                 (workspace / "baseline_report.json", workspace / "vgqe_report.json")]
        for out, (baseline, vgqe) in zip(("a", "b"), pairs):
            assert run(["report", "--baseline", str(baseline), "--vgqe", str(vgqe),
                        "--out", str(tmp_path / out)]) == 0
        for name in ("comparison.csv", "histograms.csv", "traces.json"):
            assert sha(tmp_path / "a" / name) == sha(tmp_path / "b" / name), name

    @pytest.mark.parametrize("edit,problem", [   # ids as first collected
        renamed(lambda m: m["histograms"].pop("train"), "histograms.train is missing",
                "missing field 'histograms.train'"),
        renamed(lambda m: m.pop("type_names"), "type_names is missing",
                "missing field 'type_names'"),
        renamed(lambda m: m["vocabularies"].pop("answers"), "vocabularies.answers is missing",
                "missing field 'vocabularies.answers'"),
        renamed(lambda m: m.update(histograms=[]), "histograms is not a JSON object",
                "field 'histograms' is not a JSON object"),
        renamed(lambda m: m["vocabularies"].update(answers={}),
                "vocabularies.answers must be a list of strings, got {}",
                "field 'vocabularies.answers' is not a JSON array"),
        pytest.param(lambda m: m["vocabularies"].update(answers=[1] * 8),
                     "vocabularies.answers must be a list of strings, got [1, 1, 1, 1, 1, 1, 1, 1]",
                     id="answers-not-strings"),
        pytest.param(lambda m: m["histograms"].update(train={}),
                     "histograms.train must hold some of the question types "
                     "[0, 1, 2, 3, 4, 5, 6, 7, 8], got []", id="histograms-train-empty"),
        renamed(lambda m: m["type_names"].update(x="what"),
                "type_names key 'x' is not a question type id",
                "field 'type_names' key 'x' is not a question type id"),
        renamed(lambda m: m["histograms"]["train"]["0"].pop(),
                "histograms.train.0 must hold 8 numbers, one per answer, got 7",
                "field 'histograms.train.0' is not a list of 8 numbers, one per answer0"),
        renamed(lambda m: m["histograms"]["train"].update({"1": "flat"}),
                "histograms.train.1 must be a list of finite numbers, got 'flat'",
                "field 'histograms.train.1' is not a list of 8 numbers, one per answer"),
        renamed(lambda m: m["histograms"]["train"]["2"].__setitem__(0, float("nan")),
                lambda m: "histograms.train.2 must be a list of finite numbers, "
                          f"got {m['histograms']['train']['2']!r}",
                "field 'histograms.train.2' is not a list of 8 numbers, one per answer"),
        renamed(lambda m: m["histograms"]["train"]["0"].__setitem__(3, float("-inf")),
                lambda m: "histograms.train.0 must be a list of finite numbers, "
                          f"got {m['histograms']['train']['0']!r}",
                "field 'histograms.train.0' is not a list of 8 numbers, one per answer1"),
        pytest.param(lambda m: m["type_names"].update({"0": 5}),
                     "type_names.0 must be a string, got 5", id="type_names value")])
    def test_malformed_manifest_field_behind_reports(self, workspace, tmp_path, capsys,
                                                     edit, problem):
        data_dir = tmp_path / "data"
        shutil.copytree(workspace / "data", data_dir)
        manifest = data_dir / "manifest.json"
        payload = json.loads(manifest.read_text())
        edit(payload)
        manifest.write_text(json.dumps(payload))
        reports = self.reports_on(workspace, tmp_path, data_dir, data_dir)
        err = self.refusal(tmp_path, capsys, *reports)
        problem = problem(payload) if callable(problem) else problem
        assert err == f"error: dataset manifest {manifest}: {problem}\n"

    @pytest.mark.parametrize("edit,problem", [   # ids as first collected
        renamed(lambda p: p["predictions"][2].pop("answer"), "predictions.2.answer is missing",
                "prediction 2 has missing field answer"),
        renamed(lambda p: p["predictions"][0].update(score=1.0),
                "predictions.0.score is not a PredictionRecord field",
                "prediction 0 has unknown field score"),
        renamed(lambda p: p["per_type"]["0"].update(extra=[]),
                "per_type.0.extra is not a TypeReport field",
                "per_type entry '0' has unknown field extra"),
        renamed(lambda p: p["per_type"].update({"0": 3}), "per_type.0 is not a JSON object",
                "per_type entry '0' is not a JSON object"),
        (lambda p: p["per_type"].update({"x": p["per_type"].pop("1")}),
         "per_type key 'x' is not a question type id"),
        (lambda p: p["per_type"].update({"\u00b2": p["per_type"].pop("1")}),
         "per_type key '\u00b2' is not a question type id"),
        (lambda p: p["per_type"].update({"01": p["per_type"].pop("1")}),
         "per_type key '01' is not a question type id"),
        renamed(lambda p: p["per_type"]["0"].update(accuracy="high"),
                "per_type.0.accuracy must be a finite number, got 'high'",
                "per_type entry '0' field accuracy holds 'high', not a finite number"),
        renamed(lambda p: p["per_type"]["1"].update(accuracy=float("nan")),
                "per_type.1.accuracy must be a finite number, got nan",
                "per_type entry '1' field accuracy holds nan, not a finite number"),
        renamed(lambda p: p["per_type"]["2"].update(count=2.5),
                "per_type.2.count must be an integer, got 2.5",
                "per_type entry '2' field count holds 2.5, not an integer"),
        renamed(lambda p: p["per_type"]["0"].update(name=7),
                "per_type.0.name must be a string, got 7",
                "per_type entry '0' field name holds 7, not a string"),
        renamed(lambda p: p["per_type"]["0"].update(gt_histogram="flat"),
                "per_type.0.gt_histogram must be a list of finite numbers, got 'flat'",
                "per_type entry '0' field gt_histogram holds 'flat', not a list of finite "
                "numbers"),
        renamed(lambda p: p["per_type"]["1"].update(pred_histogram=[0.5, None]),
                "per_type.1.pred_histogram must be a list of finite numbers, got [0.5, None]",
                "per_type entry '1' field pred_histogram holds [0.5, None], not a list of "
                "finite numbers"),
        renamed(lambda p: p["predictions"][0].update(answer="x"),
                "predictions.0.answer must be an integer, got 'x'",
                "prediction 0 field answer holds 'x', not an integer"),
        renamed(lambda p: p["predictions"][3].update(prediction=True),
                "predictions.3.prediction must be an integer, got True",
                "prediction 3 field prediction holds True, not an integer"),
        renamed(lambda p: p["predictions"][4].update(qtype=1.0),
                "predictions.4.qtype must be an integer, got 1.0",
                "prediction 4 field qtype holds 1.0, not an integer"),
        renamed(lambda p: p["predictions"][5].update(example_id=5),
                "predictions.5.example_id must be a string, got 5",
                "prediction 5 field example_id holds 5, not a string"),
        renamed(lambda p: p.update(overall="high"), "overall must be a finite number, got 'high'",
                "field overall holds 'high', not a finite number"),
        renamed(lambda p: p.update(overall=float("inf")),
                "overall must be a finite number, got inf",
                "field overall holds inf, not a finite number"),
        renamed(lambda p: p.update(count=60.0), "count must be an integer, got 60.0",
                "field count holds 60.0, not an integer"),
        renamed(lambda p: p.update(split=None), "split must be a string, got None",
                "field split holds None, not a string"),
        renamed(lambda p: p.update(variant=["vgqe"]), "variant must be a string, got ['vgqe']",
                "field variant holds ['vgqe'], not a string"),
        renamed(lambda p: p.update(answers="red"),
                "answers must be a list of strings, got 'red'",
                "field answers holds 'red', not a list of strings"),
        renamed(lambda p: p["answers"].append(3), "answers must be a list of strings, got "
                "['red', 'green', 'blue', 'yes', 'no', '0', '1', '2', 3]",
                "field answers holds ['red', 'green', 'blue', 'yes', 'no', '0', '1', '2', 3], "
                "not a list of strings"),
        renamed(lambda p: p.update(checkpoint=1), "checkpoint must be a string, got 1",
                "field checkpoint holds 1, not a string"),
        renamed(lambda p: p.update(data_dir=False), "data_dir must be a string, got False",
                "field data_dir holds False, not a string"),
        renamed(lambda p: p.update(precision={}), "precision must be a string, got {}",
                "field precision holds {}, not a string"),
        (lambda p: p.update(per_type=[]), "per_type is not a JSON object"),
        (lambda p: p.update(predictions={}), "predictions is not a JSON array"),
        (lambda p: p.update(bogus=1), "bogus is not a EvalReport field")])
    def test_malformed_report_entry(self, workspace, tmp_path, capsys, edit, problem):
        edited = self.edited_report(workspace, tmp_path, edit)
        err = self.refusal(tmp_path, capsys, workspace / "baseline_report.json", edited)
        assert err == f"error: evaluation report {edited}: {problem}\n"

    @pytest.mark.parametrize("edit,problem", [
        pytest.param(lambda p: (p.update(overall=0.99), p["per_type"]["0"].update(accuracy=0.99)),
                     lambda p: f"overall is 0.99, but the predictions give {p['overall']!r}",
                     id="overall-and-type-accuracy"),
        pytest.param(lambda p: p["per_type"]["0"].update(accuracy=0.99),
                     lambda p: f"per_type.0.accuracy is 0.99, but the predictions give "
                               f"{p['per_type']['0']['accuracy']!r}", id="type-accuracy"),
        pytest.param(lambda p: p.update(count=p["count"] + 1),
                     lambda p: f"count is {p['count'] + 1}, but the predictions give "
                               f"{p['count']}", id="count"),
        pytest.param(lambda p: p["per_type"]["1"].update(count=p["per_type"]["1"]["count"] - 1),
                     lambda p: f"per_type.1.count is {p['per_type']['1']['count'] - 1}, but the "
                               f"predictions give {p['per_type']['1']['count']}",
                     id="type-count"),
        pytest.param(lambda p: p["per_type"]["2"]["gt_histogram"].reverse(),
                     lambda p: f"per_type.2.gt_histogram is "
                               f"{p['per_type']['2']['gt_histogram'][::-1]!r}, but the "
                               f"predictions give {p['per_type']['2']['gt_histogram']!r}",
                     id="type-histogram"),
        pytest.param(lambda p: p["per_type"].update({"99": p["per_type"]["0"]}),
                     lambda p: f"per_type holds question types "
                               f"{sorted(map(int, p['per_type'])) + [99]}, but the "
                               f"predictions give {sorted(map(int, p['per_type']))}",
                     id="extra-type"),
        pytest.param(lambda p: p["predictions"][0].update(answer=99),
                     lambda p: f"predictions cannot be counted: example "
                               f"{p['predictions'][0]['example_id']!r}: answer id 99 out of "
                               f"range for {len(p['answers'])} answers", id="answer-range"),
        pytest.param(lambda p: p.update(predictions=[]),
                     lambda p: "predictions cannot be counted: cannot summarize an empty "
                               "prediction list", id="no-predictions")])
    def test_tables_the_predictions_do_not_give(self, workspace, tmp_path, capsys, edit,
                                                problem):
        edited = self.edited_report(workspace, tmp_path, edit)
        err = self.refusal(tmp_path, capsys, workspace / "baseline_report.json", edited)
        original = json.loads((workspace / "vgqe_report.json").read_text())
        assert err == f"error: evaluation report {edited}: {problem(original)}\n"

    def test_out_that_is_a_file_is_refused_first(self, workspace, tmp_path, capsys,
                                                 monkeypatch):
        monkeypatch.setattr(cli, "report_from_json", work_that_must_not_run)
        out = tmp_path / "cmp"
        out.write_text("kept")
        assert run(["report", "--baseline", str(workspace / "baseline_report.json"),
                    "--vgqe", str(workspace / "vgqe_report.json"), "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"error: output directory {out} exists and is not a directory\n"
        assert out.read_text() == "kept"

    def test_truncated_report(self, workspace, tmp_path, capsys):
        truncated = tmp_path / "truncated.json"
        truncated.write_text((workspace / "vgqe_report.json").read_text()[:200])
        err = self.refusal(tmp_path, capsys, workspace / "baseline_report.json", truncated)
        assert err.startswith(f"error: evaluation report {truncated}: malformed JSON (")


# what a swapped JSON node becomes
MUTATION_VALUES = (None, True, False, 0, -1, 2, 0.5, float("inf"), "", "x", [], {}, [1])
MUTATIONS_PER_FILE = 30
OPTIONAL_REPORT_FIELDS = {f.name for f in dataclasses.fields(EvalReport)
                          if f.default is not dataclasses.MISSING
                          or f.default_factory is not dataclasses.MISSING}


def mutated_json(value, rng: random.Random) -> tuple:
    """A copy of a JSON value with one node, reached by random steps from the
    root, deleted (a key) or swapped for one of MUTATION_VALUES; and what was done."""
    value = json.loads(json.dumps(value))
    path, node = (), value
    while isinstance(node, (dict, list)) and node and (not path or rng.random() < 0.7):
        key = rng.choice(list(node) if isinstance(node, dict) else range(len(node)))
        path, node = path + (key,), node[key]
    if not path:
        return rng.choice(MUTATION_VALUES), "swapped the whole value"
    parent = reduce(getitem, path[:-1], value)
    if isinstance(parent, dict) and rng.random() < 0.25:
        del parent[path[-1]]
        return value, f"deleted {'.'.join(map(str, path))}"
    parent[path[-1]] = json.loads(json.dumps(rng.choice(MUTATION_VALUES)))
    return value, f"set {'.'.join(map(str, path))} to {parent[path[-1]]!r}"


def mutated_file(raw: bytes, form: str, rng: random.Random) -> tuple[bytes, str]:
    """`raw` with one mutation: for a JSON file ("json") or a JSON Lines file
    ("jsonl", one line), a node swapped or a key deleted; for any file, one
    bit flipped or the file cut short; for a binary file, a byte appended."""
    kind = rng.choice(("node", "flip", "truncate") if form != "bytes" else
                      ("append", "flip", "truncate"))
    if kind == "flip":
        at, bit = rng.randrange(len(raw)), 1 << rng.randrange(8)
        return raw[:at] + bytes([raw[at] ^ bit]) + raw[at + 1:], f"flipped bit {bit} of byte {at}"
    if kind == "truncate":
        at = rng.randrange(len(raw))
        return raw[:at], f"cut to {at} bytes"
    if kind == "append":
        return raw + b"\0", "appended a byte"
    if form == "json":
        value, what = mutated_json(json.loads(raw), rng)
        return json.dumps(value).encode(), what
    lines = raw.splitlines(keepends=True)
    i = rng.randrange(len(lines))
    value, what = mutated_json(json.loads(lines[i]), rng)
    lines[i] = json.dumps(value).encode() + b"\n"
    return b"".join(lines), f"line {i + 1}: {what}"


def edits_only(a, b, free, deletable, path=()) -> bool:
    """Whether JSON value b is a with only the leaves at `free` paths changed,
    each to another value of its JSON type, and only keys at `deletable` paths
    removed."""
    if type(a) is not type(b):
        return False
    if type(a) is dict:
        return b.keys() <= a.keys() and all(k in b or deletable(path + (k,)) for k in a) and \
            all(edits_only(a[k], b[k], free, deletable, path + (k,)) for k in b)
    if type(a) is list:
        return len(a) == len(b) and all(edits_only(x, y, free, deletable, path + (i,))
                                        for i, (x, y) in enumerate(zip(a, b)))
    return a == b or free(path)


def valid_edit(original: bytes, raw: bytes, form: str, free, deletable) -> bool:
    """Whether mutated file `raw` is `original` changed only as `edits_only` allows."""
    if form == "bytes":
        return False
    try:
        pairs = [(json.loads(original), json.loads(raw))] if form == "json" else \
            list(zip(map(json.loads, original.splitlines()), map(json.loads, raw.splitlines()),
                     strict=True))
    except ValueError:   # not JSON, not UTF-8, or another number of lines
        return False
    return all(edits_only(a, b, free, deletable) for a, b in pairs)


class TestMutations:
    """Seeded mutations of every file the CLI reads. A mutated file is refused
    with exit 2, one `error:` line and nothing written, or read as the file
    the program wrote: exit 0 with the unmutated output bytes. An exception
    escaping `cli.run` fails the test, naming the file and the mutation.

    Some files hold values that may be changed: a config file (any value, and
    a deleted key takes its default), a split (its ids, question types,
    tokens, answers and features are data) and an eval report's fields that
    reports written before them lack. A mutation that changes only those,
    each value within its JSON type, is another valid input: it may also exit
    0 with other output bytes."""

    def cases(self, workspace, tmp_path):
        shutil.copytree(workspace / "data", tmp_path / "data")
        shutil.copytree(workspace / "vgqe", tmp_path / "vgqe")
        for name in ("baseline_report.json", "vgqe_report.json"):
            shutil.copy(workspace / name, tmp_path / name)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"data": TINY_CONFIG["data"]}))
        out = tmp_path / "out"
        evaluate = ["eval", "--checkpoint", tmp_path / "vgqe" / "checkpoint.json", "--data",
                    tmp_path / "data", "--split", "test", "--report", out / "report.json"]
        compare = ["report", "--baseline", tmp_path / "baseline_report.json",
                   "--vgqe", tmp_path / "vgqe_report.json", "--out", out]
        anything, nothing = (lambda path: True), (lambda path: False)
        optional = lambda path: path[0] in OPTIONAL_REPORT_FIELDS   # noqa: E731
        # file: (argv, form, free, deletable); gen-data keeps TINY sizes whatever the file says
        files = {
            config: (["gen-data", "--config", config, "--out", out, "--n-train",
                      TINY_CONFIG["data"]["n_train"], "--n-test", TINY_CONFIG["data"]["n_test"]],
                     "json", anything, anything),
            tmp_path / "data" / "manifest.json": (evaluate, "json", nothing, nothing),
            tmp_path / "data" / "test.jsonl": (evaluate, "jsonl", anything, nothing),
            tmp_path / "data" / "test.jsonl.columns": (evaluate, "bytes", nothing, nothing),
            tmp_path / "vgqe" / "checkpoint.json": (evaluate, "json", nothing, nothing),
            tmp_path / "vgqe" / "checkpoint.json.bin": (evaluate, "bytes", nothing, nothing),
            tmp_path / "vgqe_report.json": (compare, "json", optional, optional),
        }
        return {path.name: (path, *case) for path, case in files.items()}, out

    @pytest.mark.parametrize("name", ["config.json", "manifest.json", "test.jsonl",
                                      "test.jsonl.columns", "checkpoint.json",
                                      "checkpoint.json.bin", "vgqe_report.json"])
    def test_mutated_file_is_refused_or_read_as_written(self, workspace, tmp_path, capsys, name):
        cases, out = self.cases(workspace, tmp_path)
        path, argv, form, free, deletable = cases[name]
        cache = tmp_path / "data" / "test.jsonl.columns"
        kept = {p: p.read_bytes() for p in (path, cache)}

        def outcome(what):
            try:
                code = run([str(a) for a in argv])
            except Exception as err:   # noqa: BLE001 - the escape is the failure reported
                pytest.fail(f"{name}: {what}: {err!r} escaped cli.run")
            written = None if not out.exists() else {
                p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
            shutil.rmtree(out, ignore_errors=True)
            for p, raw in kept.items():   # the split cache too, which a parse may rewrite
                p.write_bytes(raw)
            return code, capsys.readouterr().err, written

        code, _, expected = outcome("unmutated")
        assert code == 0 and expected
        rng = random.Random(f"mutations of {name}")
        for _ in range(MUTATIONS_PER_FILE):
            raw, what = mutated_file(kept[path], form, rng)
            path.write_bytes(raw)
            code, err, written = outcome(what)
            if code == 2:
                assert err.startswith("error: ") and err.count("\n") == 1, (what, err)
                assert written is None, what
            else:
                assert code == 0, (what, code, err)
                assert written == expected or valid_edit(kept[path], raw, form, free,
                                                         deletable), what


@pytest.mark.parametrize("case", ["config file", "checkpoint", "evaluation report",
                                  "data_file"])
def test_path_that_is_not_a_file_is_refused(workspace, tmp_path, capsys, case):
    """A file argument that names a directory, and a checkpoint data file that
    is not a bare file name, are refused in one line, writing nothing."""
    folder, out = tmp_path / "folder", tmp_path / "out"
    folder.mkdir()
    checkpoint, problem = folder, f"{case} {folder} is not a file"
    if case == "data_file":
        shutil.copytree(workspace / "vgqe", tmp_path / "vgqe")
        checkpoint = tmp_path / "vgqe" / "checkpoint.json"
        manifest = json.loads(checkpoint.read_text())
        manifest["data_file"] = "."
        checkpoint.write_text(json.dumps(manifest))
        problem = f"checkpoint {checkpoint}: data_file must be a bare file name, got '.'"
    argv = {"config file": ["gen-data", "--config", str(folder), "--out", str(out)],
            "evaluation report": ["report", "--baseline", str(folder), "--vgqe",
                                  str(workspace / "vgqe_report.json"), "--out", str(out)]}.get(
        case, ["eval", "--checkpoint", str(checkpoint), "--data", str(workspace / "data"),
               "--report", str(out)])
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: {problem}\n"
    assert not out.exists()


def test_unknown_flag_nonzero():
    assert run(["gen-data", "--out", "/tmp/x", "--bogus"]) != 0


def test_unknown_command_nonzero():
    assert run(["frobnicate"]) != 0
