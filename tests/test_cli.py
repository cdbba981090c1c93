import hashlib
import json
import shutil
from pathlib import Path

import pytest

from vqalab.cli import run

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
# --seed 1, as written while each parameter was still its own array with its
# own AdamW moments: an update that moves one value by one ulp changes them.
# They hold for one numpy/BLAS build; another BLAS may round matmuls differently.
GOLDEN_BIN_SHA256 = {
    ("baseline", "float64"): "d0acd3adf7822be743af9534f9ef705b6bd13824a44818451389854cbd700cc2",
    ("vgqe", "float64"): "4eb3a3acf6fb6f344a84987f5fe837f4c38709736a5b27a8463f322c9b4690fe",
    ("baseline", "float32"): "258f55e5dc62d414d6fd524e4fb8924e1a1687279fb59bdbe6e1bac33a8d157d",
    ("vgqe", "float32"): "a2c1899020e9bed4e03fba521eced10f19f8bbec060b53833fa1f7571f63bc15",
}


def sha(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


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


class TestEval:
    def test_report_content(self, workspace):
        report = json.loads((workspace / "vgqe_report.json").read_text())
        assert report["split"] == "test"
        assert report["variant"] == "vgqe"
        assert 0.0 <= report["overall"] <= 1.0
        assert report["count"] == 60
        assert report["predictions"]
        total = sum(tr["count"] for tr in report["per_type"].values())
        assert total == report["count"]

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
        assert err == (f"error: checkpoint {path} config does not match ModelConfig: "
                       "unknown field bogus\n")

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
        assert len(traces) == 6  # 3 questions x 2 directions
        k = TINY_CONFIG["data"]["objects_per_scene"]
        for rec in traces:
            assert rec["direction"] in ("forward", "backward")
            for step in rec["weights"]:
                assert len(step) == k
                assert abs(sum(step) - 1.0) < 1e-6

    def test_does_not_mutate_inputs(self, workspace, tmp_path):
        inputs = [workspace / "baseline_report.json", workspace / "vgqe_report.json",
                  workspace / "vgqe" / "checkpoint.json",
                  workspace / "data" / "train.jsonl"]
        before = [sha(p) for p in inputs]
        assert run(["report", "--baseline", str(inputs[0]), "--vgqe", str(inputs[1]),
                    "--out", str(tmp_path / "cmp2"), "--traces", "2"]) == 0
        assert [sha(p) for p in inputs] == before


def test_unknown_flag_nonzero():
    assert run(["gen-data", "--out", "/tmp/x", "--bogus"]) != 0


def test_unknown_command_nonzero():
    assert run(["frobnicate"]) != 0
