import hashlib
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from vqalab.cli import run, sha256_of
from vqalab.data import load_dataset
from vqalab.evaluate import evaluate_split
from vqalab.grounding import encode_question_vgqe
from vqalab.model import load_checkpoint
from vqalab.tensor import using_dtype

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
# digests held. An update that moves one value by one ulp changes
# them. They hold for one numpy/BLAS build; another BLAS may round matmuls
# differently.
GOLDEN_BIN_SHA256 = {
    ("baseline", "float64"): "dce1b81c12499ce48789c5035acf0e66af1fafeb74a440a57314070357cbf10e",
    ("vgqe", "float64"): "3b4df08e0db1b6117f750f9a38b65ad33c677387b9609733f6e274c23c252503",
    ("baseline", "float32"): "d8222b034bbe578fe54285acb86016d4893aae81108d3a67a043f61df3b521d0",
    ("vgqe", "float32"): "a04183b405cfe93e657db4fa306990571ac117989c5317b11aea96ea46f96f9c",
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
GOLDEN_TRACES_SHA256 = "8e8acdb7b47a542c8229797654ec1151e3fe8f514bab5e905e49365d444d3b83"


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
        assert capsys.readouterr().err == "error: rho_train must lie in [0, 1], got 1.5\n"
        assert not out.exists()

    @pytest.mark.parametrize("field,value,message", [
        ("n_train", "30", "n_train must be an integer, got '30'"),
        ("d_v", 2.5, "d_v must be an integer, got 2.5")])
    def test_mistyped_data_config_names_the_field(self, tmp_path, capsys, field, value,
                                                  message):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"data": {field: value}}))
        out = tmp_path / "d"
        assert run(["gen-data", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("value,flags", [(1.5, []), ("3", []), (True, []),
                                             (0, ["--seed", "-1"])])
    def test_refused_seed_names_the_field(self, tmp_path, capsys, value, flags):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"data": {**TINY_CONFIG["data"], "seed": value}}))
        out = tmp_path / "d"
        assert run(["gen-data", "--config", str(cfg_path), "--out", str(out), *flags]) == 2
        shown = -1 if flags else value
        assert capsys.readouterr().err == ("error: seed must be a non-negative integer, "
                                           f"got {shown!r}\n")
        assert not out.exists()

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
        assert err == (f"error: checkpoint {path} config does not match ModelConfig: "
                       "unknown field bogus\n")

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

    def test_manifest_without_arrays_names_it(self, workspace, tmp_path, capsys):
        def drop_arrays(text):
            manifest = json.loads(text)
            del manifest["arrays"]
            return json.dumps(manifest)

        err = self.eval_with_manifest_text(workspace, tmp_path, capsys, drop_arrays)
        assert err.endswith(": missing field 'arrays'\n")

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
    @pytest.mark.parametrize("edit,problem", [
        (lambda m: m["config"].update(bogus=1),
         "field 'config': DataConfig.__init__() got an unexpected keyword argument 'bogus'"),
        (lambda m: m["config"].update(seed=-1),
         "field 'config': seed must be a non-negative integer, got -1"),
        (lambda m: m.update(config=[]), "field 'config' is not a JSON object"),
        (lambda m: m.update(bias_spec=[]), "field 'bias_spec' is not a JSON object"),
        (lambda m: m["bias_spec"]["1"].update(extra=0),
         "field 'bias_spec.1': TypeBias.__init__() got an unexpected keyword argument 'extra'"),
        (lambda m: m["bias_spec"].update(x={}),
         "field 'bias_spec' key 'x' is not a question type id"),
        (lambda m: m["bias_spec"].update({"01": m["bias_spec"]["1"]}),
         "field 'bias_spec' key '01' is not a question type id"),
        (lambda m: m["vocabularies"].pop("tokens"), "missing field 'vocabularies.tokens'"),
        (lambda m: m.update(feature_map={}), "field 'feature_map' is not a JSON array")])
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
        cache = data_dir / "test.jsonl.npz"
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

    def edited_report(self, workspace, tmp_path, edit):
        payload = json.loads((workspace / "vgqe_report.json").read_text())
        edit(payload)
        path = tmp_path / "edited_report.json"
        path.write_text(json.dumps(payload))
        return path

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

        def point_at_copy(payload):
            payload["data_dir"] = str(data_dir)

        edited = self.edited_report(workspace, tmp_path, point_at_copy)
        err = self.refusal(tmp_path, capsys, workspace / "baseline_report.json", edited)
        assert err == f"error: dataset manifest {manifest}: top level is not a JSON object\n"

    @pytest.mark.parametrize("edit,problem", [
        (lambda m: m["histograms"].pop("train"), "missing field 'histograms.train'"),
        (lambda m: m.pop("type_names"), "missing field 'type_names'"),
        (lambda m: m["vocabularies"].pop("answers"), "missing field 'vocabularies.answers'"),
        (lambda m: m.update(histograms=[]), "field 'histograms' is not a JSON object"),
        (lambda m: m["vocabularies"].update(answers={}),
         "field 'vocabularies.answers' is not a JSON array"),
        (lambda m: m["type_names"].update(x="what"),
         "field 'type_names' key 'x' is not a question type id"),
        (lambda m: m["histograms"]["train"]["0"].pop(),
         "field 'histograms.train.0' is not a list of 8 numbers, one per answer"),
        (lambda m: m["histograms"]["train"].update({"1": "flat"}),
         "field 'histograms.train.1' is not a list of 8 numbers, one per answer")])
    def test_malformed_manifest_field_behind_reports(self, workspace, tmp_path, capsys,
                                                     edit, problem):
        data_dir = tmp_path / "data"
        shutil.copytree(workspace / "data", data_dir)
        manifest = data_dir / "manifest.json"
        payload = json.loads(manifest.read_text())
        edit(payload)
        manifest.write_text(json.dumps(payload))

        def point_at_copy(report):
            report["data_dir"] = str(data_dir)

        edited = self.edited_report(workspace, tmp_path, point_at_copy)
        err = self.refusal(tmp_path, capsys, workspace / "baseline_report.json", edited)
        assert err == f"error: dataset manifest {manifest}: {problem}\n"

    @pytest.mark.parametrize("edit,problem", [
        (lambda p: p["predictions"][2].pop("answer"), "prediction 2 has missing field answer"),
        (lambda p: p["predictions"][0].update(score=1.0), "prediction 0 has unknown field score"),
        (lambda p: p["per_type"]["0"].update(extra=[]),
         "per_type entry '0' has unknown field extra"),
        (lambda p: p["per_type"].update({"0": 3}), "per_type entry '0' is not a JSON object"),
        (lambda p: p["per_type"].update({"x": p["per_type"].pop("1")}),
         "per_type key 'x' is not a question type id"),
        (lambda p: p["per_type"].update({"\u00b2": p["per_type"].pop("1")}),
         "per_type key '\u00b2' is not a question type id"),
        (lambda p: p["per_type"].update({"01": p["per_type"].pop("1")}),
         "per_type key '01' is not a question type id"),
        (lambda p: p["per_type"]["0"].update(accuracy="high"),
         "per_type entry '0' field accuracy holds 'high', not a finite number"),
        (lambda p: p["per_type"]["1"].update(accuracy=float("nan")),
         "per_type entry '1' field accuracy holds nan, not a finite number"),
        (lambda p: p["per_type"]["2"].update(count=2.5),
         "per_type entry '2' field count holds 2.5, not an integer"),
        (lambda p: p["per_type"]["0"].update(name=7),
         "per_type entry '0' field name holds 7, not a string"),
        (lambda p: p["per_type"]["0"].update(gt_histogram="flat"),
         "per_type entry '0' field gt_histogram holds 'flat', not a list of finite numbers"),
        (lambda p: p["per_type"]["1"].update(pred_histogram=[0.5, None]),
         "per_type entry '1' field pred_histogram holds [0.5, None], not a list of finite "
         "numbers"),
        (lambda p: p["predictions"][0].update(answer="x"),
         "prediction 0 field answer holds 'x', not an integer"),
        (lambda p: p["predictions"][3].update(prediction=True),
         "prediction 3 field prediction holds True, not an integer"),
        (lambda p: p["predictions"][4].update(qtype=1.0),
         "prediction 4 field qtype holds 1.0, not an integer"),
        (lambda p: p["predictions"][5].update(example_id=5),
         "prediction 5 field example_id holds 5, not a string"),
        (lambda p: p.update(overall="high"), "field overall holds 'high', not a finite number"),
        (lambda p: p.update(overall=float("inf")), "field overall holds inf, not a finite number"),
        (lambda p: p.update(count=60.0), "field count holds 60.0, not an integer"),
        (lambda p: p.update(split=None), "field split holds None, not a string"),
        (lambda p: p.update(variant=["vgqe"]), "field variant holds ['vgqe'], not a string"),
        (lambda p: p.update(answers="red"), "field answers holds 'red', not a list of strings"),
        (lambda p: p["answers"].append(3), "field answers holds ['red', 'green', 'blue', "
         "'yes', 'no', '0', '1', '2', 3], not a list of strings"),
        (lambda p: p.update(checkpoint=1), "field checkpoint holds 1, not a string"),
        (lambda p: p.update(data_dir=False), "field data_dir holds False, not a string"),
        (lambda p: p.update(precision={}), "field precision holds {}, not a string")])
    def test_malformed_report_entry(self, workspace, tmp_path, capsys, edit, problem):
        edited = self.edited_report(workspace, tmp_path, edit)
        err = self.refusal(tmp_path, capsys, workspace / "baseline_report.json", edited)
        assert err == f"error: evaluation report {edited}: {problem}\n"

    def test_truncated_report(self, workspace, tmp_path, capsys):
        truncated = tmp_path / "truncated.json"
        truncated.write_text((workspace / "vgqe_report.json").read_text()[:200])
        err = self.refusal(tmp_path, capsys, workspace / "baseline_report.json", truncated)
        assert err.startswith(f"error: evaluation report {truncated}: malformed JSON (")


def test_unknown_flag_nonzero():
    assert run(["gen-data", "--out", "/tmp/x", "--bogus"]) != 0


def test_unknown_command_nonzero():
    assert run(["frobnicate"]) != 0
