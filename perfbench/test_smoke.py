"""Fast smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer as tr  # noqa: E402

SPEC = run.bench_spec()
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


@pytest.fixture(scope="module")
def pkg():
    return run.Pkg()


def test_spec_follows_the_format():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert list(SPEC["paths"]) == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60 and isinstance(SPEC["run_seconds"], int)
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    names = [w["name"] for w in SPEC["workloads"]]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in SPEC["end_to_end"])} in SPEC["end_to_end"]
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME_RE.match(m["name"]) and UNIT_RE.match(m["unit"])
        assert m["better"] in ("higher", "lower")
        names.append(m["name"])
    assert len(names) == len(set(names))


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(pkg, workload):
    result, detail = run.run_workload(pkg, workload, seed=3, seconds=0.5, trace=False,
                                      sizes=run.TINY)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert detail["errors"] == []
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for value in result["metrics"].values():
        assert math.isfinite(value["value"]) and value["value"] > 0
    assert detail["machine"]["dtype"] == "float64"
    assert detail["machine"]["blas_threads"]["OPENBLAS_NUM_THREADS"] == run.BLAS_THREADS


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(pkg, workload):
    result, detail = run.run_workload(pkg, workload, seed=3, seconds=1.0, trace=True,
                                      sizes=run.TINY)
    assert result["correct"] and result["failed"] == 0
    assert detail["missing_bindings"] == [] and detail["missing_metrics"] == []
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(math.isfinite(v) for v in values.values())
    grounding = [k for k in values if k.startswith("grounding.")]
    if workload == "train-baseline":
        assert all(values[k] == 0 for k in grounding)
    if workload == "train-vgqe":
        assert all(values[k] > 0 for k in grounding)
    if workload == "eval-cli":
        assert values["train.adamw_ms"] == 0 and values["tensor.backward_ms"] == 0
        assert values["data.load_s"] > 0 and values["cli.report_traces_ms"] > 0
    else:
        assert values["tensor.tape_records_per_step"] > 0 and values["train.step_ms.p50"] > 0


def _tiny_train(pkg, variant="vgqe"):
    ds = pkg.data.generate_dataset(pkg.data.DataConfig(seed=4, n_train=200, n_test=20))
    cfg = run.model_config(pkg, ds, variant, 4)
    params = pkg.model.init_model(cfg, embedding_vectors=ds.vocab.embedding)
    recipe = pkg.experiment.experiment_train_config(4, epochs=1)
    return pkg.train.train(params, ds.train, recipe)


def test_self_times_within_a_step_sum_to_at_most_its_wall_time(pkg):
    tracer = tr.Tracer()
    with tracer.installed():
        _tiny_train(pkg)
    own = tracer.self_times()
    steps = [i for i, s in enumerate(tracer.spans) if s[tr.NAME] == tr.STEP]
    assert steps
    for step in steps:
        inside = [i for i in range(len(tracer.spans))
                  if i == step or _descends(tracer, i, step)]
        assert len(inside) > 5
        wall = tracer.spans[step][tr.END] - tracer.spans[step][tr.START]
        assert all(own[i] >= -1e-9 for i in inside)
        assert sum(own[i] for i in inside) <= wall + 1e-9


def _descends(tracer, index, ancestor):
    parent = tracer.spans[index][tr.PARENT]
    while parent >= 0:
        if parent == ancestor:
            return True
        parent = tracer.spans[parent][tr.PARENT]
    return False


def test_originals_restored_and_missing_binding_reported(pkg, monkeypatch):
    originals = {b: getattr(__import__(b.split(":")[0], fromlist=["_"]), b.split(":")[1])
                 for bindings in tr.BINDINGS.values() for b in bindings}
    monkeypatch.setitem(tr.BINDINGS, "grounding.vgw_attention",
                        ("vqalab.grounding:vgw_attention_removed",))
    tracer = tr.Tracer()
    with tracer.installed():
        _tiny_train(pkg)
    assert tracer.missing_bindings == ["vqalab.grounding:vgw_attention_removed"]
    assert run.missing_metrics(tracer, ["grounding.vgw_attention_ms", "encoder.gru_cell_ms"]) \
        == ["grounding.vgw_attention_ms"]
    for binding, original in originals.items():
        module, attr = binding.split(":")
        assert getattr(sys.modules[module], attr) is original


def test_a_training_run_whose_loss_does_not_fall_is_counted_failed(pkg, monkeypatch):
    original = pkg.train.train

    def flat_loss(*args, **kwargs):
        params, log = original(*args, **kwargs)
        log[-1].mean_loss = log[0].mean_loss
        return params, log

    monkeypatch.setattr(pkg.train, "train", flat_loss)
    result, detail = run.run_workload(pkg, "train-baseline", seed=3, seconds=0.2,
                                      trace=False, sizes=run.TINY)
    assert not result["correct"] and result["failed"] > 0
    assert "not decreasing" in detail["errors"][0]


def test_fails_without_the_package(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "eval-cli",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    with pytest.raises(json.JSONDecodeError):
        json.loads(last[0])
