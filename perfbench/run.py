#!/usr/bin/env python3
"""vqalab benchmark: training per variant and the on-disk eval/report path.

    python3 perfbench/run.py --workload train-baseline --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. With ``--trace 0`` the last stdout line holds the end-to-end
metrics, with ``--trace 1`` the per-layer ones (see perfbench/README.md).
The line before it is a JSON object with machine facts, raw wall times,
sample counts and accuracies.

Wall time on a shared 2-vCPU host swings by up to 1.8x over phases of 5-25 s,
so each timed operation is divided by the duration of a fixed reference
kernel run right before and right after it. Those ratios (unit ``ref``) are
what the end-to-end timing metrics report; raw seconds are printed alongside.
"""

from __future__ import annotations

import os

# Fixed before numpy loads so that every commit runs with the same setting.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tracer import END, NAME, START, STEP, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("train-baseline", "train-vgqe", "eval-cli")
VARIANTS = ("baseline", "vgqe")
EVAL_SPLITS = ("test", "test_iid")


@dataclass(frozen=True)
class Sizes:
    train_n: int            # train-* training split
    train_test_n: int       # train-* test and test_iid splits
    train_epochs: int       # epochs per training trial (experiment recipe otherwise)
    cli_n: int              # eval-cli training split
    cli_test_n: int         # eval-cli test and test_iid splits
    setup_repeats: int


FULL = Sizes(train_n=4000, train_test_n=1000, train_epochs=2,
             cli_n=1000, cli_test_n=500, setup_repeats=3)
TINY = Sizes(train_n=300, train_test_n=60, train_epochs=2,
             cli_n=120, cli_test_n=40, setup_repeats=1)

# tape op names reported one by one; any other op is counted under "other"
TAPE_OPS = ("add", "sub", "mul", "scale", "matmul", "sigmoid", "tanh", "relu",
            "reshape", "concat", "narrow", "repeat_rows", "softmax", "transpose",
            "attend", "max", "mean", "rows_pick", "logsumexp_rows")


class SetupError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# package, machine facts, reference kernel


class Pkg:
    """The vqalab modules, resolved by name (``vqalab.train`` as an attribute
    of the package is the re-exported function, not the module)."""

    def __init__(self):
        sys.path.insert(0, str(SRC))
        vqalab = importlib.import_module("vqalab")
        location = Path(vqalab.__file__).resolve()
        if SRC.resolve() not in location.parents:
            raise ImportError(f"vqalab imported from {location}, not from {SRC}")
        for name in ("cli", "data", "evaluate", "experiment", "model", "tensor", "train"):
            setattr(self, name, importlib.import_module(f"vqalab.{name}"))


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "vqalab").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def machine_facts(pkg: Pkg, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "dtype": np.dtype(pkg.tensor.get_default_dtype()).name,
        "seed": seed,
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
    }


_REF_SMALL = (np.random.default_rng(20070619).random((32, 32)),
              np.random.default_rng(20070620).random((32, 16)))
_REF_ROWS = (np.random.default_rng(20070621).random((1024, 32)),
             np.random.default_rng(20070622).random((32, 32)))
REF_REPEATS = 5


def reference_s() -> float:
    """Median wall time of a fixed kernel: many tiny matmuls with interpreter
    work between them plus a few (1024, 32)-row ops, the mix of the package's
    tape ops. The weights were chosen so that the ratio of a timed operation
    to this kernel varied least across the host's speed phases on all three
    workloads. The median of short repeats ignores a single preemption."""
    a, b = _REF_SMALL
    x, w = _REF_ROWS
    times = []
    acc = 0.0
    for _ in range(REF_REPEATS):
        start = time.perf_counter()
        for _ in range(450):
            acc += float(np.tanh((a @ b)[0, :4]).sum())
        for _ in range(6):
            y = x @ w
            acc += float((np.tanh(y) * y).sum(axis=1)[0])
        times.append(time.perf_counter() - start)
    if not math.isfinite(acc):
        raise RuntimeError("reference kernel produced a non-finite value")
    return statistics.median(times)


# ---------------------------------------------------------------------------
# result bookkeeping


@dataclass
class Run:
    setup_s: list[float] = field(default_factory=list)
    op_ref: list[float] = field(default_factory=list)       # main op / reference
    side_ref: list[float] = field(default_factory=list)     # side op / reference
    op_s: list[float] = field(default_factory=list)         # raw wall times
    side_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    accuracy: dict = field(default_factory=dict)
    op_examples: int = 0
    side_examples: int = 0

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.errors) < 5:
            self.errors.append(message)


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def summary(values: list[float]) -> dict:
    """Median and the highest of p75/p90/p95/p99 with >= 10 samples beyond it."""
    out = {"n": len(values)}
    if not values:
        return out
    out["p50"] = statistics.median(values)
    for p in (75, 90, 95, 99):
        if len(values) * (1 - p / 100) >= 10:
            out[f"p{p}"] = float(np.percentile(values, p))
    return out


def model_config(pkg: Pkg, ds, variant: str, seed: int):
    return pkg.model.ModelConfig(variant=variant, d_v=ds.config.d_v, d_w=ds.config.d_w,
                                 answer_count=ds.vocab.answer_count,
                                 vocab_size=len(ds.vocab.tokens), seed=seed)


def span_of(tracer: Tracer | None):
    return tracer.span if tracer else (lambda name: contextlib.nullcontext())


# ---------------------------------------------------------------------------
# train-baseline / train-vgqe


def setup_train(pkg: Pkg, variant: str, seed: int, sizes: Sizes, run: Run):
    for _ in range(sizes.setup_repeats):
        start = time.perf_counter()
        ds = pkg.data.generate_dataset(pkg.data.DataConfig(
            seed=seed, n_train=sizes.train_n, n_test=sizes.train_test_n))
        cfg = model_config(pkg, ds, variant, seed)
        pkg.model.init_model(cfg, embedding_vectors=ds.vocab.embedding)
        run.setup_s.append(time.perf_counter() - start)
    return ds, cfg


def train_trials(pkg: Pkg, ds, cfg, seed: int, sizes: Sizes, seconds: float,
                 run: Run, tracer: Tracer | None = None) -> None:
    """Closed loop, one caller: init, train the fixed recipe, evaluate test and
    test_iid, evaluate test again; repeat until `seconds` have passed."""
    recipe = pkg.experiment.experiment_train_config(seed, epochs=sizes.train_epochs)
    steps = sizes.train_epochs * len(pkg.train.length_bucketed_batches(
        ds.train, recipe.batch_size, None))
    span = span_of(tracer)
    run.op_examples, run.side_examples = len(ds.train), len(ds.test)
    deadline = time.perf_counter() + seconds
    while True:
        params = pkg.model.init_model(cfg, embedding_vectors=ds.vocab.embedding)
        run.attempted += steps
        r0 = reference_s()
        try:
            with span("op.train"):
                _, log = pkg.train.train(params, ds.train, recipe)
        except Exception as err:  # noqa: BLE001 - a failed op is counted, the loop goes on
            run.fail(steps, f"train raised {err!r}")
            if time.perf_counter() >= deadline:
                break
            continue
        r1 = reference_s()
        losses = [e.mean_loss for e in log]
        if not all(math.isfinite(x) for x in losses) or losses[-1] >= losses[0]:
            run.fail(steps, f"train loss not finite or not decreasing: {losses}")
        for e in log:
            run.op_s.append(e.wall_time)
            run.op_ref.append(e.wall_time / ((r0 + r1) / 2))

        reports, walls = {}, []
        for key, split in (("ood", ds.test), ("iid", ds.test_iid), ("repeat", ds.test)):
            run.attempted += 1
            try:
                with span("op.eval_pass"):
                    reports[key], wall = timed(pkg.evaluate.evaluate_split, params, split, ds)
                walls.append(wall)
            except Exception as err:  # noqa: BLE001
                run.fail(1, f"evaluate_split raised {err!r}")
        r2 = reference_s()
        for wall in walls:
            run.side_s.append(wall)
            run.side_ref.append(wall / ((r1 + r2) / 2))
        if "ood" in reports and "repeat" in reports:
            if ([p.prediction for p in reports["ood"].predictions]
                    != [p.prediction for p in reports["repeat"].predictions]):
                run.fail(1, "second evaluate_split pass gave different predictions")
        for key in ("iid", "ood"):
            if key not in reports:
                continue
            acc = reports[key].overall
            first = run.accuracy.setdefault(key, acc)
            if acc != first:
                run.fail(1, f"{key} accuracy {acc!r} differs from the first trial's {first!r}")
        if time.perf_counter() >= deadline:
            break


# ---------------------------------------------------------------------------
# eval-cli


def cli(pkg: Pkg, argv: list) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return pkg.cli.run([str(a) for a in argv])


def setup_cli(pkg: Pkg, seed: int, sizes: Sizes, work: Path, run: Run) -> Path:
    """gen-data plus one `vqalab train` checkpoint per variant, repeated."""
    for rep in range(sizes.setup_repeats):
        base = work / f"setup{rep}"
        start = time.perf_counter()
        code = cli(pkg, ["gen-data", "--out", base / "data", "--seed", seed,
                         "--n-train", sizes.cli_n, "--n-test", sizes.cli_test_n])
        if code != 0:
            raise SetupError(f"vqalab gen-data exited {code}")
        for variant in VARIANTS:
            code = cli(pkg, ["train", "--data", base / "data", "--variant", variant,
                             "--seed", seed, "--out", base / variant, "--epochs", 1])
            if code != 0:
                raise SetupError(f"vqalab train --variant {variant} exited {code}")
        run.setup_s.append(time.perf_counter() - start)
        if rep:
            shutil.rmtree(work / f"setup{rep - 1}")
    return base


def cli_reference(pkg: Pkg, base: Path) -> dict:
    """In-process evaluate_split overall accuracy per (variant, split)."""
    ds = pkg.data.load_dataset(base / "data")
    splits = ds.splits()
    expected = {}
    for variant in VARIANTS:
        params = pkg.model.load_checkpoint(base / variant / "checkpoint.json")
        for split in EVAL_SPLITS:
            expected[variant, split] = pkg.evaluate.evaluate_split(
                params, splits[split], ds).overall
    return expected


def cli_calls(pkg: Pkg, base: Path, expected: dict, seconds: float, run: Run,
              tracer: Tracer | None = None) -> None:
    """Closed loop, one caller: `vqalab eval` for both variants on test and
    test_iid, then `vqalab report` for each split; repeat until `seconds`
    have passed."""
    span = span_of(tracer)
    reports = base / "reports"
    with open(base / "data" / "test.jsonl") as fh:
        run.op_examples = run.side_examples = sum(1 for _ in fh)
    deadline = time.perf_counter() + seconds
    before = reference_s()

    def timed_call(name: str, argv: list, check) -> None:
        """One CLI call between two reference runs; `check` reads its output."""
        nonlocal before
        run.attempted += 1
        try:
            with span(name):
                code, wall = timed(cli, pkg, argv)
            problem = check(code)
        except Exception as err:  # noqa: BLE001 - a failed op is counted, the loop goes on
            run.fail(1, f"vqalab {argv[0]} raised {err!r}")
            return
        after = reference_s()
        samples_s, samples_ref = ((run.op_s, run.op_ref) if name == "cli.eval"
                                  else (run.side_s, run.side_ref))
        samples_s.append(wall)
        samples_ref.append(wall / ((before + after) / 2))
        before = after
        if problem:
            run.fail(1, problem)

    while True:
        for variant in VARIANTS:
            for split in EVAL_SPLITS:
                report = reports / f"{variant}_{split}.json"

                def check_eval(code, report=report, key=(variant, split)):
                    with open(report) as fh:
                        overall = json.load(fh)["overall"]
                    if code != 0 or overall != expected[key]:
                        return (f"vqalab eval {key}: exit {code}, overall {overall!r}, "
                                f"in-process {expected[key]!r}")
                    return None

                timed_call("cli.eval", ["eval", "--checkpoint", base / variant / "checkpoint.json",
                                        "--data", base / "data", "--split", split,
                                        "--report", report], check_eval)
        for split in EVAL_SPLITS:
            out = base / f"comparison_{split}"

            def check_report(code, out=out, split=split):
                with open(out / "comparison.csv", newline="") as fh:
                    last = list(csv.reader(fh))[-1]
                want = ["overall", repr(expected["baseline", split]),
                        repr(expected["vgqe", split])]
                if code != 0 or [last[0], last[2], last[3]] != want:
                    return (f"vqalab report {split}: exit {code}, overall row {last}, "
                            f"expected {want}")
                return None

            timed_call("cli.report", ["report", "--baseline", reports / f"baseline_{split}.json",
                                      "--vgqe", reports / f"vgqe_{split}.json", "--out", out],
                       check_report)
        if time.perf_counter() >= deadline:
            break


# ---------------------------------------------------------------------------
# per-layer metrics from a trace


def per_layer(setup: Tracer, timed_trace: Tracer, overhead: float, accuracy: dict) -> dict:
    spans = timed_trace.spans
    own = timed_trace.self_times()
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        if s[END] is not None:
            by_name.setdefault(s[NAME], []).append(i)

    def count(name):
        return len(by_name.get(name, ()))

    def self_ms(name):
        idx = by_name.get(name, ())
        return 1e3 * sum(own[i] for i in idx) / len(idx) if idx else 0.0

    def wall(name, tr=timed_trace):
        return [s[END] - s[START] for s in tr.spans if s[NAME] == name and s[END] is not None]

    def mean(values):
        return statistics.fmean(values) if values else 0.0

    def per_forward(name):
        forwards = count("model.forward")
        inside = sum(1 for i in by_name.get(name, ())
                     if timed_trace.has_ancestor(i, "model.forward"))
        return inside / forwards if forwards else 0.0

    def pct(values, p):
        return float(np.percentile(values, p)) if values else 0.0

    steps = [1e3 * w for w in wall(STEP)]
    loads = wall("data.load")
    rows = timed_trace.batch_rows
    norms = timed_trace.grad_norms
    reports = count("cli.report")
    tape_ops = timed_trace.tape_ops
    m = {
        "data.generate_s": mean(wall("data.generate", setup)),
        "data.save_s": mean(wall("data.save", setup)),
        "data.jsonl_mb": mean(setup.save_mb),
        "data.load_s": mean(loads),
        "data.load_mb_per_s": sum(timed_trace.load_mb) / sum(loads) if loads else 0.0,
        "train.stack_batch_ms": self_ms("train.stack_batch"),
        "train.batch_fill": (sum(r for r, _ in rows) / sum(c for _, c in rows)) if rows else 0.0,
        "train.step_ms.p50": pct(steps, 50),
        "train.step_ms.p95": pct(steps, 95),
        "train.loss_ms": self_ms("train.loss"),
        "train.clip_ms": self_ms("train.clip"),
        "train.adamw_ms": self_ms("train.adamw"),
        "train.clipped_step_frac": mean([float(c) for _, c in norms]),
        "train.grad_norm_p50": pct([n for n, _ in norms], 50),
        "tensor.backward_ms": self_ms("tensor.backward"),
        "tensor.tape_records_per_step": pct(timed_trace.tape_records, 50),
    }
    for op in TAPE_OPS:
        m[f"tensor.tape_ops.{op}"] = pct([c[op] for c in tape_ops], 50)
    m["tensor.tape_ops.other"] = pct(
        [sum(n for op, n in c.items() if op not in TAPE_OPS) for c in tape_ops], 50)
    m.update({
        "encoder.encode_ms": self_ms("encoder.encode"),
        "encoder.gru_cell_ms": self_ms("encoder.gru_cell"),
        "encoder.gru_cell_calls_per_step": per_forward("encoder.gru_cell"),
        "grounding.encode_ms": self_ms("grounding.encode"),
        "grounding.vgw_attention_ms": self_ms("grounding.vgw_attention"),
        "grounding.vgw_attention_calls_per_step": per_forward("grounding.vgw_attention"),
        "fusion.block_fuse_ms": self_ms("fusion.block_fuse"),
        "fusion.block_fuse_calls_per_step": per_forward("fusion.block_fuse"),
        "model.forward_ms": 1e3 * mean(wall("model.forward")),
        "model.head_ms": self_ms("model.forward"),
        "model.load_checkpoint_ms": 1e3 * mean(wall("model.load_checkpoint")),
        "model.save_checkpoint_ms": 1e3 * mean(wall("model.save_checkpoint", setup)),
        "evaluate.predict_ms": 1e3 * mean(wall("evaluate.predict")),
        "evaluate.summarize_ms": self_ms("evaluate.summarize"),
        "evaluate.report_write_ms": self_ms("evaluate.report_write"),
        "cli.report_traces_ms": (1e3 * sum(wall("cli.report_traces")) / reports
                                 if reports else 0.0),
        "trace_overhead_frac": overhead,
        "iid_acc": accuracy.get("iid", 0.0),
        "ood_acc": accuracy.get("ood", 0.0),
    })
    return m


# metric -> span names it is computed from; a metric whose spans all lost
# their bindings is reported missing rather than as zero
METRIC_SPANS = {
    "data.generate_s": ("data.generate",), "data.save_s": ("data.save",),
    "data.jsonl_mb": ("data.save",), "data.load_s": ("data.load",),
    "data.load_mb_per_s": ("data.load",), "train.stack_batch_ms": ("train.stack_batch",),
    "train.batch_fill": ("train.stack_batch",),
    "train.step_ms.p50": ("train.stack_batch", "train.zero_grads"),
    "train.step_ms.p95": ("train.stack_batch", "train.zero_grads"),
    "train.loss_ms": ("train.loss",), "train.clip_ms": ("train.clip",),
    "train.adamw_ms": ("train.adamw",), "train.clipped_step_frac": ("train.clip",),
    "train.grad_norm_p50": ("train.clip",), "tensor.backward_ms": ("tensor.backward",),
    "tensor.tape_records_per_step": ("tensor.backward",),
    "encoder.encode_ms": ("encoder.encode",), "encoder.gru_cell_ms": ("encoder.gru_cell",),
    "encoder.gru_cell_calls_per_step": ("encoder.gru_cell", "model.forward"),
    "grounding.encode_ms": ("grounding.encode",),
    "grounding.vgw_attention_ms": ("grounding.vgw_attention",),
    "grounding.vgw_attention_calls_per_step": ("grounding.vgw_attention", "model.forward"),
    "fusion.block_fuse_ms": ("fusion.block_fuse",),
    "fusion.block_fuse_calls_per_step": ("fusion.block_fuse", "model.forward"),
    "model.forward_ms": ("model.forward",), "model.head_ms": ("model.forward",),
    "model.load_checkpoint_ms": ("model.load_checkpoint",),
    "model.save_checkpoint_ms": ("model.save_checkpoint",),
    "evaluate.predict_ms": ("evaluate.predict",),
    "evaluate.summarize_ms": ("evaluate.summarize",),
    "evaluate.report_write_ms": ("evaluate.report_write",),
    "cli.report_traces_ms": ("cli.report_traces",),
}


def missing_metrics(tracer: Tracer, names) -> list[str]:
    out = []
    for metric in names:
        spans = METRIC_SPANS.get(metric)
        if metric.startswith("tensor.tape_ops."):
            spans = ("tensor.backward",)
        if spans and not all(s in tracer.wrapped_spans for s in spans):
            out.append(metric)
    return out


# ---------------------------------------------------------------------------
# driver


def bench_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def run_workload(pkg: Pkg, workload: str, seed: int, seconds: float, trace: bool,
                 sizes: Sizes = FULL) -> tuple[dict, dict]:
    """Returns (result line, detail) for one run."""
    run = Run()
    setup_trace, timed_trace = Tracer(), Tracer()
    work = WORK / f"{workload}-{os.getpid()}"
    overhead = 0.0
    try:
        with setup_trace.installed() if trace else contextlib.nullcontext():
            if workload == "eval-cli":
                work.mkdir(parents=True, exist_ok=True)
                base = setup_cli(pkg, seed, sizes, work, run)
            else:
                ds, cfg = setup_train(pkg, workload.split("-", 1)[1], seed, sizes, run)
        if workload == "eval-cli":
            expected = cli_reference(pkg, base)
            run.accuracy = {"iid": expected["vgqe", "test_iid"],
                            "ood": expected["vgqe", "test"]}

        def measure(into: Run, span_seconds: float, tracer: Tracer | None):
            if workload == "eval-cli":
                cli_calls(pkg, base, expected, span_seconds, into, tracer)
            else:
                train_trials(pkg, ds, cfg, seed, sizes, span_seconds, into, tracer)

        if trace:
            # half untraced, half traced: the ratio gives the tracing overhead
            measure(run, seconds / 2, None)
            traced = Run(accuracy=dict(run.accuracy))
            with timed_trace.installed():
                measure(traced, seconds / 2, timed_trace)
            if run.op_ref and traced.op_ref:
                overhead = statistics.median(traced.op_ref) / statistics.median(run.op_ref) - 1
            run.attempted += traced.attempted
            run.failed += traced.failed
            run.errors += traced.errors
        else:
            measure(run, seconds, None)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    spec = bench_spec()
    if trace:
        values = per_layer(setup_trace, timed_trace, overhead, run.accuracy)
        wanted = spec["per_layer"]
        missing = missing_metrics(timed_trace, [m["name"] for m in wanted])
    else:
        values = {
            "setup_s": statistics.median(run.setup_s),
            "op_ref": statistics.median(run.op_ref),
            "side_op_ref": statistics.median(run.side_ref),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        wanted = spec["end_to_end"]
        missing = []
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] not in missing}
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    detail = {
        "workload": workload, "seconds": seconds, "trace": int(trace),
        "machine": machine_facts(pkg, seed),
        "setup_s": run.setup_s,
        "op_ref": summary(run.op_ref), "side_op_ref": summary(run.side_ref),
        "op_s": summary(run.op_s), "side_op_s": summary(run.side_s),
        "op_ex_per_s": (run.op_examples / statistics.median(run.op_s)) if run.op_s else None,
        "side_op_ex_per_s": (run.side_examples / statistics.median(run.side_s))
        if run.side_s else None,
        "accuracy": run.accuracy,
        "errors": run.errors,
        "missing_bindings": sorted(set(setup_trace.missing_bindings
                                       + timed_trace.missing_bindings)),
        "missing_metrics": missing,
    }
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="'all' runs every workload in turn, one result line each")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        pkg = Pkg()
    except ImportError as err:
        print(f"perfbench: cannot import vqalab from {SRC}: {err}", file=sys.stderr)
        return 2
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            result, detail = run_workload(pkg, workload, args.seed, args.seconds,
                                          bool(args.trace))
        except (SetupError, OSError) as err:
            traceback.print_exc()
            print(f"perfbench: {workload} could not run: {err}", file=sys.stderr)
            return 2
        print(json.dumps(detail, sort_keys=True))
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
