"""Command-line entry points tying generation, training, evaluation,
gradient checking, and reporting into reproducible runs.

Configuration files are JSON with optional "data", "model", and "train"
sections and no others; a command-line flag that is given overrides the
file's value, and every run writes the effective merged configuration back
to disk so each artifact can be regenerated from its manifest.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import grounding
from .data import (SPLITS, ConfigError, DataConfig, build_config, config_section, digest_file,
                   generate_dataset, load_dataset, load_manifest, read_json_object,
                   save_dataset)
from .encoder import embed
from .evaluate import (comparison_csv, evaluate_split, histograms_csv,
                       report_from_json, report_to_json)
from .gradcheck import CHECKS, TOLERANCE, run_all
# encode_question_vgqe is not called here; the name stays bound because
# perfbench/tracer.py wraps it at vqalab.cli:encode_question_vgqe.
from .grounding import encode_question_vgqe, trace_records  # noqa: F401
from .model import (ModelConfig, count_parameters, init_model, load_checkpoint,
                    save_checkpoint)
from .tensor import using_dtype
from .train import TrainConfig, TrainingDiverged, train, write_training_log


class CliError(Exception):
    pass


def sha256_of(path: Path) -> str:
    return digest_file(hashlib.sha256(), path).hexdigest()


def load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    config = read_json_object(Path(path), "config file")
    for key in config:
        if key not in ("data", "model", "train"):
            raise CliError(f"config file {path}: unknown section {key!r}; the sections are "
                           "'data', 'model' and 'train'")
    return config


def output_path(path: str, what: str, directory: bool) -> Path:
    """`path` as a Path; CliError if it exists and is not a `directory` (or is one, for a
    file), or if the nearest of its parents that exists is not a directory."""
    path = Path(path)
    existing = next(p for p in (path, *path.parents) if p.exists())
    if existing == path and path.is_dir() != directory:
        raise CliError(f"{what} {path} exists and is {'not ' if directory else ''}a directory")
    if existing != path and not existing.is_dir():
        raise CliError(f"{what} {path} is under {existing}, which is not a directory")
    return path


def write_manifest(out_dir: Path, payload: dict) -> None:
    with open(out_dir / "run_manifest.json", "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_data(args) -> int:
    config = build_config(DataConfig, load_config_file(args.config).get("data", {}), "data",
                          overrides={k: getattr(args, k) for k in ("seed", "n_train", "n_test")})
    out_dir = output_path(args.out, "output directory", directory=True)
    ds = generate_dataset(config)
    write_manifest(out_dir, {
        "command": "gen-data",
        "config": {"data": dataclasses.asdict(config)},
        "seed": config.seed,
        "artifacts": save_dataset(ds, out_dir),
    })
    print(f"wrote {len(ds.train)} train / {len(ds.test)} test / "
          f"{len(ds.test_iid)} iid examples to {out_dir}")
    return 0


def cmd_train(args) -> int:
    file_cfg = load_config_file(args.config)
    # a refused train section fails before a dataset load can write a split cache
    train_cfg = build_config(TrainConfig, file_cfg.get("train", {}), "train", overrides={
        "epochs": args.epochs, "batch_size": args.batch_size, "seed": args.seed,
        "schedule": {"base_lr": args.base_lr}})
    data_dir = Path(args.data)
    ds = load_dataset(data_dir, splits=("train",))
    # the dataset and --variant decide these; a config file may only repeat them
    decided = {"variant": args.variant, "d_v": ds.config.d_v, "d_w": ds.config.d_w,
               "answer_count": ds.vocab.answer_count, "vocab_size": len(ds.vocab.tokens)}
    section = file_cfg.get("model", {})
    for name, value in decided.items():   # a conflict, named before the build's type errors
        if type(section) is dict and name in section \
                and (type(section[name]), section[name]) != (type(value), value):
            raise CliError(f"model.{name} is {section[name]!r} in the config file, but "
                           f"{'--variant' if name == 'variant' else 'the dataset'} gives {value!r}")
    model_cfg = build_config(ModelConfig, section, "model",
                             overrides={**decided, "seed": args.seed})

    out_dir = output_path(args.out, "run directory", directory=True)
    with using_dtype(np.float32 if args.precision == "float32" else np.float64):
        with config_section("model"):
            params = init_model(model_cfg, embedding_vectors=ds.vocab.embedding)
        # a diverged run writes nothing
        params, log = train(params, ds.train, train_cfg)
        out_dir.mkdir(parents=True, exist_ok=True)
        ckpt_path = out_dir / "checkpoint.json"
        save_checkpoint(params, ckpt_path)
    write_training_log(log, out_dir / "training_log.csv")
    write_manifest(out_dir, {
        "command": "train",
        "config": {
            "model": dataclasses.asdict(model_cfg),
            "train": dataclasses.asdict(train_cfg),
        },
        "seed": train_cfg.seed,
        "precision": args.precision,
        "data_dir": str(data_dir),
        "trainable_parameters": count_parameters(params),
        "artifacts": {
            "checkpoint.json": sha256_of(ckpt_path),
            "checkpoint.json.bin": sha256_of(out_dir / "checkpoint.json.bin"),
        },
    })
    print(f"trained {args.variant} ({count_parameters(params)} parameters) "
          f"for {train_cfg.epochs} epochs; final loss {log[-1].mean_loss:.4f}, "
          f"train accuracy {log[-1].accuracy:.3f}")
    return 0


def cmd_eval(args) -> int:
    report_path = output_path(args.report, "report", directory=False)
    params = load_checkpoint(Path(args.checkpoint))
    ds = load_dataset(Path(args.data), splits=(args.split,))
    with using_dtype(params.flat.dtype.type):
        report = evaluate_split(params, ds.split(args.split), ds)
    report.checkpoint = args.checkpoint
    report.data_dir = args.data
    report_to_json(report, report_path)
    print(f"{params.config.variant} on {args.split}: overall accuracy "
          f"{report.overall:.4f} over {report.count} examples "
          f"in {report.precision} -> {args.report}")
    return 0


def cmd_gradcheck(args) -> int:
    modules = [args.module] if args.module else None
    try:
        results = run_all(modules)
    except KeyError as err:
        raise CliError(str(err)) from err
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.module:12s} {r.name:24s} max_rel_error {r.max_rel_error:.3e} "
              f"tol {TOLERANCE:.0e} {status}")
    by_module: dict[str, float] = {}
    for r in results:
        by_module[r.module] = max(by_module.get(r.module, 0.0), r.max_rel_error)
    for module, worst in by_module.items():
        print(f"{module}: max relative error {worst:.3e}")
    return 1 if failed else 0


def cmd_report(args) -> int:
    out_dir = output_path(args.out, "output directory", directory=True)
    baseline = report_from_json(Path(args.baseline))
    vgqe = report_from_json(Path(args.vgqe))
    pair = f"reports {args.baseline} (--baseline) and {args.vgqe} (--vgqe)"
    if (baseline.variant, vgqe.variant) != ("baseline", "vgqe"):
        raise CliError(f"{pair} hold variants {baseline.variant!r} and {vgqe.variant!r}, "
                       "expected 'baseline' and 'vgqe'")
    if baseline.split != vgqe.split:
        raise CliError(f"{pair} evaluate different splits, {baseline.split!r} and "
                       f"{vgqe.split!r}")
    if [r.example_id for r in baseline.predictions] != \
            [r.example_id for r in vgqe.predictions]:
        raise CliError(f"{pair} predict different example ids")
    if not (baseline.data_dir and vgqe.data_dir
            and Path(baseline.data_dir).resolve() == Path(vgqe.data_dir).resolve()):
        raise CliError(f"{pair} do not name one dataset directory: {baseline.data_dir!r} "
                       f"and {vgqe.data_dir!r}")

    data_dir = Path(vgqe.data_dir)
    manifest = load_manifest(data_dir)
    answers, type_names = manifest.vocabularies.answers, manifest.type_names
    for flag, report in (("baseline", baseline), ("vgqe", vgqe)):
        where = f"evaluation report {getattr(args, flag)}:"
        if report.answers != answers:
            raise ConfigError(f"{where} answers", f"are {report.answers}, but the dataset's "
                              f"in {data_dir} are {answers}")
        for qt, tr in report.per_type.items():
            if tr.name != type_names.get(qt):
                raise ConfigError(f"{where} per_type.{qt}.name", f"is {tr.name!r}, but the "
                                  f"dataset in {data_dir} names it {type_names.get(qt)!r}")

    traces = []
    if vgqe.checkpoint:
        ckpt_path = Path(vgqe.checkpoint)
        params = load_checkpoint(ckpt_path)
        if params.config.variant != "vgqe":
            raise CliError(f"checkpoint {ckpt_path} behind vgqe report {args.vgqe} holds "
                           f"a {params.config.variant} model")
        split = load_dataset(data_dir, (vgqe.split,), manifest).split(vgqe.split)
        rng = np.random.default_rng(np.random.SeedSequence([args.trace_seed]))
        chosen = rng.choice(len(split), size=min(args.traces, len(split)), replace=False)
        # the grounding attention alone: the encoder's recurrence and fusion
        # never touch the weights a trace records
        with using_dtype(params.flat.dtype.type):
            column = params.vgw.score_column()
            for idx in sorted(int(i) for i in chosen):
                words = embed(split.tokens[idx, :split.lengths[idx]], params.embedding)
                weights, _ = grounding.vgw_attention(split.labels[idx, None], words, column,
                                                     split.visual[idx, None])
                traces.append(trace_records(split.ids[idx], weights.data))

    out_dir.mkdir(parents=True, exist_ok=True)
    comparison_csv(baseline, vgqe, out_dir / "comparison.csv")
    histograms_csv({"baseline": baseline, "vgqe": vgqe}, manifest.histograms.train, answers,
                   type_names, out_dir / "histograms.csv")
    with open(out_dir / "traces.json", "w") as fh:
        json.dump(traces, fh, sort_keys=True, indent=1)
        fh.write("\n")

    write_manifest(out_dir, {
        "command": "report",
        "inputs": {"baseline": args.baseline, "vgqe": args.vgqe},
        "artifacts": {name: sha256_of(out_dir / name)
                      for name in ("comparison.csv", "histograms.csv", "traces.json")},
    })
    print(f"report written to {out_dir} (baseline {baseline.overall:.4f} vs "
          f"vgqe {vgqe.overall:.4f} on {vgqe.split})")
    return 0


# ---------------------------------------------------------------------------


def count(text: str) -> int:
    """A count flag's value: an integer, zero or more."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative; give a count of 0 or more")
    return value


@functools.cache  # parse_args leaves the parser as it was, so one serves every run()
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vqalab",
        description="Desk-scale VQA lab: synthetic changing-priors data, "
                    "grounded question encoding, training and reporting.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate the synthetic dataset")
    p.add_argument("--config", help="JSON config file with a 'data' section")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int)
    p.add_argument("--n-train", dest="n_train", type=int)
    p.add_argument("--n-test", dest="n_test", type=int)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train one model variant")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--variant", required=True, choices=("baseline", "vgqe"))
    p.add_argument("--seed", type=int,
                   help="model and train seed (default: each section's own, else 0)")
    p.add_argument("--out", required=True, help="run directory")
    p.add_argument("--config", help="JSON config file ('model'/'train' sections)")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--base-lr", dest="base_lr", type=float)
    p.add_argument("--precision", choices=("float64", "float32"), default="float64")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on one split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test", choices=SPLITS)
    p.add_argument("--report", required=True, help="output report JSON path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p.add_argument("--module", choices=sorted(CHECKS), help="restrict to one module")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("report", help="side-by-side comparison artifacts")
    p.add_argument("--baseline", required=True, help="baseline eval report JSON")
    p.add_argument("--vgqe", required=True, help="vgqe eval report JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--traces", type=count, default=8,
                   help="number of questions to trace")
    p.add_argument("--trace-seed", dest="trace_seed", type=int, default=0)
    p.set_defaults(func=cmd_report)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code or 0)
    try:
        return args.func(args)
    except (CliError, FileNotFoundError, ValueError, KeyError, IndexError,
            TrainingDiverged) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())
