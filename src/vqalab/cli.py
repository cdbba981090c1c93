"""Command-line entry points tying generation, training, evaluation,
gradient checking, and reporting into reproducible runs.

Configuration files are JSON with optional "data", "model", and "train"
sections; command-line flags override file values, and every run writes the
effective merged configuration back to disk so each artifact can be
regenerated from its manifest.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from .data import (DataConfig, generate_dataset, load_dataset, save_dataset)
from .evaluate import (comparison_csv, evaluate_split, histograms_csv,
                       report_from_json, report_to_json)
from .gradcheck import CHECKS, run_all
from .grounding import encode_question_vgqe, trace_records
from .model import (ModelConfig, count_parameters, init_model, load_checkpoint,
                    save_checkpoint)
from .tensor import using_dtype
from .train import TrainConfig, train, write_training_log

SPLITS = ("train", "test", "test_iid")


class CliError(Exception):
    pass


def sha256_of(path: Path) -> str:
    digest = hashlib.sha256()
    digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise CliError(f"config file not found: {p}")
    with open(p) as fh:
        return json.load(fh)


def merge_section(cls, section: dict, overrides: dict):
    """Dataclass defaults <- config file section <- explicit flags."""
    values = dict(section)
    values.update({k: v for k, v in overrides.items() if v is not None})
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(values) - known
    if unknown:
        raise CliError(f"unknown {cls.__name__} fields: {sorted(unknown)}")
    return cls(**values)


def write_manifest(out_dir: Path, payload: dict) -> None:
    with open(out_dir / "run_manifest.json", "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_data(args) -> int:
    section = load_config_file(args.config).get("data", {})
    overrides = {"seed": args.seed, "n_train": args.n_train, "n_test": args.n_test}
    config = merge_section(DataConfig, section, overrides)
    out_dir = Path(args.out)
    ds = generate_dataset(config)
    save_dataset(ds, out_dir)
    artifacts = {name: sha256_of(out_dir / name)
                 for name in ("train.jsonl", "test.jsonl", "test_iid.jsonl",
                              "manifest.json")}
    write_manifest(out_dir, {
        "command": "gen-data",
        "config": {"data": dataclasses.asdict(config)},
        "seed": config.seed,
        "artifacts": artifacts,
    })
    print(f"wrote {len(ds.train)} train / {len(ds.test)} test / "
          f"{len(ds.test_iid)} iid examples to {out_dir}")
    return 0


def model_config_for(ds, variant: str, seed: int, section: dict) -> ModelConfig:
    base = {
        "variant": variant,
        "seed": seed,
        "d_v": ds.config.d_v,
        "d_w": ds.config.d_w,
        "answer_count": ds.vocab.answer_count,
        "vocab_size": len(ds.vocab.tokens),
    }
    merged = dict(section)
    merged.update(base)
    return merge_section(ModelConfig, merged, {})


def cmd_train(args) -> int:
    file_cfg = load_config_file(args.config)
    data_dir = Path(args.data)
    ds = load_dataset(data_dir)
    model_cfg = model_config_for(ds, args.variant, args.seed,
                                 file_cfg.get("model", {}))
    overrides = {"epochs": args.epochs, "batch_size": args.batch_size,
                 "seed": args.seed}
    train_cfg = merge_section(TrainConfig, file_cfg.get("train", {}), overrides)
    if args.base_lr is not None:
        train_cfg.schedule.base_lr = args.base_lr

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with using_dtype(np.float32 if args.precision == "float32" else np.float64):
        params = init_model(model_cfg, embedding_vectors=ds.vocab.embedding)
        params, log = train(params, ds.train, train_cfg)
        ckpt_path = out_dir / "checkpoint.json"
        save_checkpoint(params, ckpt_path)
    write_training_log(log, out_dir / "training_log.csv")
    write_manifest(out_dir, {
        "command": "train",
        "config": {
            "model": dataclasses.asdict(model_cfg),
            "train": dataclasses.asdict(train_cfg),
        },
        "seed": args.seed,
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
    ckpt_path = Path(args.checkpoint)
    if not ckpt_path.exists():
        raise CliError(f"checkpoint not found: {ckpt_path}")
    if args.split not in SPLITS:
        raise CliError(f"unknown split {args.split!r}; choose from {SPLITS}")
    ds = load_dataset(Path(args.data))
    params = load_checkpoint(ckpt_path)
    split = ds.splits()[args.split]
    report = evaluate_split(params, split, ds)
    report.checkpoint = args.checkpoint
    report.data_dir = args.data
    report_to_json(report, Path(args.report))
    print(f"{params.config.variant} on {args.split}: overall accuracy "
          f"{report.overall:.4f} over {report.count} examples "
          f"-> {args.report}")
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
              f"tol {r.tolerance:.0e} {status}")
    by_module: dict[str, float] = {}
    for r in results:
        by_module[r.module] = max(by_module.get(r.module, 0.0), r.max_rel_error)
    for module, worst in by_module.items():
        print(f"{module}: max relative error {worst:.3e}")
    return 1 if failed else 0


def cmd_report(args) -> int:
    baseline = report_from_json(Path(args.baseline))
    vgqe = report_from_json(Path(args.vgqe))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    data_dir = Path(vgqe.data_dir or baseline.data_dir)
    if not (data_dir / "manifest.json").exists():
        raise CliError(f"dataset behind the reports not found: {data_dir}")
    with open(data_dir / "manifest.json") as fh:
        manifest = json.load(fh)
    type_names = {int(k): v for k, v in manifest["type_names"].items()}
    train_hists = {int(k): np.asarray(v)
                   for k, v in manifest["histograms"]["train"].items()}
    answers = manifest["vocabularies"]["answers"]

    comparison_csv(baseline, vgqe, out_dir / "comparison.csv")
    histograms_csv({"baseline": baseline, "vgqe": vgqe}, train_hists, answers,
                   type_names, out_dir / "histograms.csv")

    traces = []
    if vgqe.checkpoint:
        ckpt_path = Path(vgqe.checkpoint)
        if not ckpt_path.exists():
            raise CliError(f"checkpoint referenced by the report not found: {ckpt_path}")
        params = load_checkpoint(ckpt_path)
        if params.config.variant == "vgqe":
            ds = load_dataset(data_dir)
            split = ds.splits()[vgqe.split]
            rng = np.random.default_rng(np.random.SeedSequence([args.trace_seed]))
            chosen = rng.choice(len(split.examples),
                                size=min(args.traces, len(split.examples)),
                                replace=False)
            from . import tensor as T
            with T.no_grad():
                for idx in sorted(int(i) for i in chosen):
                    ex = split.examples[idx]
                    _, trace = encode_question_vgqe(ex.visual_matrix(), ex.label_matrix(),
                                                    ex.tokens, params.embedding,
                                                    params.vgqe_params())
                    traces.extend(trace_records(ex.example_id, trace))
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
    p.add_argument("--seed", type=int, default=0)
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
    p.add_argument("--traces", type=int, default=8,
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
    except (CliError, FileNotFoundError, ValueError, KeyError, IndexError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())
