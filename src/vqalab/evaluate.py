"""Accuracy metric, per-question-type reporting, and bias-gap summaries.

The accuracy of a prediction against a ground-truth answer list follows the
multi-annotator convention min(matching annotators / 3, 1). Synthetic examples
carry a single ground truth, which counts as three matching annotators when it
equals the prediction, so scores stay in {0, 1}.

Reports are built purely from stored (example, ground truth, prediction)
records, so they can be regenerated without re-running a model. Histograms in
the report are complete (each sums to 1); display-side CSVs truncate to the
top-8 answers per type for readability.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .data import DatasetSplit, SyntheticDataset, read_json_object
from .model import ModelParams, forward_batch
from .train import length_bucketed_batches, stack_batch


def vqa_accuracy(prediction: int, ground_truth) -> float:
    """min(#annotators matching the prediction / 3, 1); single-annotator
    examples count as three matches when equal."""
    gts = list(ground_truth)
    if not gts:
        raise ValueError("ground truth answer list must be non-empty")
    matches = sum(1 for g in gts if g == prediction)
    if len(gts) == 1:
        matches *= 3
    return min(matches / 3.0, 1.0)


@dataclass
class PredictionRecord:
    example_id: str
    qtype: int
    answer: int
    prediction: int


@dataclass
class TypeReport:
    name: str
    count: int
    accuracy: float
    gt_histogram: list[float]
    pred_histogram: list[float]


@dataclass
class EvalReport:
    split: str
    variant: str
    count: int
    overall: float
    per_type: dict[int, TypeReport]
    predictions: list[PredictionRecord]
    answers: list[str] = field(default_factory=list)
    checkpoint: str = ""
    data_dir: str = ""
    precision: str = ""           # dtype of the parameters the predictions came from

    def type_weighted_mean(self) -> float:
        total = sum(tr.count for tr in self.per_type.values())
        return sum(tr.count * tr.accuracy for tr in self.per_type.values()) / total


def predict_split(params: ModelParams, split: DatasetSplit,
                  batch_size: int = 256) -> list[int]:
    """Deterministic predictions for every example, original order."""
    preds = np.zeros(len(split), dtype=int)
    for batch in length_bucketed_batches(split, batch_size, rng=None):
        visual, labels, tokens, _ = stack_batch(split, batch)
        logits = forward_batch(params, visual, labels, tokens, training=False)
        preds[batch] = logits.data.argmax(axis=1)
    return [int(p) for p in preds]


def summarize_predictions(records: list[PredictionRecord], answer_count: int,
                          type_names: dict[int, str], split: str = "",
                          variant: str = "") -> EvalReport:
    """Aggregate stored predictions into overall/per-type accuracy tables and
    normalized answer histograms."""
    if not records:
        raise ValueError("cannot summarize an empty prediction list")
    by_type: dict[int, list[PredictionRecord]] = {}
    for rec in records:
        by_type.setdefault(rec.qtype, []).append(rec)
    per_type = {}
    for qtype in sorted(by_type):
        rows = by_type[qtype]
        gt_hist = np.zeros(answer_count)
        pred_hist = np.zeros(answer_count)
        acc = 0.0
        for rec in rows:
            gt_hist[rec.answer] += 1
            pred_hist[rec.prediction] += 1
            acc += vqa_accuracy(rec.prediction, [rec.answer])
        per_type[qtype] = TypeReport(
            name=type_names.get(qtype, str(qtype)),
            count=len(rows),
            accuracy=acc / len(rows),
            gt_histogram=(gt_hist / len(rows)).tolist(),
            pred_histogram=(pred_hist / len(rows)).tolist(),
        )
    overall = sum(vqa_accuracy(r.prediction, [r.answer]) for r in records) / len(records)
    return EvalReport(split=split, variant=variant, count=len(records),
                      overall=overall, per_type=per_type, predictions=records)


def evaluate_split(params: ModelParams, split: DatasetSplit,
                   ds: SyntheticDataset, batch_size: int = 256) -> EvalReport:
    """Run the model over a split (dropout off) and summarize."""
    if not len(split):
        raise ValueError("cannot evaluate an empty split")
    preds = predict_split(params, split, batch_size)
    records = [PredictionRecord(example_id=i, qtype=q, answer=a, prediction=p)
               for i, q, a, p in zip(split.ids, split.qtypes.tolist(),
                                     split.answers.tolist(), preds)]
    report = summarize_predictions(records, ds.vocab.answer_count,
                                   ds.type_names(), split=split.name,
                                   variant=params.config.variant)
    report.answers = list(ds.vocab.answers)
    report.precision = params.flat.dtype.name
    return report


def bias_gap(report_iid: EvalReport, report_ood: EvalReport) -> float:
    """In-distribution minus out-of-distribution overall accuracy."""
    return report_iid.overall - report_ood.overall


def constant_majority_floor(train_split: DatasetSplit, eval_split: DatasetSplit) -> float:
    """Accuracy of always answering each type's train-majority answer (the
    smallest answer id among tied counts), computed by counting (the
    prior-exploitation baseline)."""
    correct = 0
    for qtype in np.unique(train_split.qtypes):
        majority = np.argmax(np.bincount(train_split.answers[train_split.qtypes == qtype]))
        correct += np.count_nonzero(eval_split.answers[eval_split.qtypes == qtype] == majority)
    return correct / len(eval_split)


# ---------------------------------------------------------------------------
# report files


def report_to_json(report: EvalReport, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "split": report.split,
        "variant": report.variant,
        "count": report.count,
        "overall": report.overall,
        "answers": report.answers,
        "checkpoint": report.checkpoint,
        "data_dir": report.data_dir,
        "precision": report.precision,
        # vars(): a record's fields as they are, without asdict's deep copy
        "per_type": {str(qt): vars(tr) for qt, tr in report.per_type.items()},
        "predictions": [vars(r) for r in report.predictions],
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=1) + "\n")


def _entry(path: Path, what: str, cls, values):
    """cls(**values) for a JSON object holding exactly cls's fields; a
    ValueError naming the file and the entry otherwise."""
    if type(values) is not dict:
        raise ValueError(f"evaluation report {path}: {what} is not a JSON object")
    known = {f.name for f in fields(cls)}
    problems = [f"missing field {k}" for k in sorted(known - set(values))]
    problems += [f"unknown field {k}" for k in sorted(set(values) - known)]
    if problems:
        raise ValueError(f"evaluation report {path}: {what} has " + ", ".join(problems))
    return cls(**values)


def report_from_json(path) -> EvalReport:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"evaluation report not found: {path}")
    payload = read_json_object(path, "evaluation report", ("split", "variant", "count",
                                                            "overall", "per_type",
                                                            "predictions"))
    if type(payload["per_type"]) is not dict or type(payload["predictions"]) is not list:
        raise ValueError(f"evaluation report {path}: 'per_type' is not a JSON object or "
                         "'predictions' is not a list")
    for qt in payload["per_type"]:
        if not qt.isdigit():
            raise ValueError(f"evaluation report {path}: per_type key {qt!r} is not a "
                             "question type id")
    per_type = {int(qt): _entry(path, f"per_type entry {qt!r}", TypeReport, tr)
                for qt, tr in payload["per_type"].items()}
    predictions = [_entry(path, f"prediction {i}", PredictionRecord, r)
                   for i, r in enumerate(payload["predictions"])]
    return EvalReport(split=payload["split"], variant=payload["variant"],
                      count=payload["count"], overall=payload["overall"],
                      per_type=per_type, predictions=predictions,
                      answers=payload.get("answers", []),
                      checkpoint=payload.get("checkpoint", ""),
                      data_dir=payload.get("data_dir", ""),
                      precision=payload.get("precision", ""))


def comparison_csv(baseline: EvalReport, vgqe: EvalReport, path) -> None:
    """Side-by-side per-type accuracy table, overall row last."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    types = sorted(set(baseline.per_type) | set(vgqe.per_type))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["question_type", "n", "baseline", "vgqe"])
        for qt in types:
            b = baseline.per_type.get(qt)
            v = vgqe.per_type.get(qt)
            name = (b or v).name
            n = (b.count if b else 0) + (0 if b else v.count)
            writer.writerow([name, n,
                             "" if b is None else repr(b.accuracy),
                             "" if v is None else repr(v.accuracy)])
        writer.writerow(["overall", baseline.count,
                         repr(baseline.overall), repr(vgqe.overall)])


def histograms_csv(reports: dict[str, EvalReport], train_hists: dict[int, np.ndarray],
                   answers: list[str], type_names: dict[int, str], path,
                   top: int = 8) -> None:
    """Long-format answer-distribution table: one row per (type, answer) with
    the train prior, the evaluated split's ground truth, and each model's
    prediction mass. Rows truncate to the top answers per type; the complete
    histograms live in the report JSONs.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    sources = list(reports)
    first = reports[sources[0]]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["question_type", "answer", "train_gt", "split_gt"]
                        + [f"{s}_pred" for s in sources])
        for qt in sorted(train_hists):
            train_hist = np.asarray(train_hists[qt])
            gt_hist = (np.asarray(first.per_type[qt].gt_histogram)
                       if qt in first.per_type else np.zeros_like(train_hist))
            mass = train_hist + gt_hist
            for a in np.argsort(-mass)[:top]:
                if mass[a] == 0:
                    continue
                row = [type_names.get(qt, str(qt)), answers[a],
                       repr(float(train_hist[a])), repr(float(gt_hist[a]))]
                for s in sources:
                    tr = reports[s].per_type.get(qt)
                    row.append("" if tr is None else repr(float(tr.pred_histogram[a])))
                writer.writerow(row)
