"""Accuracy, per-question-type reporting, and report files.

Every example carries a single ground-truth answer, and a prediction scores 1
when it equals it and 0 otherwise.

Reports are built purely from stored (example, ground truth, prediction)
records, so they can be regenerated without re-running a model. Histograms in
the report are complete (each sums to 1); display-side CSVs truncate to the
top-8 answers per type for readability.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .data import ConfigError, DatasetSplit, SyntheticDataset, read_record
from .model import ModelParams, forward_batch
from .train import length_bucketed_batches, stack_batch

HISTOGRAM_TOP = 8    # answers per type in the histograms CSV


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
    normalized answer histograms.

    Every number is counted over the (qtype, answer, prediction) columns: a
    prediction scores 1 when it equals the answer and 0 otherwise, so each
    accuracy and histogram entry is a count divided by a count."""
    if not records:
        raise ValueError("cannot summarize an empty prediction list")
    columns = np.array([(r.qtype, r.answer, r.prediction) for r in records])
    if columns.dtype.kind != "i":  # a cast would truncate 1.5 and read "1" as 1
        raise ValueError(f"prediction records hold {columns.dtype} ids, not integers")
    for col, what in ((1, "answer"), (2, "prediction")):
        bad = (columns[:, col] < 0) | (columns[:, col] >= answer_count)
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"example {records[i].example_id!r}: {what} id "
                             f"{columns[i, col]} out of range for {answer_count} answers")
    qtypes, rows = np.unique(columns[:, 0], return_inverse=True)
    answers, predictions = columns[:, 1], columns[:, 2]
    correct = answers == predictions
    counts = np.bincount(rows, minlength=len(qtypes))
    hits = np.bincount(rows[correct], minlength=len(qtypes))
    # row t*A + a counts type t with answer a
    gt_hists = np.bincount(rows * answer_count + answers,
                           minlength=len(qtypes) * answer_count).reshape(-1, answer_count)
    pred_hists = np.bincount(rows * answer_count + predictions,
                             minlength=len(qtypes) * answer_count).reshape(-1, answer_count)
    per_type = {}
    for t, qtype in enumerate(qtypes.tolist()):
        n = int(counts[t])
        per_type[qtype] = TypeReport(
            name=type_names.get(qtype, str(qtype)),
            count=n,
            accuracy=int(hits[t]) / n,
            gt_histogram=(gt_hists[t] / n).tolist(),
            pred_histogram=(pred_hists[t] / n).tolist(),
        )
    overall = int(np.count_nonzero(correct)) / len(records)
    return EvalReport(split=split, variant=variant, count=len(records),
                      overall=overall, per_type=per_type, predictions=records)


def evaluate_split(params: ModelParams, split: DatasetSplit,
                   ds: SyntheticDataset) -> EvalReport:
    """Run the model over a split (dropout off) and summarize."""
    if not len(split):
        raise ValueError("cannot evaluate an empty split")
    preds = predict_split(params, split)
    records = [PredictionRecord(example_id=i, qtype=q, answer=a, prediction=p)
               for i, q, a, p in zip(split.ids, split.qtypes.tolist(),
                                     split.answers.tolist(), preds)]
    report = summarize_predictions(records, ds.vocab.answer_count,
                                   ds.type_names(), split=split.name,
                                   variant=params.config.variant)
    report.answers = list(ds.vocab.answers)
    report.precision = params.flat.dtype.name
    return report


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


# one prediction as json.dumps(..., sort_keys=True, indent=1) writes it as an
# item of the report's top-level "predictions" array
_PREDICTION = ('  {{\n   "answer": {},\n   "example_id": {},\n   "prediction": {},\n'
               '   "qtype": {}\n  }}')


def report_to_json(report: EvalReport, path) -> None:
    """Write `json.dumps(payload, sort_keys=True, indent=1)` plus a newline.

    Predictions are most of a report, so they are rendered from `_PREDICTION`,
    the id by the encoder `json.dumps` itself uses; the bytes are the same. A
    record `report_from_json` would refuse (an id that is not a str, a qtype,
    answer or prediction that is not an int) raises ValueError first."""
    records = report.predictions
    typed = [type(r.example_id) is str and type(r.qtype) is type(r.answer) is type(r.prediction)
             is int for r in records]
    if not all(typed):
        i = typed.index(False)
        raise ValueError(f"prediction {i} must have a string example_id and integer qtype, "
                         f"answer and prediction, got {records[i]!r}")
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
        "predictions": [],
    }
    text = json.dumps(payload, sort_keys=True, indent=1)
    if records:
        # a raw newline never occurs inside a JSON string, and only top-level
        # keys follow it with a single space, so this matches exactly once
        body = ",\n".join([_PREDICTION.format(r.answer, encode_basestring_ascii(r.example_id),
                                               r.prediction, r.qtype) for r in records])
        text = text.replace('\n "predictions": []', '\n "predictions": [\n' + body + "\n ]", 1)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def report_from_json(path) -> EvalReport:
    """The report in a file `report_to_json` wrote; a ConfigError names the
    file and the dotted path of the first field refused. The stored `count`,
    `overall` and `per_type` tables must be what `summarize_predictions`
    counts from the stored predictions over `len(answers)` answers."""
    where = f"evaluation report {path}:"
    report = read_record(EvalReport, path, "evaluation report", complete=False)
    try:
        counted = summarize_predictions(report.predictions, len(report.answers),
                                        {qt: tr.name for qt, tr in report.per_type.items()})
    except ValueError as err:
        raise ConfigError(f"{where} predictions", f"cannot be counted: {err}") from err
    types = sorted(counted.per_type)
    if sorted(report.per_type) != types:
        raise ConfigError(f"{where} per_type", f"holds question types {sorted(report.per_type)}, "
                          f"but the predictions give {types}")
    tables = [("count", report.count, counted.count),
              ("overall", report.overall, counted.overall)]
    tables += [(f"per_type.{qt}.{name}", getattr(report.per_type[qt], name),
                getattr(counted.per_type[qt], name))
               for qt in types for name in ("count", "accuracy", "gt_histogram", "pred_histogram")]
    for name, stored, recounted in tables:
        if stored != recounted:
            raise ConfigError(f"{where} {name}",
                              f"is {stored!r}, but the predictions give {recounted!r}")
    return report


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


def histograms_csv(reports: dict[str, EvalReport], train_hists: dict[int, list[float]],
                   answers: list[str], type_names: dict[int, str], path) -> None:
    """Long-format answer-distribution table: one row per (type, answer) with
    the train prior, the evaluated split's ground truth, and each model's
    prediction mass. Rows truncate to the HISTOGRAM_TOP answers per type; the
    complete histograms live in the report JSONs.
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
            for a in np.argsort(-mass)[:HISTOGRAM_TOP]:
                if mass[a] == 0:
                    continue
                row = [type_names.get(qt, str(qt)), answers[a],
                       repr(float(train_hist[a])), repr(float(gt_hist[a]))]
                for s in sources:
                    tr = reports[s].per_type.get(qt)
                    row.append("" if tr is None else repr(float(tr.pred_histogram[a])))
                writer.writerow(row)
