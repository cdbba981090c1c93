"""The bias-shift comparison: baseline vs grounded encoder under changing priors.

Trains both variants over several seeds on one dataset whose out-of-
distribution test split inverts the train answer priors, and summarizes
median accuracies, the out-of-distribution gap between the variants with its
range over seeds, and the constant-majority floor (the score of pure prior
exploitation).
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

from .data import SyntheticDataset
from .evaluate import constant_majority_floor, evaluate_split
from .model import ModelConfig, dataset_fields, init_model
from .train import TrainConfig, constant_schedule, train

EXPERIMENT_EPOCHS = 6
EXPERIMENT_LR = 1e-3


@dataclass
class VariantOutcome:
    iid: list[float] = field(default_factory=list)
    ood: list[float] = field(default_factory=list)

    @property
    def median_iid(self) -> float:
        return statistics.median(self.iid)

    @property
    def median_ood(self) -> float:
        return statistics.median(self.ood)


@dataclass
class ExperimentResult:
    outcomes: dict[str, VariantOutcome]
    floor_iid: float
    floor_ood: float
    seconds: float

    @property
    def ood_gap(self) -> float:
        return self.outcomes["vgqe"].median_ood - self.outcomes["baseline"].median_ood

    @property
    def iid_delta(self) -> float:
        return self.outcomes["vgqe"].median_iid - self.outcomes["baseline"].median_iid

    @property
    def ood_gaps(self) -> list[float]:
        """vgqe minus baseline out-of-distribution accuracy, seed by seed."""
        return [v - b for b, v in zip(self.outcomes["baseline"].ood,
                                      self.outcomes["vgqe"].ood, strict=True)]

    def summary_lines(self) -> list[str]:
        base, vgqe = self.outcomes["baseline"], self.outcomes["vgqe"]
        gaps = self.ood_gaps
        return [
            f"constant-majority floor: iid {self.floor_iid:.3f}, ood {self.floor_ood:.3f}",
            f"baseline median: iid {base.median_iid:.3f}, ood {base.median_ood:.3f}",
            f"vgqe     median: iid {vgqe.median_iid:.3f}, ood {vgqe.median_ood:.3f}",
            f"out-of-distribution gap: {100 * self.ood_gap:+.1f} points",
            f"per-seed ood gap:        min {100 * min(gaps):+.1f}, "
            f"max {100 * max(gaps):+.1f} points",
            f"in-distribution delta:   {100 * self.iid_delta:+.1f} points",
            f"wall time: {self.seconds:.0f}s",
        ]


def experiment_train_config(seed: int, epochs: int = EXPERIMENT_EPOCHS) -> TrainConfig:
    """Short constant-rate recipe sized for the CPU budget of the comparison."""
    return TrainConfig(epochs=epochs, batch_size=128, seed=seed,
                       schedule=constant_schedule(EXPERIMENT_LR))


def run_bias_shift(ds: SyntheticDataset, seeds=(0, 1, 2, 3, 4),
                   epochs: int = EXPERIMENT_EPOCHS) -> ExperimentResult:
    started = time.perf_counter()
    outcomes = {"baseline": VariantOutcome(), "vgqe": VariantOutcome()}
    for variant in ("baseline", "vgqe"):
        for seed in seeds:
            cfg = ModelConfig(variant=variant, seed=seed, **dataset_fields(ds))
            params = init_model(cfg, embedding_vectors=ds.vocab.embedding)
            train(params, ds.train, experiment_train_config(seed, epochs))
            iid = evaluate_split(params, ds.test_iid, ds).overall
            ood = evaluate_split(params, ds.test, ds).overall
            outcomes[variant].iid.append(iid)
            outcomes[variant].ood.append(ood)
    return ExperimentResult(
        outcomes=outcomes,
        floor_iid=constant_majority_floor(ds.train, ds.test_iid),
        floor_ood=constant_majority_floor(ds.train, ds.test),
        seconds=time.perf_counter() - started,
    )
