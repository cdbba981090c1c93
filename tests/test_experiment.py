"""The bias-shift summary, read from a hand-built result."""

import pytest

from vqalab.experiment import ExperimentResult, VariantOutcome


def result(base_ood, vgqe_ood):
    return ExperimentResult(
        outcomes={"baseline": VariantOutcome(iid=[0.9] * len(base_ood), ood=base_ood),
                  "vgqe": VariantOutcome(iid=[0.95] * len(vgqe_ood), ood=vgqe_ood)},
        floor_iid=0.8, floor_ood=0.1, seconds=12.0)


def test_summary_prints_the_per_seed_ood_gap_range():
    # seed-paired gaps of +30, +10 and -5 points around a +10 gap of medians
    res = result([0.20, 0.40, 0.50], [0.50, 0.50, 0.45])
    assert res.ood_gaps == pytest.approx([0.30, 0.10, -0.05])
    assert res.summary_lines() == [
        "constant-majority floor: iid 0.800, ood 0.100",
        "baseline median: iid 0.900, ood 0.400",
        "vgqe     median: iid 0.950, ood 0.500",
        "out-of-distribution gap: +10.0 points",
        "per-seed ood gap:        min -5.0, max +30.0 points",
        "in-distribution delta:   +5.0 points",
        "wall time: 12s",
    ]


def test_gaps_pair_the_same_seed():
    with pytest.raises(ValueError):
        result([0.2, 0.4], [0.5]).ood_gaps
