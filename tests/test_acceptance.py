"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criterion 5 trains ten models (two variants x five seeds) on the default
dataset and takes several minutes; everything else is fast.
"""

import hashlib
import json
import shutil
import time
from pathlib import Path

import numpy as np
import pytest

from vqalab import tensor as T
from vqalab.cli import run as cli_run
from vqalab.data import DataConfig, generate_dataset
from vqalab.encoder import embedding_table_init, encode_questions_baseline
from vqalab.evaluate import report_from_json
from vqalab.experiment import run_bias_shift
from vqalab.fusion import block_fuse, block_params_init
from vqalab.gradcheck import run_all
from vqalab.grounding import encode_questions_vgqe, vgw_attention, vgw_params_init
from vqalab.model import ModelConfig, forward_batch, init_model
from vqalab.tensor import Tensor
from vqalab.train import TrainConfig, constant_schedule, train
from vqalab.encoder import gru_params_init


def sha(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# criterion 1: gradient suite


def test_criterion_gradient_suite(criterion_output):
    started = time.perf_counter()
    results = run_all()
    elapsed = time.perf_counter() - started
    worst = max(r.max_rel_error for r in results)
    ok = all(r.passed for r in results) and elapsed < 60.0
    criterion_output.announce(ok, "criterion 1, gradient suite",
             f"max relative error {worst:.2e} over {len(results)} checks, "
             f"{elapsed:.1f}s")
    assert all(r.passed for r in results), \
        [f"{r.module}.{r.name}={r.max_rel_error:.2e}" for r in results if not r.passed]
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# criterion 2: algebraic invariants, 20 seeds each


def test_criterion_algebraic_invariants(criterion_output):
    softmax_worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        out = T.softmax(Tensor(rng.normal(size=9) * 20)).data
        assert np.all(out > 0) and np.all(out < 1)
        softmax_worst = max(softmax_worst, abs(out.sum() - 1.0))
    assert softmax_worst < 1e-6

    # the model's own softmax, inside `scene_attention`, which training records
    attention_worst = 0.0
    perm_worst = 0.0
    convex_ok = True
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        k = 5
        vgw = vgw_params_init(d_v=6, d_w=4, refined_dim=3, grounded_dim=4,
                              fusion_proj=4, fusion_out_proj=4, chunks=2,
                              rank=2, seed=seed)
        visual = rng.normal(size=(2, k, 6))
        labels = rng.normal(size=(2, k, 4))
        word = Tensor(rng.normal(size=(2, 4)))
        alpha, attended = vgw_attention(labels, word, vgw.score_column(), visual)
        assert np.all(alpha.data > 0) and np.all(alpha.data < 1)
        attention_worst = max(attention_worst,
                              float(np.max(np.abs(alpha.data.sum(axis=1) - 1.0))))
        perm = rng.permutation(k)
        alpha_p, attended_p = vgw_attention(labels[:, perm], word, vgw.score_column(),
                                            visual[:, perm])
        perm_worst = max(perm_worst,
                         float(np.max(np.abs(alpha.data[:, perm] - alpha_p.data))),
                         float(np.max(np.abs(attended.data - attended_p.data))))
        convex_ok &= bool(np.all(attended.data >= visual.min(axis=1) - 1e-12)
                          and np.all(attended.data <= visual.max(axis=1) + 1e-12))
    assert attention_worst < 1e-6
    assert perm_worst <= 1e-9
    assert convex_ok

    fusion_worst = 0.0
    p = block_params_init(5, 4, 6, 6, 3, chunks=2, rank=2, seed=0)
    for name, t in p.named_arrays():
        if name.endswith(".bias"):
            t.data[...] = 0.0   # zero biases make the map exactly bilinear
    for seed in range(20):
        rng = np.random.default_rng(200 + seed)
        x1, x2 = Tensor(rng.normal(size=(2, 5))), Tensor(rng.normal(size=(2, 5)))
        y = Tensor(rng.normal(size=(2, 4)))
        homo = np.max(np.abs(block_fuse(T.scale(x1, 2.0), y, p).data
                             - 2.0 * block_fuse(x1, y, p).data))
        addi = np.max(np.abs(block_fuse(T.add(x1, x2), y, p).data
                             - block_fuse(x1, y, p).data
                             - block_fuse(x2, y, p).data))
        fusion_worst = max(fusion_worst, float(homo), float(addi))
    assert fusion_worst < 1e-9

    pool_worst = 0.0
    for variant in ("baseline", "vgqe"):
        cfg = ModelConfig(variant=variant, d_v=6, d_w=5, hidden=4, refined_dim=4,
                          grounded_dim=6, pooled_dim=6, answer_count=8,
                          vocab_size=9, dropout=0.0, seed=3)
        cfg.vgw_fusion.proj_dim = cfg.vgw_fusion.out_proj_dim = 6
        cfg.vgw_fusion.chunks = cfg.vgw_fusion.rank = 2
        cfg.obj_fusion.proj_dim = cfg.obj_fusion.out_proj_dim = 6
        cfg.obj_fusion.chunks = cfg.obj_fusion.rank = 2
        params = init_model(cfg)
        for seed in range(20):
            rng = np.random.default_rng(300 + seed)
            visual, labels = rng.normal(size=(2, 4, 6)), rng.normal(size=(2, 4, 5))
            tokens = np.array([[1, 4, 2], [3, 0, 8]])
            logits = forward_batch(params, visual, labels, tokens).data
            perm = rng.permutation(4)
            logits_p = forward_batch(params, visual[:, perm], labels[:, perm], tokens).data
            pool_worst = max(pool_worst, float(np.max(np.abs(logits - logits_p))))
    assert pool_worst <= 1e-9

    criterion_output.announce(True, "criterion 2, algebraic invariants",
             f"softmax {softmax_worst:.1e}, attention softmax {attention_worst:.1e}, "
             f"permutation {perm_worst:.1e}, "
             f"bilinearity {fusion_worst:.1e}, pool invariance {pool_worst:.1e}")


# ---------------------------------------------------------------------------
# criterion 3: encoder contrast


def test_criterion_encoder_contrast(criterion_output):
    d_v, d_w, hidden = 8, 6, 5
    table = embedding_table_init(10, d_w, seed=0)
    fwd = gru_params_init(d_w, hidden, seed=1)
    bwd = gru_params_init(d_w, hidden, seed=2)
    vgw = vgw_params_init(d_v=d_v, d_w=d_w, refined_dim=4, grounded_dim=6,
                          fusion_proj=6, fusion_out_proj=6, chunks=2, rank=2, seed=3)
    vgqe_fwd = gru_params_init(6, hidden, seed=4)
    vgqe_bwd = gru_params_init(6, hidden, seed=5)
    min_gap = np.inf
    for seed in range(20):
        rng = np.random.default_rng(seed)
        tokens = rng.integers(0, 10, size=(1, int(rng.integers(2, 6))))
        # scene b shares scene a's labels and differs in its visual features
        visual = rng.normal(size=(2, 4, d_v))
        labels = np.repeat(rng.normal(size=(1, 4, d_w)), 2, axis=0)

        base_a = encode_questions_baseline(tokens, table, fwd, bwd).data
        base_b = encode_questions_baseline(tokens, table, fwd, bwd).data
        assert np.array_equal(base_a, base_b), "baseline encoding not bit-identical"

        enc, _ = encode_questions_vgqe(visual, labels, np.repeat(tokens, 2, axis=0),
                                       table, vgw, vgqe_fwd, vgqe_bwd)
        enc = enc.data
        gap = float(np.max(np.abs(enc[0] - enc[1])))
        min_gap = min(min_gap, gap)
        assert gap > 1e-6, f"grounded encodings indistinguishable at seed {seed}"
    criterion_output.announce(True, "criterion 3, encoder contrast",
             f"baseline bit-identical, grounded min L-inf gap {min_gap:.2e}")


# ---------------------------------------------------------------------------
# criterion 4: overfit sanity


@pytest.mark.parametrize("variant", ["baseline", "vgqe"])
def test_criterion_overfit_sanity(variant, criterion_output, split_rows):
    ds = generate_dataset(DataConfig(n_train=64, n_test=8, seed=11))
    subset = split_rows(ds.train, slice(0, 32))
    cfg = ModelConfig(variant=variant, answer_count=ds.vocab.answer_count,
                      vocab_size=len(ds.vocab.tokens), dropout=0.0, seed=0)
    params = init_model(cfg, embedding_vectors=ds.vocab.embedding)
    tcfg = TrainConfig(epochs=200, batch_size=128, seed=0, schedule=constant_schedule(5e-3))
    started = time.perf_counter()
    _, log = train(params, subset, tcfg)
    elapsed = time.perf_counter() - started
    best = min(row.mean_loss for row in log)
    reached = next((row.epoch for row in log if row.mean_loss < 0.05), None)
    # loss smoothed over 10-epoch windows must be monotone non-increasing
    losses = np.array([row.mean_loss for row in log])
    windows = losses.reshape(-1, 10).mean(axis=1)
    worst_rise = float(np.diff(windows).max())
    ok = best < 0.05 and elapsed < 120.0 and worst_rise <= 1e-9
    criterion_output.announce(ok, f"criterion 4, overfit sanity ({variant})",
             f"loss {best:.4f} (first < 0.05 at epoch {reached}), {elapsed:.0f}s, "
             f"smoothed loss monotone")
    assert best < 0.05
    assert elapsed < 120.0
    assert worst_rise <= 1e-9, "smoothed training loss increased between windows"


# ---------------------------------------------------------------------------
# criterion 5: the bias-shift comparison


@pytest.mark.slow
def test_criterion_bias_shift_experiment(criterion_output):
    started = time.perf_counter()
    ds = generate_dataset(DataConfig())
    result = run_bias_shift(ds, seeds=(0, 1, 2, 3, 4))
    elapsed = time.perf_counter() - started
    base = result.outcomes["baseline"]
    vgqe = result.outcomes["vgqe"]
    ok = (result.ood_gap >= 0.08
          and vgqe.median_iid >= base.median_iid - 0.02
          and base.median_iid > result.floor_iid
          and vgqe.median_iid > result.floor_iid
          and elapsed < 1800.0)
    criterion_output.announce(ok, "criterion 5, bias-shift experiment",
             f"ood gap {100 * result.ood_gap:+.1f} pts, iid delta "
             f"{100 * result.iid_delta:+.1f} pts, floor {result.floor_iid:.3f}, "
             f"baseline iid {base.median_iid:.3f}, {elapsed:.0f}s")
    for line in result.summary_lines():
        criterion_output.line("    " + line)
    assert result.ood_gap >= 0.08, "grounded encoder must beat the baseline by >= 8 points OOD"
    assert vgqe.median_iid >= base.median_iid - 0.02, "no iid regression beyond 2 points"
    assert base.median_iid > result.floor_iid, "baseline stuck at the prior floor"
    assert vgqe.median_iid > result.floor_iid, "vgqe stuck at the prior floor"
    assert elapsed < 1800.0


# ---------------------------------------------------------------------------
# criteria 6 and 7 share a small end-to-end CLI workspace


TINY_CONFIG = {
    "data": {"shapes": 3, "colors": 3, "objects_per_scene": 3, "d_v": 8,
             "d_w": 6, "n_train": 150, "n_test": 90, "count_max": 2, "seed": 0},
    "model": {"hidden": 6, "refined_dim": 4, "grounded_dim": 8, "pooled_dim": 8,
              "dropout": 0.0,
              "vgw_fusion": {"proj_dim": 8, "out_proj_dim": 8, "chunks": 2, "rank": 2},
              "obj_fusion": {"proj_dim": 8, "out_proj_dim": 8, "chunks": 2, "rank": 2}},
    "train": {"epochs": 3, "batch_size": 32,
              "schedule": {"base_lr": 2e-3, "warm_factor": 0.0,
                           "warm_end_epoch": 1, "decay_factor": 1.0,
                           "decay_step": 1}},
}


def build_workspace(root: Path) -> None:
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(TINY_CONFIG))
    assert cli_run(["gen-data", "--config", str(cfg_path),
                    "--out", str(root / "data")]) == 0
    for variant in ("baseline", "vgqe"):
        assert cli_run(["train", "--data", str(root / "data"), "--variant", variant,
                        "--seed", "1", "--out", str(root / variant),
                        "--config", str(cfg_path)]) == 0
        assert cli_run(["eval", "--checkpoint", str(root / variant / "checkpoint.json"),
                        "--data", str(root / "data"), "--split", "test",
                        "--report", str(root / f"{variant}_report.json")]) == 0


def test_criterion_reporting_fidelity(tmp_path, criterion_output):
    root = tmp_path / "ws"
    root.mkdir()
    build_workspace(root)
    assert cli_run(["report", "--baseline", str(root / "baseline_report.json"),
                    "--vgqe", str(root / "vgqe_report.json"),
                    "--out", str(root / "cmp"), "--traces", "4"]) == 0

    worst_mean_gap = 0.0
    worst_hist_gap = 0.0
    for variant in ("baseline", "vgqe"):
        report = report_from_json(root / f"{variant}_report.json")
        # rebuild the per-type table purely from the stored predictions
        from vqalab.evaluate import summarize_predictions
        rebuilt = summarize_predictions(report.predictions,
                                        len(report.answers),
                                        {qt: tr.name for qt, tr in report.per_type.items()})
        assert rebuilt.overall == report.overall
        per_type = rebuilt.per_type.values()
        weighted = sum(tr.count * tr.accuracy for tr in per_type) / sum(tr.count for tr in per_type)
        worst_mean_gap = max(worst_mean_gap, abs(weighted - rebuilt.overall))
        for qt, tr in rebuilt.per_type.items():
            assert tr.accuracy == report.per_type[qt].accuracy
            worst_hist_gap = max(worst_hist_gap,
                                 abs(sum(tr.gt_histogram) - 1.0),
                                 abs(sum(tr.pred_histogram) - 1.0))
    ok = worst_mean_gap < 1e-9 and worst_hist_gap < 1e-9
    criterion_output.announce(ok, "criterion 6, reporting fidelity",
             f"weighted-mean gap {worst_mean_gap:.1e}, histogram gap {worst_hist_gap:.1e}")
    assert worst_mean_gap < 1e-9
    assert worst_hist_gap < 1e-9
    assert (root / "cmp" / "comparison.csv").exists()
    assert (root / "cmp" / "histograms.csv").exists()
    assert (root / "cmp" / "traces.json").exists()


def test_criterion_determinism(tmp_path, criterion_output):
    root = tmp_path / "det"
    snapshots = []
    tracked = ["data/train.jsonl", "data/test.jsonl", "data/test_iid.jsonl",
               "data/manifest.json", "baseline/checkpoint.json",
               "baseline/checkpoint.json.bin", "vgqe/checkpoint.json",
               "vgqe/checkpoint.json.bin", "baseline_report.json",
               "vgqe_report.json"]
    for attempt in range(2):
        if root.exists():
            shutil.rmtree(root)
        root.mkdir()
        build_workspace(root)
        snapshots.append({name: sha(root / name) for name in tracked})
    ok = snapshots[0] == snapshots[1]
    differing = [n for n in tracked if snapshots[0][n] != snapshots[1][n]]
    criterion_output.announce(ok, "criterion 7, determinism",
             f"{len(tracked)} artifacts byte-identical across reruns"
             if ok else f"differs: {differing}")
    assert ok, f"artifacts differ between identical runs: {differing}"
