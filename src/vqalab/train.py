"""Training: stable cross-entropy, AdamW, gradient clipping, LR schedule.

The schedule grows the learning rate linearly from its base value until a
warm-up end epoch, then decays it by a fixed factor every few epochs:

    lr(e) = base * (1 + warm_factor * (e - 1))                  e <= warm_end
    lr(e) = lr(warm_end) * decay_factor ** ceil((e - warm_end) / decay_step)

Weight decay is decoupled from the moment estimates and scaled by the
learning rate, i.e. each step applies  param -= lr * (adam_update + wd * param).

Batches are built per epoch from a seeded shuffle, grouped by question length
so each forward pass sees a rectangular token matrix. Everything is
deterministic given (seed, config) in 64-bit mode.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import tensor as T
from .data import DatasetSplit, bounded, check_fields
from .layers import seeded_rng
from .model import ModelParams, forward_batch
from .tensor import Tensor


class TrainingDiverged(RuntimeError):
    """A non-finite loss, or a finite loss whose gradient norm is not."""

    def __init__(self, epoch: int, batch: int, loss: float, grad_norm: float | None = None):
        what = f"loss {loss!r}" if grad_norm is None else f"gradient norm {grad_norm!r}"
        super().__init__(f"non-finite {what} at epoch {epoch}, batch {batch}")
        self.epoch, self.batch, self.loss, self.grad_norm = epoch, batch, loss, grad_norm


@dataclass
class ScheduleConfig:
    base_lr: float = bounded(3.5e-4, "(0, inf)")
    warm_factor: float = bounded(0.25, "[0, inf)")
    warm_end_epoch: int = bounded(11, "[1, inf)")
    decay_factor: float = bounded(0.25, "(0, inf)")
    decay_step: int = bounded(2, "[1, inf)")

    def __post_init__(self):
        check_fields(self)


def constant_schedule(lr: float) -> ScheduleConfig:
    return ScheduleConfig(base_lr=lr, warm_factor=0.0, warm_end_epoch=1,
                          decay_factor=1.0, decay_step=1)


def lr_at_epoch(epoch: int, s: ScheduleConfig) -> float:
    if epoch < 1:
        raise ValueError(f"epochs start at 1, got {epoch}")
    if epoch <= s.warm_end_epoch:
        return s.base_lr * (1.0 + s.warm_factor * (epoch - 1))
    peak = s.base_lr * (1.0 + s.warm_factor * (s.warm_end_epoch - 1))
    steps = math.ceil((epoch - s.warm_end_epoch) / s.decay_step)
    return peak * s.decay_factor ** steps


@dataclass
class TrainConfig:
    epochs: int = bounded(25, "[1, inf)")          # no epoch leaves no log to report
    batch_size: int = bounded(128, "[1, inf)")
    weight_decay: float = bounded(2e-5, "[0, inf)")
    clip_norm: float = bounded(0.25, "(0, inf)")
    seed: int = bounded(0, "[0, inf)")
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)

    def __post_init__(self):
        check_fields(self)


# ---------------------------------------------------------------------------
# loss


def cross_entropy_rows(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Per-row -log softmax(logits)[target], via stable log-sum-exp: (B,)."""
    targets = np.asarray(targets, dtype=np.intp)
    a = logits.shape[1]
    if targets.size and (targets.min() < 0 or targets.max() >= a):
        raise IndexError(f"target id out of range for {a} answers")
    return T.sub(T.logsumexp_rows(logits), T.rows_pick(logits, targets))


# ---------------------------------------------------------------------------
# optimizer

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8     # moment decay rates and denominator guard


@dataclass
class AdamWState:
    m: np.ndarray                 # first and second moments, shaped like ModelParams.flat
    v: np.ndarray
    lr: float = 3.5e-4
    weight_decay: float = 2e-5
    step_count: int = 0


def adamw_init(params_flat: np.ndarray, weight_decay: float = 2e-5) -> AdamWState:
    return AdamWState(np.zeros_like(params_flat), np.zeros_like(params_flat),
                      weight_decay=weight_decay)


def adamw_step(params_flat: np.ndarray, grad_flat: np.ndarray,
               state: AdamWState) -> AdamWState:
    """One decoupled-weight-decay Adam update, in place on the whole buffer."""
    if grad_flat.shape != params_flat.shape:
        raise T.ShapeError(f"gradient {grad_flat.shape} vs parameters {params_flat.shape}")
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    state.m = BETA1 * state.m + (1 - BETA1) * grad_flat
    state.v = BETA2 * state.v + (1 - BETA2) * grad_flat * grad_flat
    update = (state.m / bc1) / (np.sqrt(state.v / bc2) + EPS)
    params_flat -= state.lr * (update + state.weight_decay * params_flat)
    return state


def clip_grad_norm(grad_flat: np.ndarray, parts: list[np.ndarray],
                   max_norm: float = 0.25) -> tuple[np.ndarray, float]:
    """Scale the buffer in place so its L2 norm is at most max_norm; returns it
    and the pre-clip norm, summed per parameter view in `parts`, in order."""
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    total = math.sqrt(sum(float((g * g).sum()) for g in parts))
    if total > max_norm:
        grad_flat *= max_norm / total
    return grad_flat, total


# ---------------------------------------------------------------------------
# batching and the loop


def length_bucketed_batches(split: DatasetSplit, batch_size: int,
                            rng: np.random.Generator | None) -> list[list[int]]:
    """Deterministic batches of example indices, rectangular in question length.

    With a generator the order is a seeded shuffle; without, dataset order.
    """
    indices = np.arange(len(split))
    if rng is not None:
        rng.shuffle(indices)
    buckets: dict[int, list[int]] = {}
    batches = []
    for idx, length in zip(indices.tolist(), split.lengths[indices].tolist()):
        bucket = buckets.setdefault(length, [])
        bucket.append(idx)
        if len(bucket) == batch_size:
            batches.append(bucket)
            buckets[length] = []
    for length in sorted(buckets):
        if buckets[length]:
            batches.append(buckets[length])
    return batches


def stack_batch(split: DatasetSplit, batch: list[int]):
    """The batch's visual, label, token and answer rows; tokens end at its longest question."""
    return (split.visual[batch], split.labels[batch],
            split.tokens[batch, :split.lengths[batch].max()], split.answers[batch])


@dataclass
class EpochStats:
    epoch: int
    lr: float
    mean_loss: float
    accuracy: float
    grad_norm_mean: float         # pre-clip global gradient norm over the epoch's steps
    grad_norm_max: float
    clipped_frac: float           # fraction of steps whose norm exceeded clip_norm
    wall_time: float


def train(params: ModelParams, split: DatasetSplit,
          config: TrainConfig) -> tuple[ModelParams, list[EpochStats]]:
    """Optimize params on a split by clipped AdamW steps (BETA1, BETA2, EPS);
    returns the params and a per-epoch log."""
    if not len(split):
        raise ValueError("cannot train on an empty split")
    leaves = [t for _, t in params.named_parameters()]
    parts = [t.grad for t in leaves]          # views of params.grad
    state = adamw_init(params.flat, weight_decay=config.weight_decay)
    log: list[EpochStats] = []
    for epoch in range(1, config.epochs + 1):
        started = time.perf_counter()
        lr = lr_at_epoch(epoch, config.schedule)
        state.lr = lr
        shuffle_rng = seeded_rng(config.seed, 0x5EED, epoch)
        drop_rng = seeded_rng(config.seed, 0xD120, epoch)
        total_loss = 0.0
        total_correct = 0
        norms = []
        for batch_index, batch in enumerate(
                length_bucketed_batches(split, config.batch_size, shuffle_rng)):
            visual, labels, tokens, answers = stack_batch(split, batch)
            with T.recording():
                logits = forward_batch(params, visual, labels, tokens,
                                       training=True, drop_rng=drop_rng)
                loss = T.reduce_mean(cross_entropy_rows(logits, answers))
                loss_value = loss.item()
                if not math.isfinite(loss_value):
                    raise TrainingDiverged(epoch, batch_index, loss_value)
                T.backward(loss)
            norm = clip_grad_norm(params.grad, parts, config.clip_norm)[1]
            if not math.isfinite(norm):
                T.zero_grads(leaves)
                raise TrainingDiverged(epoch, batch_index, loss_value, grad_norm=norm)
            adamw_step(params.flat, params.grad, state)
            T.zero_grads(leaves)
            norms.append(norm)
            total_loss += loss_value * len(batch)
            total_correct += int((logits.data.argmax(axis=1) == answers).sum())
        n = len(split)
        log.append(EpochStats(epoch=epoch, lr=lr, mean_loss=total_loss / n,
                              accuracy=total_correct / n,
                              grad_norm_mean=sum(norms) / len(norms),
                              grad_norm_max=max(norms),
                              clipped_frac=sum(x > config.clip_norm for x in norms) / len(norms),
                              wall_time=time.perf_counter() - started))
    return params, log


def write_training_log(log: list[EpochStats], path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "lr", "mean_loss", "train_accuracy", "grad_norm_mean",
                         "grad_norm_max", "clipped_frac", "wall_time_s"])
        for row in log:
            writer.writerow([row.epoch, repr(row.lr), repr(row.mean_loss),
                             repr(row.accuracy), repr(row.grad_norm_mean),
                             repr(row.grad_norm_max), repr(row.clipped_frac),
                             f"{row.wall_time:.3f}"])
