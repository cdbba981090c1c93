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
from .data import DatasetSplit
from .layers import seeded_rng
from .model import ModelParams, forward_batch
from .tensor import Tensor


class TrainingDiverged(RuntimeError):
    def __init__(self, epoch: int, batch: int, loss: float):
        super().__init__(f"non-finite loss {loss!r} at epoch {epoch}, batch {batch}")
        self.epoch, self.batch, self.loss = epoch, batch, loss


@dataclass
class ScheduleConfig:
    base_lr: float = 3.5e-4
    warm_factor: float = 0.25
    warm_end_epoch: int = 11
    decay_factor: float = 0.25
    decay_step: int = 2

    def __post_init__(self):
        if self.base_lr <= 0 or self.decay_factor <= 0 or self.decay_step < 1:
            raise ValueError("schedule factors must be positive")


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
    epochs: int = 25
    batch_size: int = 128
    weight_decay: float = 2e-5
    clip_norm: float = 0.25
    seed: int = 0
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)

    def __post_init__(self):
        if isinstance(self.schedule, dict):
            self.schedule = ScheduleConfig(**self.schedule)


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


@dataclass
class AdamWState:
    lr: float = 3.5e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 2e-5
    step_count: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adamw_init(named_params, lr: float = 3.5e-4,
               weight_decay: float = 2e-5) -> AdamWState:
    state = AdamWState(lr=lr, weight_decay=weight_decay)
    for name, t in named_params:
        state.m[name] = np.zeros_like(t.data)
        state.v[name] = np.zeros_like(t.data)
    return state


def adamw_step(named_params, grads: dict[str, np.ndarray],
               state: AdamWState) -> AdamWState:
    """One decoupled-weight-decay Adam update, in place on the parameters."""
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    for name, param in named_params:
        g = grads[name]
        if g.shape != param.data.shape:
            raise T.ShapeError(f"gradient for {name!r} has shape {g.shape}, "
                               f"parameter is {param.data.shape}")
        m = state.m[name] = state.beta1 * state.m[name] + (1 - state.beta1) * g
        v = state.v[name] = state.beta2 * state.v[name] + (1 - state.beta2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + state.eps)
        param.data = param.data - state.lr * (update + state.weight_decay * param.data)
    return state


def clip_grad_norm(grads: dict[str, np.ndarray],
                   max_norm: float = 0.25) -> tuple[dict[str, np.ndarray], float]:
    """Scale all gradients so the global L2 norm is at most max_norm."""
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if total > max_norm:
        factor = max_norm / total
        for name in grads:
            grads[name] = grads[name] * factor
    return grads, total


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
    wall_time: float


def train(params: ModelParams, split: DatasetSplit,
          config: TrainConfig) -> tuple[ModelParams, list[EpochStats]]:
    """Optimize params on a split; returns the params and a per-epoch log."""
    if not len(split):
        raise ValueError("cannot train on an empty split")
    named = list(params.named_parameters())
    state = adamw_init(named, weight_decay=config.weight_decay)
    log: list[EpochStats] = []
    for epoch in range(1, config.epochs + 1):
        started = time.perf_counter()
        lr = lr_at_epoch(epoch, config.schedule)
        state.lr = lr
        shuffle_rng = seeded_rng(config.seed, 0x5EED, epoch)
        drop_rng = seeded_rng(config.seed, 0xD120, epoch)
        total_loss = 0.0
        total_correct = 0
        for batch_index, batch in enumerate(
                length_bucketed_batches(split, config.batch_size, shuffle_rng)):
            visual, labels, tokens, answers = stack_batch(split, batch)
            logits = forward_batch(params, visual, labels, tokens,
                                   training=True, drop_rng=drop_rng)
            loss = T.reduce_mean(cross_entropy_rows(logits, answers))
            loss_value = loss.item()
            if not math.isfinite(loss_value):
                raise TrainingDiverged(epoch, batch_index, loss_value)
            T.backward(loss)
            grads = {name: (t.grad if t.grad is not None else np.zeros_like(t.data))
                     for name, t in named}
            clip_grad_norm(grads, config.clip_norm)
            adamw_step(named, grads, state)
            T.zero_grads(t for _, t in named)
            total_loss += loss_value * len(batch)
            total_correct += int((logits.data.argmax(axis=1) == answers).sum())
        n = len(split)
        log.append(EpochStats(epoch=epoch, lr=lr, mean_loss=total_loss / n,
                              accuracy=total_correct / n,
                              wall_time=time.perf_counter() - started))
    return params, log


def write_training_log(log: list[EpochStats], path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "lr", "mean_loss", "train_accuracy", "wall_time_s"])
        for row in log:
            writer.writerow([row.epoch, repr(row.lr), repr(row.mean_loss),
                             repr(row.accuracy), f"{row.wall_time:.3f}"])
