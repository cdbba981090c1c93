import math

import numpy as np
import pytest

from vqalab import tensor as T
from vqalab.data import DataConfig, generate_dataset
from vqalab.model import FusionConfig, ModelConfig, init_model
from vqalab.tensor import Tensor
from vqalab.train import (ScheduleConfig, TrainConfig,
                          TrainingDiverged, adamw_init, adamw_step,
                          clip_grad_norm, constant_schedule,
                          cross_entropy_rows, lr_at_epoch, train)


def reference_adamw(param, grads, lr, wd, beta1=0.9, beta2=0.999, eps=1e-8):
    """Independent reference of the decoupled update rule, scalar-per-array."""
    m = np.zeros_like(param)
    v = np.zeros_like(param)
    out = param.copy()
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1 ** t)
        vhat = v / (1 - beta2 ** t)
        out = out - lr * (mhat / (np.sqrt(vhat) + eps) + wd * out)
    return out


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss = cross_entropy_rows(Tensor(np.zeros((2, 4))), np.array([1, 3]))
        assert np.max(np.abs(loss.data - math.log(4))) < 1e-12

    def test_extreme_logits_stable(self):
        loss = cross_entropy_rows(Tensor([[1000.0, 0.0], [0.0, -1000.0]]), np.array([0, 0]))
        assert np.all(loss.data >= 0.0) and np.all(loss.data < 1e-9)

    def test_gradient_is_softmax_minus_onehot(self):
        rng = np.random.default_rng(0)
        logits = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        targets = np.array([3, 0, 3])
        T.backward(cross_entropy_rows(logits, targets).sum())
        soft = np.exp(logits.data) / np.exp(logits.data).sum(axis=1, keepdims=True)
        onehot = np.eye(5)[targets]
        assert np.max(np.abs(logits.grad - (soft - onehot))) < 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(2, 6)), requires_grad=True)
        targets = np.array([2, 5])
        assert T.grad_check(lambda t: T.reduce_mean(cross_entropy_rows(t, targets)), x) < 1e-6

    def test_target_out_of_range(self):
        with pytest.raises(IndexError):
            cross_entropy_rows(Tensor(np.zeros((1, 3))), np.array([5]))
        with pytest.raises(IndexError):
            cross_entropy_rows(Tensor(np.zeros((2, 3))), np.array([0, 3]))
        with pytest.raises(IndexError):
            cross_entropy_rows(Tensor(np.zeros((2, 3))), np.array([-1, 0]))


class TestAdamW:
    def test_pure_decay_with_zero_gradient(self):
        p = np.ones(1)
        state = adamw_init(p, weight_decay=0.01)
        state.lr = 0.1
        adamw_step(p, np.zeros(1), state)
        assert np.allclose(p, [0.999])

    def test_first_step_is_signed_lr(self):
        p = np.array([1.0, -2.0])
        state = adamw_init(p, weight_decay=0.0)
        state.lr = 0.05
        g = np.array([0.7, -0.3])
        adamw_step(p, g, state)
        assert np.allclose(p, [1.0 - 0.05, -2.0 + 0.05], atol=1e-6)

    def test_three_steps_match_reference_on_quadratic(self):
        start = np.array([1.5, -0.5, 2.0])
        p = start.copy()
        state = adamw_init(p, weight_decay=0.01)
        state.lr = 0.1
        grads = []
        for _ in range(3):
            g = 2.0 * p  # gradient of sum(x^2) at the current iterate
            grads.append(g)
            adamw_step(p, g, state)
        # replay reference against the recorded gradient sequence
        want = reference_adamw(start, grads, lr=0.1, wd=0.01)
        assert np.max(np.abs(p - want)) < 1e-10

    def test_buffer_matches_per_array_reference(self):
        # one update of a two-array buffer is each array's own update, bit for bit
        rng = np.random.default_rng(4)
        start = rng.normal(size=7)
        p = start.copy()
        state = adamw_init(p, weight_decay=0.01)
        state.lr = 0.1
        grads = [rng.normal(size=7) for _ in range(3)]
        for g in grads:
            adamw_step(p, g, state)
        for part in (slice(0, 3), slice(3, 7)):
            want = reference_adamw(start[part], [g[part] for g in grads], lr=0.1, wd=0.01)
            assert np.array_equal(p[part], want)

    def test_identity_when_wd_zero_and_no_gradient(self):
        p = np.array([3.0])
        state = adamw_init(p, weight_decay=0.0)
        for _ in range(4):
            adamw_step(p, np.zeros(1), state)
        assert np.array_equal(p, [3.0])

    def test_shape_mismatch(self):
        p = np.zeros(2)
        state = adamw_init(p)
        with pytest.raises(T.ShapeError):
            adamw_step(p, np.zeros(3), state)
        assert state.step_count == 0


def split_views(grad, sizes):
    return np.split(grad, np.cumsum(sizes)[:-1])


class TestClip:
    def test_scales_down_to_threshold(self):
        grad = np.array([0.6, 0.8])  # norm 1.0
        clipped, norm = clip_grad_norm(grad, split_views(grad, [1, 1]), 0.25)
        assert norm == pytest.approx(1.0)
        assert clipped is grad
        assert math.sqrt(float((grad * grad).sum())) == pytest.approx(0.25)
        assert np.allclose(grad[0] / grad[1], 0.75)

    def test_below_threshold_unchanged(self):
        grad = np.array([0.06, 0.08])
        _, norm = clip_grad_norm(grad, [grad], 0.25)
        assert norm == pytest.approx(0.1)
        assert np.array_equal(grad, [0.06, 0.08])

    def test_random_sets_never_exceed_threshold(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            sizes = rng.integers(1, 5, size=3)
            grad = rng.normal(size=sizes.sum())
            clip_grad_norm(grad, split_views(grad, sizes), 0.25)
            assert math.sqrt(float((grad * grad).sum())) <= 0.25 + 1e-9

    def test_norm_sums_per_array_in_order(self):
        # the buffer's norm rounds as the per-array sums it replaced
        rng = np.random.default_rng(5)
        arrays = [rng.normal(size=shape) * scale for shape, scale in
                  (((13, 7), 1e-3), ((29,), 10.0), ((3, 5, 2), 1.0))]
        grad = np.concatenate(arrays, axis=None)
        _, norm = clip_grad_norm(grad, split_views(grad, [a.size for a in arrays]), 1e9)
        assert norm == math.sqrt(sum(float((a * a).sum()) for a in arrays))


class TestSchedule:
    def test_first_epoch_is_base(self):
        assert lr_at_epoch(1, ScheduleConfig()) == pytest.approx(3.5e-4)

    def test_linear_increase(self):
        assert lr_at_epoch(2, ScheduleConfig()) == pytest.approx(4.375e-4)

    def test_decay_after_warm_end(self):
        s = ScheduleConfig()
        assert lr_at_epoch(13, s) == pytest.approx(3.5e-4 * 3.5 * 0.25)
        assert lr_at_epoch(12, s) == pytest.approx(3.5e-4 * 3.5 * 0.25)
        assert lr_at_epoch(14, s) == pytest.approx(3.5e-4 * 3.5 * 0.25 ** 2)

    def test_positive_and_nonincreasing_after_warm(self):
        s = ScheduleConfig()
        values = [lr_at_epoch(e, s) for e in range(1, 40)]
        assert all(v > 0 for v in values)
        post = values[s.warm_end_epoch - 1:]
        assert all(a >= b for a, b in zip(post, post[1:]))

    def test_epoch_zero_rejected(self):
        with pytest.raises(ValueError):
            lr_at_epoch(0, ScheduleConfig())


TINY_MODEL = dict(d_v=8, d_w=6, hidden=6, refined_dim=4, grounded_dim=8,
                  pooled_dim=8, vgw_fusion=FusionConfig(8, 8, 2, 2),
                  obj_fusion=FusionConfig(8, 8, 2, 2))


def tiny_setup(variant="baseline", n=48, seed=0):
    data_cfg = DataConfig(shapes=3, colors=3, objects_per_scene=3, d_v=8, d_w=6,
                          n_train=n, n_test=8, count_max=2, seed=seed)
    ds = generate_dataset(data_cfg)
    model_cfg = ModelConfig(variant=variant, answer_count=ds.vocab.answer_count,
                            vocab_size=len(ds.vocab.tokens), dropout=0.0,
                            seed=seed, **TINY_MODEL)
    params = init_model(model_cfg, embedding_vectors=ds.vocab.embedding)
    return ds, params


class TestTrainLoop:
    def test_zero_lr_leaves_parameters_fixed(self):
        # with lr=0 both the gradient term and the lr-scaled decay vanish
        ds, params = tiny_setup(n=16)
        before = {name: t.data.copy() for name, t in params.named_parameters()}
        cfg = TrainConfig(epochs=2, batch_size=8, seed=0,
                          schedule=ScheduleConfig(base_lr=1e-30, warm_factor=0.0,
                                                  warm_end_epoch=1, decay_factor=1.0))
        train(params, ds.train, cfg)
        for name, t in params.named_parameters():
            assert np.max(np.abs(t.data - before[name])) < 1e-25

    def test_parameters_stay_views_of_flat(self):
        ds, params = tiny_setup("vgqe", n=16)
        flat = params.flat
        train(params, ds.train, TrainConfig(epochs=2, batch_size=8,
                                            schedule=constant_schedule(1e-2)))
        assert params.flat is flat
        for name, t in params.named_parameters():
            assert np.shares_memory(t.data, params.flat), name

    def test_identical_seeds_identical_logs(self):
        logs = []
        for _ in range(2):
            ds, params = tiny_setup(n=32, seed=1)
            cfg = TrainConfig(epochs=3, batch_size=16, seed=7,
                              schedule=constant_schedule(3e-3))
            _, log = train(params, ds.train, cfg)
            logs.append([(r.epoch, r.lr, r.mean_loss, r.accuracy) for r in log])
        assert logs[0] == logs[1]

    def test_loss_decreases_on_small_subset(self):
        ds, params = tiny_setup(n=32, seed=2)
        cfg = TrainConfig(epochs=40, batch_size=32, seed=3,
                          schedule=constant_schedule(5e-3))
        _, log = train(params, ds.train, cfg)
        assert log[-1].mean_loss < log[0].mean_loss * 0.7

    def test_divergence_aborts_with_diagnostics(self):
        # overflowing gradients of a still-finite loss stop the run before the update
        ds, params = tiny_setup(n=16, seed=3)
        cfg = TrainConfig(epochs=50, batch_size=16, seed=0, clip_norm=1e6,
                          schedule=constant_schedule(1e12))
        with pytest.raises(TrainingDiverged) as err:
            train(params, ds.train, cfg)
        assert err.value.epoch >= 1 and err.value.batch >= 0
        assert not math.isfinite(err.value.grad_norm) and math.isfinite(err.value.loss)
        assert "non-finite gradient norm" in str(err.value)
        assert len(T.active_tape()) == 0
        assert np.isfinite(params.flat).all()
        assert all(t.grad is None for _, t in params.named_parameters())

    def test_non_finite_loss_leaves_no_tape(self):
        ds, params = tiny_setup(n=16, seed=3)
        params.cls_out.bias.data[0] = np.nan
        with pytest.raises(TrainingDiverged) as err:
            train(params, ds.train, TrainConfig(epochs=1, batch_size=16))
        assert (err.value.epoch, err.value.batch, err.value.grad_norm) == (1, 0, None)
        assert str(err.value).startswith("non-finite loss nan at epoch 1, batch 0")
        assert len(T.active_tape()) == 0

    @pytest.mark.parametrize("clip_norm,clipped", [(1e6, 0.0), (1e-9, 1.0)])
    def test_gradient_norm_telemetry(self, clip_norm, clipped):
        ds, params = tiny_setup(n=32)
        cfg = TrainConfig(epochs=2, batch_size=8, clip_norm=clip_norm,
                          schedule=constant_schedule(1e-3))
        _, log = train(params, ds.train, cfg)
        for row in log:
            assert row.clipped_frac == clipped
            assert 0 < row.grad_norm_mean <= row.grad_norm_max < math.inf

    def test_empty_split_rejected(self, split_rows):
        ds, params = tiny_setup(n=16)
        with pytest.raises(ValueError):
            train(params, split_rows(ds.train, slice(0, 0)), TrainConfig(epochs=1))

    def test_log_csv_round_trip(self, tmp_path):
        from vqalab.train import write_training_log
        ds, params = tiny_setup(n=16)
        cfg = TrainConfig(epochs=2, batch_size=16, schedule=constant_schedule(1e-3))
        _, log = train(params, ds.train, cfg)
        path = tmp_path / "log.csv"
        write_training_log(log, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].split(",") == ["epoch", "lr", "mean_loss", "train_accuracy",
                                       "grad_norm_mean", "grad_norm_max", "clipped_frac",
                                       "wall_time_s"]
        assert len(lines) == 3
        for row, line in zip(log, lines[1:]):
            values = line.split(",")
            assert values[4:7] == [repr(row.grad_norm_mean), repr(row.grad_norm_max),
                                   repr(row.clipped_frac)]
