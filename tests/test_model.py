import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from vqalab import layers, model as M, tensor as T
from vqalab.data import DataConfig, generate_dataset
from vqalab.evaluate import predict_split
from vqalab.model import (FusionConfig, ModelConfig, count_parameters,
                          forward_batch, init_model, load_checkpoint,
                          save_checkpoint)
from vqalab.tensor import Tensor

GOLDEN = Path(__file__).parent / "golden"

TINY = dict(d_v=6, d_w=5, hidden=4, refined_dim=4, grounded_dim=6, pooled_dim=6,
            answer_count=8, vocab_size=9,
            vgw_fusion=FusionConfig(6, 6, 2, 2), obj_fusion=FusionConfig(6, 6, 2, 2))


def tiny_config(variant="baseline", **kw):
    merged = {**TINY, **kw}
    return ModelConfig(variant=variant, **merged)


def make_scenes(rng, batch=2, k=3, cfg=None):
    """Visual (B, k, d_v) and label (B, k, d_w) arrays."""
    cfg = cfg or tiny_config()
    return rng.normal(size=(batch, k, cfg.d_v)), rng.normal(size=(batch, k, cfg.d_w))


class TestForward:
    def test_singleton_scene_pool_is_identity(self):
        cfg = tiny_config()
        params = init_model(cfg)
        rng = np.random.default_rng(0)
        visual, labels = make_scenes(rng, k=1)
        logits = forward_batch(params, visual, labels, np.array([[1, 2], [3, 4]]))
        assert logits.shape == (2, cfg.answer_count)
        assert np.all(np.isfinite(logits.data))

    @pytest.mark.parametrize("variant", ["baseline", "vgqe"])
    def test_object_permutation_leaves_logits_unchanged(self, variant):
        cfg = tiny_config(variant)
        params = init_model(cfg)
        tokens = np.array([[0, 3, 1], [2, 2, 5]])
        for seed in range(20):
            rng = np.random.default_rng(seed)
            visual, labels = make_scenes(rng, k=4)
            base = forward_batch(params, visual, labels, tokens).data
            perm = rng.permutation(4)
            permuted = forward_batch(params, visual[:, perm], labels[:, perm], tokens).data
            assert np.max(np.abs(permuted - base)) <= 1e-9

    def test_eval_mode_is_deterministic(self):
        params = init_model(tiny_config("vgqe", dropout=0.2))
        rng = np.random.default_rng(1)
        visual, labels = make_scenes(rng)
        tokens = np.array([[1, 2, 3], [4, 5, 6]])
        a = forward_batch(params, visual, labels, tokens).data
        b = forward_batch(params, visual, labels, tokens).data
        assert np.array_equal(a, b)

    def test_training_mode_requires_rng_and_applies_dropout(self):
        params = init_model(tiny_config(dropout=0.5))
        rng = np.random.default_rng(2)
        visual, labels = make_scenes(rng)
        tokens = np.array([[0], [1]])
        with pytest.raises(ValueError):
            forward_batch(params, visual, labels, tokens, training=True)
        a = forward_batch(params, visual, labels, tokens, training=True,
                          drop_rng=np.random.default_rng(5)).data
        b = forward_batch(params, visual, labels, tokens).data
        assert not np.allclose(a, b)

    def test_scene_shape_validation(self):
        params = init_model(tiny_config())
        with pytest.raises(T.ShapeError):
            forward_batch(params, np.zeros((1, 3, 4)), np.zeros((1, 3, 5)),
                          np.array([[0]]))

    @pytest.mark.parametrize("variant", ["baseline", "vgqe"])
    @pytest.mark.parametrize("scenes,rows", [(1, 2), (2, 1)])
    def test_token_rows_must_match_scenes(self, variant, scenes, rows):
        params = init_model(tiny_config(variant))
        visual, labels = make_scenes(np.random.default_rng(3), batch=scenes)
        with pytest.raises(T.ShapeError) as err:
            forward_batch(params, visual, labels, np.ones((rows, 2), dtype=np.int64))
        assert str(err.value) == f"{rows} token rows for {scenes} scenes"


class TestEncoderContrast:
    def test_baseline_encoding_ignores_scene_while_logits_do_not(self):
        cfg = tiny_config("baseline")
        params = init_model(cfg)
        rng = np.random.default_rng(3)
        visual, labels = make_scenes(rng)                   # two different scenes
        tokens = np.array([[1, 2, 3], [1, 2, 3]])
        q = M.encode_questions(params, visual, labels, tokens).data
        assert np.array_equal(q[0], q[1])
        logits = forward_batch(params, visual, labels, tokens).data
        assert not np.allclose(logits[0], logits[1])

    def test_grounded_encoding_tracks_scene(self):
        cfg = tiny_config("vgqe")
        params = init_model(cfg)
        rng = np.random.default_rng(4)
        visual, labels = make_scenes(rng)
        tokens = np.array([[1, 2, 3], [1, 2, 3]])
        q = M.encode_questions(params, visual, labels, tokens).data
        assert np.max(np.abs(q[0] - q[1])) > 1e-6


@pytest.fixture(scope="module")
def small_ds():
    return generate_dataset(DataConfig(shapes=3, colors=3, objects_per_scene=3, d_v=6,
                                       d_w=5, n_train=16, n_test=12, count_max=2, seed=0))


def constant_predictor(ds, bias):
    """A model whose logits are `bias` for every example."""
    cfg = tiny_config(answer_count=ds.vocab.answer_count, vocab_size=len(ds.vocab.tokens))
    params = init_model(cfg, embedding_vectors=ds.vocab.embedding)
    params.cls_out.weight.data[:] = 0.0
    params.cls_out.bias.data[:] = bias
    return params


class TestPredict:
    """Predictions are the argmax of the logits, as predict_split computes them."""

    def test_argmax(self, small_ds):
        bias = np.zeros(small_ds.vocab.answer_count)
        bias[:2] = [0.1, 0.9]
        assert set(predict_split(constant_predictor(small_ds, bias), small_ds.test)) == {1}

    def test_tie_breaks_to_smaller_id(self, small_ds):
        bias = np.zeros(small_ds.vocab.answer_count)
        bias[[2, 5]] = 0.5
        assert set(predict_split(constant_predictor(small_ds, bias), small_ds.test)) == {2}

    def test_shift_invariance(self, small_ds):
        bias = np.random.default_rng(0).normal(size=small_ds.vocab.answer_count)
        preds = predict_split(constant_predictor(small_ds, bias), small_ds.test)
        shifted = predict_split(constant_predictor(small_ds, bias + 10.0), small_ds.test)
        assert preds == shifted == [int(np.argmax(bias))] * len(small_ds.test)


class TestCountParameters:
    def test_single_matrix(self):
        params = init_model(tiny_config())
        first = next(iter(params.named_parameters()))
        assert first[1].size == int(np.prod(first[1].shape))

    def test_matches_shape_sum_oracle(self):
        params = init_model(tiny_config("vgqe"))
        by_hand = 0
        for _, t in params.named_parameters():
            n = 1
            for s in t.shape:
                n *= s
            by_hand += n
        assert count_parameters(params) == by_hand

    def test_frozen_embedding_excluded(self):
        params = init_model(tiny_config())
        total_arrays = sum(t.size for _, t in params.named_arrays())
        emb = params.embedding.size
        assert count_parameters(params) == total_arrays - emb

    @pytest.mark.parametrize("kw,count,arrays", [
        (dict(variant="baseline"), 18155, 44),
        (dict(variant="vgqe"), 26427, 72)])
    def test_default_config_counts(self, kw, count, arrays):
        # scalar counts as before the fusion factors were rank-stacked; one
        # array per chunk and side where there was one per chunk, side and rank
        params = init_model(ModelConfig(**kw))
        assert count_parameters(params) == count
        assert len(list(params.named_parameters())) == arrays

    def test_vgqe_has_more_capacity(self):
        base = count_parameters(init_model(tiny_config("baseline")))
        vgqe = count_parameters(init_model(tiny_config("vgqe")))
        assert vgqe > base


@pytest.mark.parametrize("variant", ["baseline", "vgqe"])
def test_full_model_gradients(variant):
    # answer_count=8, k=3, T=4 with small feature dims to keep the check fast
    cfg = tiny_config(variant, dropout=0.0)
    params = init_model(cfg)
    rng = np.random.default_rng(6)
    visual, labels = make_scenes(rng, k=3)
    tokens = np.array([[1, 4, 2, 7], [0, 8, 8, 3]])
    probe = Tensor(rng.normal(size=(2, cfg.answer_count)))

    def loss():
        return T.mul(forward_batch(params, visual, labels, tokens), probe).sum()

    worst, worst_name = 0.0, None
    for name, t in params.named_parameters():
        err = T.grad_check(lambda _t: loss(), t)
        if err > worst:
            worst, worst_name = err, name
    assert worst < 1e-4, f"worst gradient error {worst} at {worst_name}"


def assert_in_arena(params):
    """Every trainable array is a view of `flat`, and its gradient a view of
    `grad`, at its named_parameters() slot."""
    offset = 0
    for name, t in params.named_parameters():
        assert np.shares_memory(t.data, params.flat), name
        assert np.array_equal(t.data.reshape(-1), params.flat[offset:offset + t.size]), name
        assert t.grad.shape == t.shape, name
        assert np.shares_memory(t.grad, params.grad[offset:offset + t.size]), name
        offset += t.size
    assert offset == params.flat.size
    assert params.grad.shape == params.flat.shape and params.grad.dtype == params.flat.dtype
    assert not np.shares_memory(params.embedding.data, params.flat)
    assert params.embedding.grad is None


class TestArena:
    @pytest.mark.parametrize("variant", ["baseline", "vgqe"])
    def test_parameters_are_views_of_flat(self, variant):
        params = init_model(tiny_config(variant))
        assert_in_arena(params)
        assert params.flat.ndim == 1 and params.flat.flags.c_contiguous
        assert params.flat.size == count_parameters(params)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_flat_has_the_default_dtype(self, dtype):
        with T.using_dtype(dtype):
            params = init_model(tiny_config("vgqe"))
        assert params.flat.dtype == dtype
        assert {t.data.dtype for _, t in params.named_arrays()} == {np.dtype(dtype)}

    @pytest.mark.parametrize("variant", ["baseline", "vgqe"])
    def test_backward_accumulates_into_grad(self, variant):
        params = init_model(tiny_config(variant))
        assert not params.grad.any()
        visual, labels = make_scenes(np.random.default_rng(2))
        tokens = np.array([[1, 2, 3], [4, 5, 6]])
        leaves = [t for _, t in params.named_parameters()]
        sums = []
        for _ in range(2):
            with T.recording():
                T.backward(forward_batch(params, visual, labels, tokens).sum())
            sums.append(params.grad.copy())
        assert sums[0].any()
        assert np.max(np.abs(sums[1] - 2 * sums[0])) < 1e-12   # accumulated in place
        assert_in_arena(params)
        grad = params.grad
        T.zero_grads(leaves)
        assert params.grad is grad and not grad.any()
        assert_in_arena(params)

    def test_raising_grad_check_keeps_the_views(self):
        params = init_model(tiny_config())
        target = params.cls_out.weight
        params.grad[...] = 1.0

        def failing_loss(_t):
            raise RuntimeError("loss failed")

        with pytest.raises(RuntimeError, match="loss failed"):
            T.grad_check(failing_loss, target)
        assert_in_arena(params)
        assert (params.grad == 1.0).all()

    def test_writes_to_flat_reach_the_forward_pass(self):
        params = init_model(tiny_config())
        rng = np.random.default_rng(1)
        visual, labels = make_scenes(rng)
        tokens = np.array([[1, 2], [3, 4]])
        before = forward_batch(params, visual, labels, tokens).data
        params.flat *= 2.0
        after = forward_batch(params, visual, labels, tokens).data
        assert not np.allclose(before, after)


class TestCheckpoint:
    @pytest.mark.parametrize("variant", ["baseline", "vgqe"])
    def test_round_trip(self, tmp_path, variant):
        params = init_model(tiny_config(variant, seed=9))
        path = tmp_path / "ckpt.json"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        for (name_a, a), (name_b, b) in zip(params.named_arrays(), loaded.named_arrays()):
            assert name_a == name_b
            assert np.array_equal(a.data, b.data)
        assert loaded.config == params.config
        assert_in_arena(loaded)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_data_file_is_embedding_then_flat(self, tmp_path, dtype):
        with T.using_dtype(dtype):
            params = init_model(tiny_config("vgqe", seed=4))
        path = tmp_path / "ckpt.json"
        save_checkpoint(params, path)
        raw = (tmp_path / "ckpt.json.bin").read_bytes()
        assert raw == params.embedding.data.tobytes() + params.flat.tobytes()
        assert json.loads(path.read_text())["data_sha256"] == hashlib.sha256(raw).hexdigest()

    @pytest.mark.parametrize("variant", ["baseline", "vgqe"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_load_draws_nothing(self, tmp_path, monkeypatch, variant, dtype):
        with T.using_dtype(dtype):
            params = init_model(tiny_config(variant, seed=6))
        params.flat[...] = np.random.default_rng(0).normal(size=params.flat.size)
        save_checkpoint(params, tmp_path / "ckpt.json")

        def refuse(*entropy):
            raise AssertionError("load_checkpoint seeded a generator")
        monkeypatch.setattr(layers, "seeded_rng", refuse)
        monkeypatch.setattr(np.random, "default_rng", refuse)
        loaded = load_checkpoint(tmp_path / "ckpt.json")
        for (name, want), (got_name, got) in zip(params.named_arrays(), loaded.named_arrays(),
                                                 strict=True):
            assert got_name == name and got.data.dtype == dtype
            assert got.data.tobytes() == want.data.tobytes()
        assert_in_arena(loaded)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("default", [np.float64, np.float32])
    def test_loads_in_the_stored_dtype(self, tmp_path, dtype, default):
        with T.using_dtype(dtype):
            params = init_model(tiny_config("vgqe", seed=4))
        save_checkpoint(params, tmp_path / "ckpt.json")
        with T.using_dtype(default):
            loaded = load_checkpoint(tmp_path / "ckpt.json")
            assert T.get_default_dtype() is default
        assert loaded.flat.dtype == dtype
        assert {t.data.dtype for _, t in loaded.named_arrays()} == {np.dtype(dtype)}
        assert loaded.flat.tobytes() == params.flat.tobytes()

    def test_non_float_dtype_refused(self, tmp_path):
        def as_int(manifest):
            manifest["dtype"] = "int64"
        assert self.edited_manifest(tmp_path, as_int, whole=True) == (
            f"checkpoint {tmp_path / 'ckpt.json'}: dtype must be 'float64' or "
            "'float32', got 'int64'")

    def edited_manifest(self, tmp_path, edit, whole=False):
        path = tmp_path / "ckpt.json"
        save_checkpoint(init_model(tiny_config("vgqe", seed=5)), path)
        manifest = json.loads(path.read_text())
        edit(manifest if whole else manifest["arrays"])
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError) as err:
            load_checkpoint(path)
        return str(err.value)

    def test_reordered_arrays_refused(self, tmp_path):
        def swap(entries):
            entries[1], entries[2] = entries[2], entries[1]
        assert self.edited_manifest(tmp_path, swap) == (
            "checkpoint array 1 is 'vgw.attn_matrix', this config expects "
            "'vgw.attn_vector'")

    def test_wrong_shape_refused(self, tmp_path):
        def transpose(entries):
            entries[3]["shape"].reverse()
        assert self.edited_manifest(tmp_path, transpose) == (
            "checkpoint array 'vgw.refine_hidden.weight' has shape (4, 5), this config "
            "expects (5, 4)")

    def test_manifest_dtype_sets_the_layout(self, tmp_path):
        # a float64 .bin read as float32 is twice the length the manifest gives
        def as_float32(manifest):
            manifest["dtype"] = "float32"
        message = self.edited_manifest(tmp_path, as_float32, whole=True)
        size = (tmp_path / "ckpt.json.bin").stat().st_size
        assert message == (f"checkpoint data file {tmp_path / 'ckpt.json.bin'} holds {size} "
                           f"bytes, its manifest expects {size // 2}")

    @pytest.mark.parametrize("edit,named", [
        (lambda entries: entries.pop(), "None, this config expects 'cls_out.bias'"),
        (lambda entries: entries.append(dict(entries[-1])),
         "'cls_out.bias', this config expects None"),
        (lambda entries: entries[0].update(name="bogus"),
         "'bogus', this config expects 'embedding.vectors'")])
    def test_missing_extra_or_unknown_array_refused(self, tmp_path, edit, named):
        assert self.edited_manifest(tmp_path, edit).endswith(named)

    def manifest_error(self, tmp_path, rewrite):
        path = tmp_path / "ckpt.json"
        save_checkpoint(init_model(tiny_config(seed=5)), path)
        path.write_text(rewrite(path.read_text()))
        with pytest.raises(ValueError) as err:
            load_checkpoint(path)
        message = str(err.value)
        assert message.startswith(f"checkpoint {path}: ")
        return message[len(f"checkpoint {path}: "):]

    def test_malformed_manifest_named(self, tmp_path):
        assert self.manifest_error(tmp_path, lambda text: text[:60]).startswith(
            "malformed JSON (")
        assert self.manifest_error(tmp_path, lambda text: "[]") == \
            "top level is not a JSON object"

        def config_list(text):
            manifest = json.loads(text)
            manifest["config"] = [1]
            return json.dumps(manifest)
        assert self.manifest_error(tmp_path, config_list) == "config is not a JSON object"

    @pytest.mark.parametrize("key", ["config", "dtype", "data_file", "data_sha256", "arrays"])
    def test_manifest_missing_field_named(self, tmp_path, key):
        def drop(text):
            manifest = json.loads(text)
            del manifest[key]
            return json.dumps(manifest)
        assert self.manifest_error(tmp_path, drop) == f"{key} is missing"

    @pytest.mark.parametrize("key", ["name", "shape"])
    def test_manifest_entry_missing_field_named(self, tmp_path, key):
        def drop(text):
            manifest = json.loads(text)
            del manifest["arrays"][2][key]
            return json.dumps(manifest)
        assert self.manifest_error(tmp_path, drop) == f"arrays.2.{key} is missing"

    def test_save_is_deterministic(self, tmp_path):
        params = init_model(tiny_config(seed=3))
        save_checkpoint(params, tmp_path / "a.json")
        save_checkpoint(params, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_text().replace("a.json.bin", "x") \
            == (tmp_path / "b.json").read_text().replace("b.json.bin", "x")
        assert (tmp_path / "a.json.bin").read_bytes() == (tmp_path / "b.json.bin").read_bytes()

    def test_shape_validation_on_load(self, tmp_path):
        params = init_model(tiny_config(seed=1))
        path = tmp_path / "ckpt.json"
        save_checkpoint(params, path)
        manifest = json.loads(path.read_text())
        manifest["config"]["hidden"] = 5  # inconsistent with stored arrays
        path.write_text(json.dumps(manifest))
        with pytest.raises((T.ShapeError, ValueError)):
            load_checkpoint(path)

    def test_missing_file_names_path(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="nope"):
            load_checkpoint(tmp_path / "nope.json")

    @pytest.mark.parametrize("delta", [-8, 8])
    def test_data_file_length_checked(self, tmp_path, delta):
        path = tmp_path / "ckpt.json"
        save_checkpoint(init_model(tiny_config("vgqe", seed=2)), path)
        bin_path = tmp_path / "ckpt.json.bin"
        raw = bin_path.read_bytes()
        bin_path.write_bytes(raw[:delta] if delta < 0 else raw + bytes(delta))
        message = f"{bin_path} holds {len(raw) + delta} bytes, its manifest expects {len(raw)}"
        with pytest.raises(ValueError) as err:
            load_checkpoint(path)
        assert str(err.value) == f"checkpoint data file {message}"

    def test_flipped_byte_in_data_file_refused(self, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(init_model(tiny_config("vgqe", seed=2)), path)
        bin_path = tmp_path / "ckpt.json.bin"
        raw = bytearray(bin_path.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        bin_path.write_bytes(raw)
        recorded = json.loads(path.read_text())["data_sha256"]
        with pytest.raises(ValueError) as err:
            load_checkpoint(path)
        assert str(err.value) == (f"checkpoint data file {bin_path} has sha256 "
                                  f"{hashlib.sha256(raw).hexdigest()}, its manifest records "
                                  f"{recorded!r}")

    def test_golden_checkpoint_reproduces_logits(self):
        # A vgqe model (one grounded-word module) with perturbed weights, plus
        # its logits on one fixed batch, both written by the v2 code; the v3
        # manifest only dropped the two config keys v2 had for switches since
        # removed, the v4 manifest only adds the data file's sha256, and the
        # v5 manifest only moves the dtype to the file and drops each array's
        # byte offset and trainable flag. It
        # pins array names, orientation and the file format until a
        # deliberate format change replaces it.
        params = load_checkpoint(GOLDEN / "vgqe_tiny.json")
        batch = json.loads((GOLDEN / "vgqe_tiny_logits.json").read_text())
        logits = forward_batch(params, np.array(batch["visual"]), np.array(batch["labels"]),
                               np.array(batch["tokens"])).data
        assert np.max(np.abs(logits - np.array(batch["logits"]))) < 1e-12

    def test_golden_checkpoint_saves_back_byte_for_byte(self, tmp_path):
        # the golden bin names the data file, so the copy keeps its file name
        save_checkpoint(load_checkpoint(GOLDEN / "vgqe_tiny.json"), tmp_path / "vgqe_tiny.json")
        for name in ("vgqe_tiny.json", "vgqe_tiny.json.bin"):
            assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name

    def test_v1_manifest_refused(self, tmp_path):
        path = tmp_path / "old.json"
        save_checkpoint(init_model(tiny_config("vgqe")), path)
        manifest = json.loads(path.read_text())
        manifest["format"] = "vqalab-flat-arrays-v1"
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError) as err:
            load_checkpoint(path)
        assert str(err.value) == (f"checkpoint {path} has format 'vqalab-flat-arrays-v1', "
                                  "expected 'vqalab-flat-arrays-v5'")

    def test_v2_manifest_refused(self, tmp_path):
        # a v2 manifest still carries the removed switches; the format check
        # names it before its config is read
        path = tmp_path / "v2.json"
        save_checkpoint(init_model(tiny_config("vgqe")), path)
        manifest = json.loads(path.read_text())
        manifest["format"] = "vqalab-flat-arrays-v2"
        manifest["config"].update(shared_vgw=True, prepool_nonlinearity=False)
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="has format 'vqalab-flat-arrays-v2', "
                                             "expected 'vqalab-flat-arrays-v5'"):
            load_checkpoint(path)

    def test_v3_manifest_refused(self, tmp_path):
        # a v3 manifest records no data digest; the format check names it
        # before any field is looked for
        path = tmp_path / "v3.json"
        save_checkpoint(init_model(tiny_config("vgqe")), path)
        manifest = json.loads(path.read_text())
        manifest["format"] = "vqalab-flat-arrays-v3"
        del manifest["data_sha256"]
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError) as err:
            load_checkpoint(path)
        assert str(err.value) == (f"checkpoint {path} has format 'vqalab-flat-arrays-v3', "
                                  "expected 'vqalab-flat-arrays-v5'")

    def test_v4_manifest_refused(self, tmp_path):
        # a v4 manifest gives each array a dtype, byte offset and trainable
        # flag, and the file none; the format check names it before any field
        # is looked for
        path = tmp_path / "v4.json"
        save_checkpoint(init_model(tiny_config("vgqe")), path)
        manifest = json.loads(path.read_text())
        manifest["format"] = "vqalab-flat-arrays-v4"
        del manifest["dtype"]
        for entry in manifest["arrays"]:
            entry.update(dtype="float64", byte_offset=0, trainable=True)
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError) as err:
            load_checkpoint(path)
        assert str(err.value) == (f"checkpoint {path} has format 'vqalab-flat-arrays-v4', "
                                  "expected 'vqalab-flat-arrays-v5'")

    @pytest.mark.parametrize("changes,problem", [   # ids as first collected
        pytest.param({"bogus": 1}, "config.bogus is not a ModelConfig field",
                     id="changes0-unknown field bogus"),
        pytest.param({"hidden": None}, "config.hidden is missing",
                     id="changes1-missing field hidden"),
        # one problem is named: the first in field order
        pytest.param({"obj_fusion.rank2": 1, "vgw_fusion.chunks": None},
                     "config.vgw_fusion.chunks is missing",
                     id="changes2-missing field vgw_fusion.chunks, unknown field obj_fusion.rank2"),
        ({"obj_fusion.rank2": 1}, "config.obj_fusion.rank2 is not a FusionConfig field"),
        ({"dropout": 1.0}, "config.dropout must be a finite number in [0, 1), got 1.0")])
    def test_config_fields_checked(self, tmp_path, changes, problem):
        # a value of None deletes the field
        path = tmp_path / "ckpt.json"
        save_checkpoint(init_model(tiny_config("vgqe")), path)
        manifest = json.loads(path.read_text())
        for dotted, value in changes.items():
            *outer, key = dotted.split(".")
            section = manifest["config"][outer[0]] if outer else manifest["config"]
            if value is None:
                del section[key]
            else:
                section[key] = value
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError) as err:
            load_checkpoint(path)
        assert str(err.value) == f"checkpoint {path}: {problem}"
