import dataclasses
import hashlib
import io
import json
import os
import zlib
from pathlib import Path

import numpy as np
import pytest

from vqalab import data as D
from vqalab.data import (ConfigError, DataConfig, answer_distribution,
                         generate_dataset, load_dataset, load_split,
                         num_question_types, save_dataset, save_split)
from vqalab.train import length_bucketed_batches, stack_batch

SMALL = DataConfig(n_train=1500, n_test=900, seed=0)


@pytest.fixture(scope="module")
def small_ds():
    return generate_dataset(SMALL)


@pytest.fixture(scope="module")
def default_ds():
    return generate_dataset(DataConfig(seed=0, n_train=20000, n_test=4000))


def choice_split(name, n, config, vocab, bias, feature_map):
    """The columns of one split as the generator drew them with
    `Generator.choice`: the answer by `choice(answers, p=probs)`, each id by
    its own call (a distractor's shape by `choice(other_shapes)`), then a
    shuffle of the (shape, color) pairs and one normal block per scene."""
    k, n_types = config.objects_per_scene, D.num_question_types(config)
    columns = {c: [] for c in ("qtypes", "answers", "shapes", "colors", "visual", "labels")}
    label_centroids = vocab.embedding[[vocab.token_ids[s] for s in vocab.shapes]]
    for i in range(n):
        rng = np.random.default_rng(np.random.SeedSequence([config.seed,
                                                            D._SPLIT_CODES[name], i]))
        qtype = int(rng.integers(n_types))
        answer = int(rng.choice(bias[qtype].answers, p=D._answer_probs(bias[qtype], name)))
        template, target = D.TEMPLATES[qtype // config.shapes], qtype % config.shapes
        other_shapes = [s for s in range(config.shapes) if s != target]

        def distractor():
            return (int(rng.choice(other_shapes)), int(rng.integers(config.colors)))

        if template == "color":
            pairs = [(target, answer)] + [distractor() for _ in range(k - 1)]
        else:
            if template == "exists":
                present = vocab.answers[answer] == "yes"
                n_target = int(rng.integers(1, min(config.count_max, k) + 1)) if present else 0
            else:
                n_target = int(vocab.answers[answer])
            pairs = [(target, int(rng.integers(config.colors))) for _ in range(n_target)]
            pairs += [distractor() for _ in range(k - n_target)]
        rng.shuffle(pairs)
        shapes, colors = np.array(pairs, dtype=np.int64).T
        noise = rng.normal(size=(k, config.d_v + config.d_w))
        columns["qtypes"].append(qtype)
        columns["answers"].append(answer)
        columns["shapes"].append(shapes)
        columns["colors"].append(colors)
        columns["visual"].append(feature_map[:, shapes * config.colors + colors].T
                                 + config.noise_v * noise[:, :config.d_v])
        columns["labels"].append(label_centroids[shapes]
                                 + config.noise_l * noise[:, config.d_v:])
    return {c: np.array(values) for c, values in columns.items()}


def json_dumps_lines(split, older_layout=False):
    """The bytes of a split's JSONL file, one `json.dumps` per record; in the
    older layout, each object also holds its features as `v` and `l` lists."""
    lines = []
    for i, example_id in enumerate(split.ids):
        objects = [{"shape": s, "color": c}
                   for s, c in zip(split.shapes[i].tolist(), split.colors[i].tolist())]
        if older_layout:
            for o, v, l in zip(objects, split.visual[i].tolist(), split.labels[i].tolist()):
                o.update(v=v, l=l)
        record = {
            "id": example_id,
            "type": int(split.qtypes[i]),
            "tokens": split.tokens[i, :split.lengths[i]].tolist(),
            "answer": int(split.answers[i]),
            "objects": objects,
        }
        lines.append((json.dumps(record) + "\n").encode())
    return b"".join(lines)


def write_features(split_path, array):
    """Write `array` as the features file beside the JSONL split at `split_path`."""
    np.save(Path(split_path).with_suffix(".features.npy"), array, allow_pickle=False)


class TestGeneration:
    def test_deterministic_per_seed(self, tmp_path):
        a = generate_dataset(DataConfig(n_train=50, n_test=20, seed=3))
        b = generate_dataset(DataConfig(n_train=50, n_test=20, seed=3))
        save_dataset(a, tmp_path / "a")
        save_dataset(b, tmp_path / "b")
        for name in ("train.jsonl", "test.jsonl", "test_iid.jsonl", "train.features.npy",
                     "test.features.npy", "test_iid.features.npy", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_written_bytes_match_golden_digests(self, tmp_path):
        # pins the per-(seed, split, index) draw order and the file layout
        save_dataset(generate_dataset(DataConfig(n_train=40, n_test=15, seed=6)), tmp_path)
        golden = {
            "train.jsonl": "945549653509e48a9a37f0a87ae005be0e2d500624ab4fe82f8bcfa6760076d5",
            "train.features.npy":
                "c6e89ccde1cbf81ffa986b503c1e7275547f14e2685fdf552a56f115000d3649",
            "test.jsonl": "e1e9e0fcecefaf4a915535d872ad5af8ec9afe5ef41fc68d4262b4827f64b5e8",
            "test.features.npy":
                "1e025842e568633135bae2790f779987a1bec50d46b773548152fa27b95cfbc5",
            "test_iid.jsonl": "ce8dc886773715d12e2af6792eba57db33d264ca7da63dab0fc5ff07a69a72e2",
            "test_iid.features.npy":
                "36bab4bba87e12cc03d982e6d67aa7e7eedc8e1437111fcfe1e3ef05e2d9f490",
            "manifest.json": "2339e99504bf0cc1b5619a965c53163c504920fe2e7330838fa3e0a1ab38e47b",
        }
        for name, digest in golden.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name

    def test_wide_config_bytes_match_golden_digests(self, tmp_path):
        # 8 shapes, 8 colors and count_max 5 reach every template branch:
        # color, exists answered yes (1-5 targets) and no, and counts 0-5
        cfg = DataConfig(shapes=8, colors=8, count_max=5, n_train=60, n_test=20, seed=9)
        ds = generate_dataset(cfg)
        templates = ds.train.qtypes // cfg.shapes
        exists = {ds.vocab.answers[a] for a in ds.train.answers[templates == 1]}
        counts = {ds.vocab.answers[a] for a in ds.train.answers[templates == 2]}
        assert set(templates.tolist()) == {0, 1, 2} and exists == {"yes", "no"}
        assert {"0", "5"} <= counts
        save_dataset(ds, tmp_path)
        golden = {
            "train.jsonl": "a8bc6bbf6e9427313a7eea04dd9e7dc2e36e4558ba082a301fade584644c918a",
            "train.features.npy":
                "6d6428d9f480c6396ad21d3ed64314950c4b00eaea6c79d8daef6442afbb5827",
            "test.jsonl": "6487155daef65e939b9e8a8d33ef9e55e63d3817b1eb8cd4f443514c0efd46dd",
            "test.features.npy":
                "12da29c218de243d06e282b5eb5b21050ae83130cb9af47d5f15d3473a674915",
            "test_iid.jsonl": "0e9d20ff50ab08026eba51148b1abd4801bd3e9f4e716cd89cc7449b57093f05",
            "test_iid.features.npy":
                "b57d32903df933fb8f83c9e92203298dfa64ffd57783aa3d9d990d96986ca0c9",
            "manifest.json": "22ae26ac9536bb01e84c4e79a6850e0b3c292c5abca2f02eb4e4357ffae37ce2",
        }
        for name, digest in golden.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name

    @pytest.mark.parametrize("config,golden", [
        (DataConfig(n_train=40, n_test=15, seed=6), {
            "train": "34b393edd53769b4314818ef4eca6621d4dae83e170d6c8fc680191d7116e693",
            "test": "68e6bc166e582c69ac9546c4b54647d085ded412a5a1931acf37a8ebf048e6eb",
            "test_iid": "1b92a819adecf358d39d5535e8c38dfceec469ba24c8135cd1bfef57b7bddf5d"}),
        (DataConfig(shapes=8, colors=8, count_max=5, n_train=60, n_test=20, seed=9), {
            "train": "893899b2fbc6eed1d177c9235de5e304502a702123f2fc3baa13c96453457830",
            "test": "c3010648c81b8db2cc0a39fe8cf9d2a3c4e283026c694e292c72814ceabd06d7",
            "test_iid": "13b04772d4052e1104d7627a1f841321efcfb87f930d2d42db63dd7310055aa6"})],
        ids=["seed6", "wide"])
    def test_loaded_columns_match_golden_digests(self, tmp_path, config, golden):
        """Whatever the file layout, a saved dataset loads as the same columns:
        the ids, the six id columns and both feature arrays, with their dtypes
        and shapes, read from the split caches and again from the files alone."""
        def digests(ds):
            out = {}
            for name, split in ds.splits().items():
                digest = hashlib.sha256(json.dumps(split.ids).encode())
                for column in ("qtypes", "tokens", "lengths", "answers", "shapes", "colors",
                               "visual", "labels"):
                    array = getattr(split, column)
                    digest.update(f"{column} {array.dtype.str} {array.shape}".encode())
                    digest.update(np.ascontiguousarray(array).tobytes())
                out[name] = digest.hexdigest()
            return out

        save_dataset(generate_dataset(config), tmp_path)
        assert digests(load_dataset(tmp_path)) == golden
        for cache in tmp_path.glob("*.jsonl.columns"):
            cache.unlink()
        assert digests(load_dataset(tmp_path)) == golden

    @pytest.mark.parametrize("overrides", [
        {},
        {"shapes": 2},                                  # one distractor shape
        {"colors": 2},
        {"shapes": 2, "colors": 2, "objects_per_scene": 3, "count_max": 3},
        {"objects_per_scene": 4, "count_max": 4},       # count_max == objects_per_scene
        {"rho_train": 0.0, "rho_test": 1.0},
        {"rho_train": 1.0, "rho_test": 0.0},
        {"rho_train": 1 / 5, "rho_test": 1 / 2},        # 1/m for color, exists types
        {"objects_per_scene": 1, "count_max": 1},       # k=1: no distractors
        {"shapes": 8, "colors": 8, "count_max": 5}])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_draws_match_choice_based_generator(self, overrides, seed):
        cfg = DataConfig(n_train=40, n_test=25, seed=seed, **overrides)
        ds = generate_dataset(cfg)
        for name, split in ds.splits().items():
            oracle = choice_split(name, len(split), cfg, ds.vocab, ds.bias, ds.feature_map)
            for column, expected in oracle.items():
                got = getattr(split, column)
                assert got.dtype == expected.dtype and got.shape == expected.shape, column
                assert got.tobytes() == expected.tobytes(), (name, column)

    @pytest.mark.parametrize("seed", [0, 2**70])
    def test_blocks_match_choice_based_generator(self, seed):
        # 600 rows end in a partial block, 256 fill exactly one
        cfg = DataConfig(n_train=600, n_test=D._BLOCK, seed=seed)
        ds = generate_dataset(cfg)
        for name, split in ds.splits().items():
            oracle = choice_split(name, len(split), cfg, ds.vocab, ds.bias, ds.feature_map)
            for column, expected in oracle.items():
                assert getattr(split, column).tobytes() == expected.tobytes(), (name, column)

    def test_uniform_bias_limit(self):
        cfg = DataConfig(n_train=3000, n_test=3000, rho_train=1 / 5, rho_test=1 / 5, seed=1)
        ds = generate_dataset(cfg)
        qtype = 0  # a color type: 5 possible answers
        uniform = np.zeros(ds.vocab.answer_count)
        uniform[ds.bias[qtype].answers] = 1 / 5
        for split in (ds.train, ds.test):
            hist = answer_distribution(split, qtype, ds.vocab.answer_count)
            assert 0.5 * np.abs(hist - uniform).sum() < 0.12

    def test_majority_frequency_concentrates(self):
        cfg = DataConfig(n_train=5000, n_test=100, rho_train=0.8, seed=2)
        ds = generate_dataset(cfg)
        qtype = 0
        hist = answer_distribution(ds.train, qtype, ds.vocab.answer_count)
        assert 0.75 <= hist[ds.bias[qtype].train_majority] <= 0.85

    def test_train_and_test_majorities_differ(self, small_ds):
        for bias in small_ds.bias.values():
            assert bias.train_majority != bias.test_majority

    def test_scene_consistency(self, small_ds):
        cfg = small_ds.config
        train = small_ds.train
        for i in range(300):
            template = D.TEMPLATES[train.qtypes[i] // cfg.shapes]
            is_target = train.shapes[i] == train.qtypes[i] % cfg.shapes
            n_target = int(is_target.sum())
            answer_name = small_ds.vocab.answers[train.answers[i]]
            if template == "color":
                assert n_target == 1
                color = train.colors[i][is_target][0]
                assert small_ds.vocab.colors[color] == answer_name
            elif template == "exists":
                assert (n_target >= 1) == (answer_name == "yes")
            else:
                assert n_target == int(answer_name)

    def test_target_object_position_varies(self, small_ds):
        # color questions: the single target-shape object must move around
        positions = []
        cfg = small_ds.config
        train = small_ds.train
        for i in range(len(train)):
            if train.qtypes[i] < cfg.shapes:  # color template
                target = train.qtypes[i] % cfg.shapes
                positions.append(int(np.argmax(train.shapes[i] == target)))
        share_at_zero = positions.count(0) / len(positions)
        assert 0.02 < share_at_zero < 0.4

    def test_all_test_answers_occur_in_train(self, default_ds):
        ds = default_ds
        train_answers = set(ds.train.answers.tolist())
        assert set(ds.test.answers.tolist()) <= train_answers
        assert set(ds.test_iid.answers.tolist()) <= train_answers

    def test_invalid_configs_rejected(self):
        for values, message in [
                (dict(shapes=1), "shapes must be an integer in [2, 8], got 1"),
                (dict(colors=9), "colors must be an integer in [2, 8], got 9"),
                (dict(objects_per_scene=2, count_max=3),
                 "count_max must be at most objects_per_scene (2), got 3"),
                (dict(n_train=0), "n_train must be an integer in [1, inf), got 0")]:
            with pytest.raises(ConfigError) as err:
                DataConfig(**values)
            assert str(err.value) == message

    # each case keeps the id it was first collected under: the rule it checks,
    # in the words of the per-field checks that `check_fields` replaced
    @pytest.mark.parametrize("field,value,message", [
        pytest.param("objects_per_scene", 0,
                     "objects_per_scene must be an integer in [1, inf), got 0",
                     id="objects_per_scene-0-scenes need at least one object"),
        pytest.param("d_v", 0, "d_v must be an integer in [1, inf), got 0",
                     id="d_v-0-d_v must be at least 1, got 0"),
        pytest.param("d_w", -2, "d_w must be an integer in [1, inf), got -2",
                     id="d_w--2-d_w must be at least 1, got -2"),
        pytest.param("noise_v", -1.0, "noise_v must be a finite number in [0, inf), got -1.0",
                     id="noise_v--1.0-noise_v must be finite and non-negative, got -1.0"),
        pytest.param("noise_v", float("nan"),
                     "noise_v must be a finite number in [0, inf), got nan",
                     id="noise_v-nan-noise_v must be finite and non-negative, got nan"),
        pytest.param("noise_l", float("inf"),
                     "noise_l must be a finite number in [0, inf), got inf",
                     id="noise_l-inf-noise_l must be finite and non-negative, got inf"),
        pytest.param("rho_train", 1.5, "rho_train must be a finite number in [0, 1], got 1.5",
                     id="rho_train-1.5-rho_train must lie in [0, 1], got 1.5"),
        pytest.param("rho_train", -0.1, "rho_train must be a finite number in [0, 1], got -0.1",
                     id="rho_train--0.1-rho_train must lie in [0, 1], got -0.1"),
        pytest.param("rho_train", float("nan"),
                     "rho_train must be a finite number in [0, 1], got nan",
                     id="rho_train-nan-rho_train must lie in [0, 1], got nan"),
        pytest.param("rho_test", float("inf"),
                     "rho_test must be a finite number in [0, 1], got inf",
                     id="rho_test-inf-rho_test must lie in [0, 1], got inf"),
        pytest.param("seed", -1, "seed must be an integer in [0, inf), got -1",
                     id="seed--1-seed must be a non-negative integer, got -1"),
        pytest.param("seed", 1.5, "seed must be an integer in [0, inf), got 1.5",
                     id="seed-1.5-seed must be a non-negative integer, got 1.5"),
        pytest.param("seed", "3", "seed must be an integer in [0, inf), got '3'",
                     id="seed-3-seed must be a non-negative integer, got '3'"),
        pytest.param("seed", True, "seed must be an integer in [0, inf), got True",
                     id="seed-True-seed must be a non-negative integer, got True"),
        pytest.param("seed", np.int64(3), "seed must be an integer in [0, inf), got np.int64(3)",
                     id="seed-value14-seed must be a non-negative integer, got np.int64(3)"),
        pytest.param("n_train", "30", "n_train must be an integer in [1, inf), got '30'",
                     id="n_train-30-n_train must be an integer, got '30'"),
        pytest.param("d_v", 2.5, "d_v must be an integer in [1, inf), got 2.5",
                     id="d_v-2.5-d_v must be an integer, got 2.5"),
        pytest.param("shapes", True, "shapes must be an integer in [2, 8], got True",
                     id="shapes-True-shapes must be an integer, got True"),
        pytest.param("count_max", None, "count_max must be an integer in [1, inf), got None",
                     id="count_max-None-count_max must be an integer, got None"),
        pytest.param("n_test", np.int64(3),
                     "n_test must be an integer in [1, inf), got np.int64(3)",
                     id="n_test-value19-n_test must be an integer, got np.int64(3)"),
        pytest.param("noise_v", "0.1", "noise_v must be a finite number in [0, inf), got '0.1'",
                     id="noise_v-0.1-noise_v must be a number, got '0.1'"),
        pytest.param("rho_train", True, "rho_train must be a finite number in [0, 1], got True",
                     id="rho_train-True-rho_train must be a number, got True"),
        pytest.param("rho_test", [0.5], "rho_test must be a finite number in [0, 1], got [0.5]",
                     id="rho_test-value22-rho_test must be a number, got [0.5]")])
    def test_config_refusal_names_the_field(self, field, value, message):
        with pytest.raises(ConfigError) as err:
            DataConfig(**{field: value})
        assert str(err.value) == message


class TestStreamStates:
    """`_stream_states` gives, block by block, the streams that
    `default_rng(SeedSequence([seed, split, i]))` starts."""

    @staticmethod
    def states(seed, split_code, n):
        return [state for start in range(0, n, D._BLOCK)
                for state in D._stream_states(seed, split_code,
                                              start, min(start + D._BLOCK, n))]

    @staticmethod
    def draws(rng):
        """One of each kind of draw `_generate_split` makes."""
        return [rng.integers(18), rng.random(), rng.integers(0, [5, 4, 5, 4, 5]),
                rng.permutation(8), rng.normal(size=(8, 48))]

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**70])
    @pytest.mark.parametrize("split_code", sorted(D._SPLIT_CODES.values()))
    @pytest.mark.parametrize("n", [D._BLOCK - 56, D._BLOCK, 2 * D._BLOCK + 88])
    def test_states_and_draws_match_seed_sequence(self, seed, split_code, n):
        states = self.states(seed, split_code, n)
        assert len(states) == n
        for i, (state, inc) in enumerate(states):
            expected = np.random.default_rng(np.random.SeedSequence([seed, split_code, i]))
            assert expected.bit_generator.state["state"] == {"state": state, "inc": inc}, i
        bits = np.random.PCG64()
        for i in sorted({0, D._BLOCK - 1, D._BLOCK, n - 1} & set(range(n))):
            state, inc = states[i]
            bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                          "has_uint32": 0, "uinteger": 0}
            expected = np.random.default_rng(np.random.SeedSequence([seed, split_code, i]))
            for got, want in zip(self.draws(np.random.Generator(bits)), self.draws(expected)):
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), i


class TestChangingPriors:
    def test_default_config_separates_priors(self, default_ds):
        ds = default_ds
        a = ds.vocab.answer_count
        for qtype in range(num_question_types(ds.config)):
            p = answer_distribution(ds.train, qtype, a)
            q = answer_distribution(ds.test, qtype, a)
            assert 0.5 * np.abs(p - q).sum() >= 0.3, f"type {qtype} insufficiently shifted"

    def test_iid_split_matches_train_priors(self, small_ds):
        # both train and the iid test split should sit near the same
        # theoretical skewed prior
        a = small_ds.vocab.answer_count
        for qtype in (0, 5, 9):
            bias = small_ds.bias[qtype]
            theory = np.zeros(a)
            theory[bias.answers] = D._answer_probs(bias, "train")
            for split in (small_ds.train, small_ds.test_iid):
                hist = answer_distribution(split, qtype, a)
                assert 0.5 * np.abs(hist - theory).sum() < 0.12


class TestSolvability:
    def test_nearest_centroid_on_clean_features_is_perfect(self, small_ds):
        cfg = small_ds.config
        centroids = small_ds.feature_map.T  # (S*K, d_v)
        for shape in range(cfg.shapes):
            for color in range(cfg.colors):
                clean = small_ds.feature_map[:, shape * cfg.colors + color]
                idx = np.argmin(((centroids - clean) ** 2).sum(axis=1))
                assert idx == shape * cfg.colors + color

    def test_nearest_centroid_with_default_noise(self, small_ds):
        cfg = small_ds.config
        centroids = small_ds.feature_map.T
        total = correct = 0
        train = small_ds.train
        for v, shape, color in zip(train.visual[:200].reshape(-1, cfg.d_v),
                                   train.shapes[:200].ravel(), train.colors[:200].ravel()):
            idx = int(np.argmin(((centroids - v) ** 2).sum(axis=1)))
            correct += idx == shape * cfg.colors + color
            total += 1
        assert correct / total >= 0.99


class TestAnswerDistribution:
    def test_degenerate_histogram(self, small_ds, split_rows):
        single = split_rows(small_ds.train, [0])
        hist = answer_distribution(single, single.qtypes[0], small_ds.vocab.answer_count)
        assert hist[single.answers[0]] == 1.0 and hist.sum() == 1.0

    def test_mode_at_majority(self):
        ds = generate_dataset(DataConfig(n_train=5000, n_test=100, seed=4))
        hist = answer_distribution(ds.train, 1, ds.vocab.answer_count)
        assert int(np.argmax(hist)) == ds.bias[1].train_majority
        assert abs(hist.max() - 0.8) < 0.06

    def test_normalization(self, small_ds):
        hist = answer_distribution(small_ds.train, 2, small_ds.vocab.answer_count)
        assert abs(hist.sum() - 1.0) < 1e-9

    def test_unknown_type_rejected(self, small_ds):
        with pytest.raises(KeyError):
            answer_distribution(small_ds.train, 999, small_ds.vocab.answer_count)


class TestSerialization:
    def test_round_trip_exact(self, tmp_path, small_ds, split_rows):
        split = split_rows(small_ds.train, slice(0, 3))
        path = tmp_path / "mini.jsonl"
        save_split(split, path)
        loaded = load_split(path, small_ds.config, small_ds.vocab, "mini")
        assert len(loaded) == 3
        assert loaded.ids == split.ids
        width = split.lengths.max()
        assert loaded.tokens.shape == (3, width)
        assert np.array_equal(loaded.tokens, split.tokens[:, :width])
        for column in ("qtypes", "lengths", "answers", "shapes", "colors", "visual",
                       "labels"):
            a, b = getattr(split, column), getattr(loaded, column)
            assert a.dtype == b.dtype and np.array_equal(a, b), column

    def test_edge_floats_round_trip_bit_exact(self, tmp_path, small_ds, split_rows):
        # signed zero, the smallest subnormal, the largest double, and values
        # a text writer cannot shorten by a fast path: below 1e-4, at or above
        # 1e16, power-of-two significands and odd 16-digit candidates
        edges = [-0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
                 1e-5, -3e-7, 1e16, 2.5e17, 0.5, -1024.0, 0.9985196810136125,
                 0.9065691321231881, -0.9014636363022173]
        split = split_rows(small_ds.train, slice(0, 2))
        split.visual.ravel()[:len(edges)] = edges
        split.labels.ravel()[-len(edges):] = edges
        path = tmp_path / "edges.jsonl"
        save_split(split, path)
        loaded = load_split(path, small_ds.config, small_ds.vocab)
        for column in ("visual", "labels"):
            a, b = getattr(split, column), getattr(loaded, column)
            assert a.dtype == b.dtype == np.float64 and a.shape == b.shape, column
            assert a.tobytes() == b.tobytes(), column

    def test_truncated_line_reports_line_number(self, tmp_path, small_ds, split_rows):
        split = split_rows(small_ds.train, slice(0, 2))
        path = tmp_path / "broken.jsonl"
        save_split(split, path)
        text = path.read_text().splitlines()
        path.write_text(text[0] + "\n" + text[1][: len(text[1]) // 2] + "\n")
        with pytest.raises(ValueError, match=":2"):
            load_split(path, small_ds.config, small_ds.vocab)

    def test_missing_field_named(self, tmp_path, small_ds):
        record = {"id": "x", "type": 0, "tokens": [0], "objects": []}
        path = tmp_path / "missing.jsonl"
        path.write_text(json.dumps(record) + "\n")
        write_features(path, np.zeros((1, 8, 48)))
        with pytest.raises(ValueError, match="answer"):
            load_split(path, small_ds.config, small_ds.vocab)

    @pytest.mark.parametrize("field,bad,message", [
        ("tokens", -1, "token id -1 out of range for vocabulary of size 14"),
        ("answer", 11, "answer id 11 out of range for answer vocabulary of size 11"),
        ("shape", 6, "object shape id 6 out of range for shape vocabulary of size 6"),
        ("color", -1, "object color id -1 out of range for color vocabulary of size 5"),
        ("objects", 7, "7 objects, expected objects_per_scene 8"),
        ("objects", 9, "9 objects, expected objects_per_scene 8"),
        ("question", None, "empty token list"),
        ("type", 99, "question type id 99 out of range for question types of size 18"),
        ("answer", "3", "answer id '3' is not an integer"),
        ("tokens=", 5, "'tokens' is not a list"),
        ("objects=", "scene", "'objects' is not a list"),
        ("object", 5, "object 1 is not a JSON object"),
        ("object", [1, 2], "object 1 is not a JSON object"),
        ("shape", None, "object 1 is missing field 'shape'"),
        ("color", None, "object 1 is missing field 'color'"),
        ("record", 5, "record is not a JSON object"),
        ("id=", [1], "example id [1] is not a string"),
        ("id=", {"a": 1}, "example id {'a': 1} is not a string"),
        ("id=", 5, "example id 5 is not a string"),
        ("id=", None, "example id None is not a string"),
        ("answer", True, "answer id True is not an integer"),
        ("tokens", 1.0, "token id 1.0 is not an integer"),
        ("shape", True, "object shape id True is not an integer"),
        ("type", 2**70, f"question type id {2**70} out of range for question types of size 18")])
    def test_out_of_range_ids_rejected_at_load(self, tmp_path, field, bad, message):
        save_dataset(generate_dataset(DataConfig(n_train=4, n_test=3, seed=2)), tmp_path)
        path = tmp_path / "train.jsonl"
        lines = path.read_text().splitlines()
        record = json.loads(lines[2])
        objects = record["objects"]
        if field == "record":
            record = bad
        elif field.endswith("="):  # the whole value replaced
            name = field[:-1]
            (record if name in record else objects[1])[name] = bad
        elif field == "tokens":
            record["tokens"][-1] = bad
        elif field == "question":
            record["tokens"] = []
        elif field in ("answer", "type"):
            record[field] = bad
        elif field == "objects":
            record["objects"] = (objects + objects)[:bad]
        elif field == "object":
            objects[1] = bad
        elif bad is None:
            del objects[1][field]
        else:
            objects[1][field] = bad
        lines[2] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as err:
            load_dataset(tmp_path)
        assert str(err.value) == f"{path}:3: {message}"

    @pytest.mark.parametrize("edits,where,message", [
        ({1: {("tokens", 0): 99}, 3: {("objects", 0): 5}},
         2, "token id 99 out of range for vocabulary of size 14"),
        ({1: {("objects", 0): 5}, 3: {("tokens", 0): 99}},
         2, "object 0 is not a JSON object"),
        ({1: {("answer",): 99}, 2: None},
         2, "answer id 99 out of range for answer vocabulary of size 11"),
        ({2: {("tokens",): [], ("answer",): 99, ("objects", 0, "shape"): 6}},
         3, "empty token list"),
        ({2: {("answer",): 99, ("objects", 0, "shape"): 6}},
         3, "answer id 99 out of range for answer vocabulary of size 11"),
        ({2: {("tokens",): [], ("objects", 1): 5}},
         3, "object 1 is not a JSON object")])
    def test_first_fault_in_file_order_is_named(self, tmp_path, edits, where, message):
        """The first refused line is named whichever check refuses it; within a
        line a JSON-structure fault comes before an empty question, and an
        empty question before an id out of range. Each edit sets values by
        their path in a record, or (None) cuts the line short."""
        save_dataset(generate_dataset(DataConfig(n_train=5, n_test=3, seed=2)), tmp_path)
        path = tmp_path / "train.jsonl"
        lines = path.read_text().splitlines()
        for i, changes in edits.items():
            if changes is None:
                lines[i] = lines[i][: len(lines[i]) // 2]
                continue
            record = json.loads(lines[i])
            for (*parents, last), value in changes.items():
                target = record
                for key in parents:
                    target = target[key]
                target[last] = value
            lines[i] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as err:
            load_dataset(tmp_path, splits=("train",))
        assert str(err.value) == f"{path}:{where}: {message}"

    def test_stack_batch_matches_json_records(self, tmp_path):
        save_dataset(generate_dataset(DataConfig(n_train=60, n_test=5, seed=8)), tmp_path)
        records = [json.loads(line)
                   for line in (tmp_path / "train.jsonl").read_text().splitlines()]
        features = np.load(tmp_path / "train.features.npy", allow_pickle=False)
        split = load_dataset(tmp_path).train
        batches = length_bucketed_batches(split, 16, np.random.default_rng(0))
        assert sorted(i for b in batches for i in b) == list(range(60))
        for batch in batches:
            visual, labels, tokens, answers = stack_batch(split, batch)
            rows = [records[i] for i in batch]
            assert np.array_equal(visual, features[batch, :, :split.visual.shape[2]])
            assert np.array_equal(labels, features[batch, :, split.visual.shape[2]:])
            assert np.array_equal(tokens, [r["tokens"] for r in rows])
            assert np.array_equal(answers, [r["answer"] for r in rows])
            assert [split.ids[i] for i in batch] == [r["id"] for r in rows]
        # a batch of mixed lengths keeps the -1 pad, which `embed` rejects
        short, long = int(np.argmin(split.lengths)), int(np.argmax(split.lengths))
        _, _, tokens, _ = stack_batch(split, [short, long])
        assert split.lengths[short] < split.lengths[long] and tokens[0, -1] == -1

    def test_empty_file_is_valid(self, tmp_path, small_ds):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        write_features(path, np.zeros((0, 8, 48)))
        empty = load_split(path, small_ds.config, small_ds.vocab)
        assert len(empty) == 0
        assert empty.visual.shape == (0, 8, 32) and empty.tokens.shape == (0, 0)

    def test_dataset_round_trip(self, tmp_path):
        ds = generate_dataset(DataConfig(n_train=40, n_test=15, seed=6))
        save_dataset(ds, tmp_path / "ds")
        loaded = load_dataset(tmp_path / "ds")
        assert loaded.config == ds.config
        assert loaded.vocab.tokens == ds.vocab.tokens
        assert np.array_equal(loaded.vocab.embedding, ds.vocab.embedding)
        assert len(loaded.train) == 40 and len(loaded.test) == 15
        assert loaded.bias[0] == ds.bias[0]

    def test_load_reads_only_the_named_splits(self, tmp_path):
        ds = generate_dataset(DataConfig(n_train=40, n_test=15, seed=6))
        save_dataset(ds, tmp_path)
        (tmp_path / "train.jsonl").unlink()
        (tmp_path / "test_iid.jsonl").write_text("not json\n")
        loaded = load_dataset(tmp_path, splits=("test",))
        assert list(loaded.splits()) == ["test"]
        assert loaded.test.ids == ds.test.ids
        assert np.array_equal(loaded.test.visual, ds.test.visual)
        for name in ("train", "test_iid"):
            with pytest.raises(KeyError, match=f"split '{name}' was not loaded; "
                                               "loaded splits: test"):
                getattr(loaded, name)
        with pytest.raises(ValueError, match="unknown split 'dev'"):
            load_dataset(tmp_path, splits=("dev",))
        with pytest.raises(FileNotFoundError, match="train.jsonl"):
            load_dataset(tmp_path)

    def test_partial_dataset_is_refused_before_writing(self, tmp_path):
        # load_dataset reads every split's histograms from the manifest, so a
        # dataset loaded in part cannot be saved as a whole one
        save_dataset(generate_dataset(DataConfig(n_train=40, n_test=15, seed=6)), tmp_path / "ds")
        partial = load_dataset(tmp_path / "ds", splits=("test",))
        out = tmp_path / "out"
        with pytest.raises(ValueError) as err:
            save_dataset(partial, out)
        assert str(err.value) == "cannot save a dataset missing splits: train, test_iid"
        assert not out.exists()

    @pytest.mark.parametrize("name,size", [("train", "n_train"), ("test_iid", "n_test")])
    def test_split_of_another_size_is_refused_before_writing(self, tmp_path, split_rows,
                                                             name, size):
        # load_dataset refuses a split whose record count is not its config's
        ds = generate_dataset(DataConfig(n_train=40, n_test=15, seed=6))
        ds.loaded[name] = split_rows(ds.split(name), slice(0, 3))
        out = tmp_path / "out"
        with pytest.raises(ValueError) as err:
            save_dataset(ds, out)
        assert str(err.value) == (f"cannot save split {name} of 3 records: the config's "
                                  f"{size} is {getattr(ds.config, size)}")
        assert not out.exists()

    @pytest.mark.parametrize("where,value", [("vocabularies.embedding", np.nan),
                                             ("feature_map", -np.inf)])
    def test_non_finite_table_is_refused_before_writing(self, tmp_path, where, value):
        # refused as `load_manifest` refuses the number `json.dumps` writes for it
        ds = generate_dataset(DataConfig(n_train=40, n_test=15, seed=6))
        table = ds.vocab.embedding if where == "vocabularies.embedding" else ds.feature_map
        table[1, 2] = value
        out = tmp_path / "out"
        with pytest.raises(ConfigError) as err:
            save_dataset(ds, out)
        assert str(err.value) == f"{where}.1 must be a list of finite numbers, got " \
                                 f"{table[1].tolist()!r}"
        assert not out.exists()

    def test_each_split_is_hashed_once(self, tmp_path, monkeypatch):
        """Each split's bytes go into one sha256 object, the one whose digest
        `save_dataset` returns."""
        real, fed = hashlib.sha256, []

        class Spy:
            def __init__(self, data=b""):
                self.inner, self.data = real(data), bytearray(data)
                fed.append(self.data)

            def update(self, data):   # bytes, or an array's buffer
                self.inner.update(data)
                self.data += memoryview(data).cast("B")

            def hexdigest(self):
                return self.inner.hexdigest()

        ds = generate_dataset(DataConfig(n_train=40, n_test=15, seed=6))
        monkeypatch.setattr(D.hashlib, "sha256", Spy)
        digests = save_dataset(ds, tmp_path)
        monkeypatch.undo()
        for name in ("train.jsonl", "test.jsonl", "test_iid.jsonl", "train.features.npy",
                     "test.features.npy", "test_iid.features.npy"):
            data = (tmp_path / name).read_bytes()
            assert [bytes(f) for f in fed if data in f] == [data], name
            assert digests[name] == hashlib.sha256(data).hexdigest(), name

    def test_label_features_encode_shape_only(self, small_ds):
        # objects of one shape share a label centroid regardless of color
        by_shape = {}
        train = small_ds.train
        for shape, l in zip(train.shapes[:200].ravel(),
                            train.labels[:200].reshape(-1, small_ds.config.d_w)):
            by_shape.setdefault(shape, []).append(l)
        for shape, vecs in by_shape.items():
            token = small_ds.vocab.token_ids[small_ds.vocab.shapes[shape]]
            centroid = small_ds.vocab.embedding[token]
            spread = np.stack(vecs) - centroid
            assert np.abs(spread).max() < 6 * small_ds.config.noise_l


def npy(array, allow_pickle=False) -> bytes:
    """The bytes `np.save` writes for `array`."""
    out = io.BytesIO()
    np.save(out, array, allow_pickle=allow_pickle)
    return out.getvalue()


def npy_header(shape, descr="<f8") -> bytes:
    """A `.npy` version 1.0 header for a C-order array, with no data after it."""
    out = io.BytesIO()
    np.lib.format.write_array_header_1_0(out, {"descr": descr, "fortran_order": False,
                                               "shape": shape})
    return out.getvalue()


class TestSplitFiles:
    """`save_split` writes one `json.dumps` line per record and one `.npy`
    array of features, and returns the sha256 of each file."""

    IDS = ['say "hi"', "back\\slash", "ünïcødé", "tab\tand\nnewline", "\U0001f600", "",
           "x\0"]

    def random_split(self, rng, n, k, d_v, d_w):
        features = rng.standard_normal((n, k, d_v + d_w)) * 10.0 ** rng.integers(-6, 18,
                                                                                  (n, k, 1))
        specials = [-0.0, np.nan, np.inf, 3e-5, 1e16, -2.5e17, 0.0, -np.inf, 5e-324, 0.5]
        count = min(len(specials), features.size)
        features.ravel()[rng.choice(features.size, count, replace=False)] = specials[:count]
        tokens = rng.integers(0, 14, (n, 6))
        return D.DatasetSplit(
            "random", [self.IDS[i % len(self.IDS)] + f"-{i}" for i in range(n)],
            rng.integers(0, 18, n), tokens, rng.integers(0, 7, n), rng.integers(0, 11, n),
            rng.integers(0, 6, (n, k)), rng.integers(0, 5, (n, k)),
            features[..., :d_v], features[..., d_v:])

    @pytest.mark.parametrize("k,d_v,d_w", [(8, 32, 16), (2, 3, 1)])
    @pytest.mark.parametrize("n", [0, 1, 37])
    def test_files_are_json_lines_and_one_npy_array(self, tmp_path, k, d_v, d_w, n):
        split = self.random_split(np.random.default_rng(n), n, k, d_v, d_w)
        path = tmp_path / "random.jsonl"
        digests = save_split(split, path)
        features = tmp_path / "random.features.npy"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(digests) == [
            "random.features.npy", "random.jsonl"]
        assert path.read_bytes() == json_dumps_lines(split)
        expected = np.concatenate([split.visual, split.labels], axis=2)
        assert features.read_bytes() == npy(expected)   # C order, float64, as `np.save` writes
        for file in (path, features):
            assert digests[file.name] == hashlib.sha256(file.read_bytes()).hexdigest()

    def test_generated_splits_match_json_dumps(self, tmp_path, small_ds, split_rows):
        for name, split in small_ds.splits().items():
            split = split_rows(split, slice(0, 500))
            save_split(split, tmp_path / f"{name}.jsonl")
            assert (tmp_path / f"{name}.jsonl").read_bytes() == json_dumps_lines(split), name

    @pytest.mark.parametrize("bad_id", [5, None, b"bytes", 1.5])
    def test_non_string_id_is_refused_before_writing(self, tmp_path, small_ds, split_rows,
                                                     bad_id):
        split = split_rows(small_ds.train, slice(0, 3))
        split.ids[1] = bad_id
        path = tmp_path / "bad.jsonl"
        with pytest.raises(ValueError) as err:
            save_split(split, path)
        assert str(err.value) == f"example id {bad_id!r} is not a string"
        assert list(tmp_path.iterdir()) == []


def shape_problem(shape) -> str:
    """Why a features file holding an array of `shape` is refused for the
    train split of `TestFeaturesFile` (4 records of 8 objects, 48 features
    each), the split file left as "{split}"."""
    return (f"holds an array of shape {shape}, expected (4, 8, 48): the 4 records of split "
            "file {split}, objects_per_scene, d_v + d_w")


class TestFeaturesFile:
    """`load_split` reads the features from the `.npy` file beside a split,
    checking its header before any data, and refuses a file that does not
    hold the split's features with one ValueError naming it."""

    @pytest.fixture
    def saved(self, tmp_path):
        """A saved dataset (4 train records, 8 objects, 48 features each), the
        train split's path, its features file and the features it holds."""
        ds = generate_dataset(DataConfig(n_train=4, n_test=3, seed=2))
        save_dataset(ds, tmp_path)
        features = tmp_path / "train.features.npy"
        return ds, tmp_path / "train.jsonl", features, np.load(features)

    @pytest.mark.parametrize("damage,problem", [
        (lambda a: npy(a.astype(np.float32)), "holds float32 values, expected float64"),
        (lambda a: npy(a.astype(np.int64)), "holds int64 values, expected float64"),
        (lambda a: npy(a.astype(object), allow_pickle=True),
         "holds object values, expected float64"),
        (lambda a: npy(a.reshape(4, -1)), shape_problem((4, 384))),
        (lambda a: npy(a[:3]), shape_problem((3, 8, 48))),
        (lambda a: npy(np.concatenate([a, a])), shape_problem((8, 8, 48))),
        (lambda a: npy(a[:, :7]), shape_problem((4, 7, 48))),
        (lambda a: npy(a[..., :47]), shape_problem((4, 8, 47))),
        (lambda a: npy(a)[:-8], "holds 12280 bytes after its header, expected 12288"),
        (lambda a: npy(a) + b"\0", "holds 12289 bytes after its header, expected 12288"),
        (lambda a: npy_header((4, 8, 48)), "holds 0 bytes after its header, expected 12288")],
        ids=["float32", "int64", "object", "2-d", "fewer-rows", "more-rows", "objects",
             "width", "truncated", "trailing-byte", "header-only"])
    def test_misfit_array_is_refused(self, saved, damage, problem):
        ds, split, features, array = saved
        features.write_bytes(damage(array))
        with pytest.raises(ValueError) as err:
            load_split(split, ds.config, ds.vocab)
        assert str(err.value) == f"features file {features} " + problem.format(split=split)

    @pytest.mark.parametrize("data,numpy_says", [
        (b"", "EOF: reading magic string"),
        (b"not an array at all", "the magic string is not correct"),
        (b"\x93NUMPY\x03\x00" + bytes(8), ".npy format version (3, 0) is not 1.0 or 2.0")])
    def test_file_that_is_not_npy_is_refused(self, saved, data, numpy_says):
        ds, split, features, _ = saved
        features.write_bytes(data)
        with pytest.raises(ValueError) as err:
            load_split(split, ds.config, ds.vocab)
        assert str(err.value).startswith(
            f"features file {features} is not a .npy array file: {numpy_says}")
        assert "\n" not in str(err.value)

    def test_header_is_checked_before_any_data(self, saved, monkeypatch):
        # a header claiming 2**40 rows (12 PiB) is refused by its row count,
        # before anything reads or allocates the data
        ds, split, features, _ = saved
        features.write_bytes(npy_header((1 << 40, 8, 48)))

        def no_read(*args, **kwargs):
            raise AssertionError("the data was read")

        monkeypatch.setattr(np, "load", no_read)
        with pytest.raises(ValueError) as err:
            load_split(split, ds.config, ds.vocab)
        assert str(err.value) == f"features file {features} " + shape_problem(
            (1 << 40, 8, 48)).format(split=split)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_is_named_by_row_and_line_on_every_load(self, tmp_path,
                                                                    monkeypatch, value):
        ds = generate_dataset(DataConfig(n_train=4, n_test=3, seed=2))
        ds.train.labels[2, 5, 3] = value
        save_dataset(ds, tmp_path)
        split = tmp_path / "train.jsonl"
        # the questions are fine, so they are cached; the features are read on every load
        assert split.with_name("train.jsonl.columns").exists()
        expected = (f"features file {tmp_path / 'train.features.npy'} row 2: non-finite object "
                    f"feature, for the record at {split}:3")
        for _ in range(2):
            with pytest.raises(ValueError) as err:
                load_split(split, ds.config, ds.vocab)
            assert str(err.value) == expected
            TestSplitCache.no_parse(monkeypatch)

    def test_non_finite_row_is_named_by_its_line_past_blank_lines(self, saved):
        ds, split, features, array = saved
        lines = split.read_text().splitlines(keepends=True)
        split.write_text("".join(lines[:1] + ["\n", "  \n"] + lines[1:]))
        array[1, 0, 0] = np.nan
        features.write_bytes(npy(array))
        with pytest.raises(ValueError) as err:
            load_split(split, ds.config, ds.vocab)
        assert str(err.value) == (f"features file {features} row 1: non-finite object feature, "
                                  f"for the record at {split}:4")

    def test_question_fault_is_named_before_a_features_fault(self, saved):
        ds, split, features, array = saved
        lines = split.read_text().splitlines()
        record = json.loads(lines[1])
        record["answer"] = 99
        lines[1] = json.dumps(record)
        split.write_text("\n".join(lines) + "\n")
        features.write_bytes(npy(array[:2]))
        with pytest.raises(ValueError) as err:
            load_split(split, ds.config, ds.vocab)
        assert str(err.value) == (f"{split}:2: answer id 99 out of range for answer vocabulary "
                                  "of size 11")

    @pytest.mark.parametrize("layout", [lambda a: a.astype(">f8"), np.asfortranarray],
                             ids=["big-endian", "fortran-order"])
    def test_same_values_in_another_layout_load_as_c_order_float64(self, saved, layout):
        ds, split, features, array = saved
        features.write_bytes(npy(layout(array)))
        loaded = load_split(split, ds.config, ds.vocab)
        for column in ("visual", "labels"):
            got, want = getattr(loaded, column), getattr(ds.train, column)
            assert got.dtype == np.dtype("<f8") and got.flags.c_contiguous, column
            assert got.tobytes() == want.tobytes(), column


class TestOldLayouts:
    """A split written before features moved to their own `.npy` file, or a
    cache written under an older tag, is refused or rewritten, never misread."""

    def test_split_without_its_features_file_is_refused(self, tmp_path, small_ds, split_rows):
        split = split_rows(small_ds.test, slice(0, 3))
        path = tmp_path / "test.jsonl"
        path.write_bytes(json_dumps_lines(split, older_layout=True))
        with pytest.raises(FileNotFoundError) as err:
            load_split(path, small_ds.config, small_ds.vocab)
        assert str(err.value) == (f"features file {tmp_path / 'test.features.npy'} not found "
                                  f"beside split file {path}, as in the older layout of "
                                  "features as text; re-run `vqalab gen-data`")

    def test_records_with_feature_lists_are_refused(self, tmp_path, small_ds, split_rows):
        split = split_rows(small_ds.test, slice(0, 3))
        path = tmp_path / "test.jsonl"
        save_split(split, path)
        path.write_bytes(json_dumps_lines(split, older_layout=True))   # beside a features file
        with pytest.raises(ValueError) as err:
            load_split(path, small_ds.config, small_ds.vocab)
        assert str(err.value) == (f"{path}:1: object 0 holds 'v' and 'l' feature lists, as "
                                  "splits of the older layout of features as text do; re-run "
                                  "`vqalab gen-data`")

    def test_v4_cache_misses_on_its_tag_and_is_rewritten(self, tmp_path, monkeypatch):
        ds = generate_dataset(DataConfig(n_train=4, n_test=12, seed=2))
        save_dataset(ds, tmp_path)
        path, cache = tmp_path / "test.jsonl", tmp_path / "test.jsonl.columns"
        current = cache.read_bytes()
        # the cache as v4 wrote it: its tag, and the features among its columns
        monkeypatch.setattr(D, "_CACHE_TAG", b"vqalab split columns v4\n")
        monkeypatch.setattr(D, "_CACHE_COLUMNS", D._CACHE_COLUMNS + ("visual", "labels"))
        columns = {c: getattr(ds.test, c) for c in ("ids",) + D._CACHE_COLUMNS}
        D._write_cache(cache, D._cache_key(ds.config, ds.vocab, D.digest_file(path)), columns)
        monkeypatch.undo()
        assert cache.read_bytes() != current
        parse, parsed = D._parse_split, []

        def counted(*args):
            parsed.append(args[0])
            return parse(*args)

        monkeypatch.setattr(D, "_parse_split", counted)
        split = load_split(path, ds.config, ds.vocab)
        assert parsed == [path] and cache.read_bytes() == current
        assert split.ids == ds.test.ids and split.answers.tolist() == ds.test.answers.tolist()


class TestSplitArrayBytes:
    """`split_array_bytes` gives a config's split array bytes without making
    them, and `generate_dataset` refuses, before any draw, a config whose
    arrays would not fit in physical memory."""

    def test_bytes_are_those_of_the_generated_arrays(self):
        cfg = DataConfig(n_train=40, n_test=15, seed=6)
        splits = generate_dataset(cfg).splits().values()
        assert {split.tokens.shape[1] for split in splits} == {5}   # a color question in each
        arrays = [getattr(split, f.name) for split in splits for f in dataclasses.fields(split)
                  if f.name not in ("name", "ids")]
        assert D.split_array_bytes(cfg) == sum(a.nbytes for a in arrays)
        # a size no machine holds is only arithmetic
        per_example = 8 * (3 + 5 + 2 * 8 + 8 * 48)
        assert D.split_array_bytes(DataConfig(n_train=10 ** 12)) == per_example * (10 ** 12 + 8000)

    @pytest.mark.parametrize("sizes,name", [((40, 15), "n_train"), ((20, 15), "n_test")])
    def test_config_beyond_physical_memory_is_refused_before_any_draw(self, monkeypatch,
                                                                      sizes, name):
        cfg = DataConfig(n_train=sizes[0], n_test=sizes[1], seed=6)
        needed = D.split_array_bytes(cfg)
        monkeypatch.setattr(D, "_physical_memory", lambda: needed)
        assert len(generate_dataset(cfg).train) == sizes[0]   # exactly fits

        def no_draw(*args):
            raise AssertionError("drew a split")

        monkeypatch.setattr(D, "_physical_memory", lambda: needed - 1)
        monkeypatch.setattr(D, "_generate_split", no_draw)
        with pytest.raises(ConfigError) as err:
            generate_dataset(cfg)
        assert str(err.value) == (f"{name} {getattr(cfg, name)} makes the splits' arrays "
                                  f"{needed} bytes, more than the {needed - 1} bytes of "
                                  "physical memory")

    def test_physical_memory_is_the_machines(self):
        assert D._physical_memory() == os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        assert D._physical_memory() > D.split_array_bytes(DataConfig())


class TestSplitCache:
    """`load_split` stores a parsed split's question columns in
    `<split>.jsonl.columns` and returns them only for the same JSONL bytes
    under the same checks."""

    @pytest.fixture
    def saved(self, tmp_path):
        """A saved dataset whose caches are deleted, so its first load parses."""
        ds = generate_dataset(DataConfig(n_train=4, n_test=12, seed=2))
        save_dataset(ds, tmp_path)
        for cache in tmp_path.glob("*.jsonl.columns"):
            cache.unlink()
        return ds, tmp_path / "test.jsonl"

    @staticmethod
    def no_parse(monkeypatch):
        """Make any further parse fail, so that a load that returns is a hit."""
        def refuse(*args):
            raise AssertionError("parsed although the cache should have been hit")
        monkeypatch.setattr(D, "_parse_split", refuse)

    def test_warm_load_equals_cold_load(self, saved, monkeypatch):
        ds, path = saved
        assert not path.with_name("test.jsonl.columns").exists()
        cold = load_split(path, ds.config, ds.vocab, "test")
        assert path.with_name("test.jsonl.columns").exists()
        self.no_parse(monkeypatch)
        warm = load_split(path, ds.config, ds.vocab, "renamed")
        assert (cold.name, warm.name) == ("test", "renamed")
        assert warm.ids == cold.ids == ds.test.ids
        assert all(type(i) is str for i in warm.ids)
        for column in ("qtypes", "tokens", "lengths", "answers", "shapes", "colors",
                       "visual", "labels"):
            a, b = getattr(cold, column), getattr(warm, column)
            assert a.dtype == b.dtype and a.shape == b.shape, column
            assert np.array_equal(a, b), column

    def test_first_load_after_saving_is_a_hit(self, tmp_path, monkeypatch):
        ds = generate_dataset(DataConfig(n_train=4, n_test=12, seed=2))
        save_dataset(ds, tmp_path)
        path = tmp_path / "test.jsonl"
        self.no_parse(monkeypatch)
        hit = load_split(path, ds.config, ds.vocab, "test")
        monkeypatch.undo()
        path.with_name("test.jsonl.columns").unlink()
        parsed = load_split(path, ds.config, ds.vocab, "test")
        assert hit.ids == parsed.ids == ds.test.ids
        for column in D._CACHE_COLUMNS + ("visual", "labels"):
            a, b = getattr(hit, column), getattr(parsed, column)
            assert a.dtype == b.dtype and a.shape == b.shape, column
            assert a.tobytes() == b.tobytes(), column

    @pytest.mark.parametrize("size", [0, 1000, 1 << 20, (1 << 20) * 2 + 12345],
                             ids=["empty", "shorter", "one-buffer", "longer"])
    def test_file_digest_is_the_key_prefix_then_every_byte(self, tmp_path, small_ds, size):
        # the reads go through one 1 MiB buffer; the key hashes the cache tag,
        # the config and vocabulary sizes, then the file's sha256 hex
        data = np.random.default_rng(size).bytes(size)
        path = tmp_path / "split.jsonl"
        path.write_bytes(data)
        digest = D.digest_file(path)
        assert digest == hashlib.sha256(data).hexdigest()
        vocab = small_ds.vocab
        sizes = [len(vocab.tokens), vocab.answer_count, len(vocab.shapes), len(vocab.colors)]
        prefix = D._CACHE_TAG + json.dumps([dataclasses.asdict(small_ds.config), sizes],
                                           sort_keys=True).encode()
        assert D._cache_key(small_ds.config, vocab, digest) == \
            hashlib.sha256(prefix + digest.encode()).hexdigest()

    def test_saved_digests_are_the_files(self, tmp_path):
        digests = save_dataset(generate_dataset(DataConfig(n_train=4, n_test=3, seed=2)),
                               tmp_path)
        assert sorted(digests) == ["manifest.json", "test.features.npy", "test.jsonl",
                                   "test_iid.features.npy", "test_iid.jsonl",
                                   "train.features.npy", "train.jsonl"]
        for name, digest in digests.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest

    # the edits whose ids also reach the manifest's histograms, with what it says
    MANIFEST_REFUSALS = {
        "question type id 99 out of range for question types of size 18":
            r"^histograms\.train must hold some of the question types \[0, 1, .*, 17\], "
            r"got \[.*, 99\]$",
        "answer id 11 out of range for answer vocabulary of size 11":
            r"^histograms\.train\.\d+ must hold 11 numbers, one per answer, got 12$"}

    @pytest.mark.parametrize("edit,message", [
        (lambda s: s.qtypes.__setitem__(1, 99),
         "question type id 99 out of range for question types of size 18"),
        (lambda s: s.tokens.__setitem__((1, 0), 14),
         "token id 14 out of range for vocabulary of size 14"),
        (lambda s: s.lengths.__setitem__(1, 0), "empty token list"),
        (lambda s: s.answers.__setitem__(1, 11),
         "answer id 11 out of range for answer vocabulary of size 11"),
        (lambda s: s.shapes.__setitem__((1, 2), 6),
         "object shape id 6 out of range for shape vocabulary of size 6"),
        (lambda s: s.colors.__setitem__((1, 0), -1),
         "object color id -1 out of range for color vocabulary of size 5")])
    def test_split_a_parse_refuses_is_not_cached(self, tmp_path, edit, message):
        ds = generate_dataset(DataConfig(n_train=4, n_test=3, seed=2))
        edit(ds.train)
        if message in self.MANIFEST_REFUSALS:
            # the histograms counted from these ids are refused before any file is written
            with pytest.raises(ConfigError, match=self.MANIFEST_REFUSALS[message]):
                save_dataset(ds, tmp_path)
            assert list(tmp_path.iterdir()) == []
            save_split(ds.train, tmp_path / "train.jsonl")
        else:
            save_dataset(ds, tmp_path)
            assert (tmp_path / "test.jsonl.columns").exists()
        assert not (tmp_path / "train.jsonl.columns").exists()
        # the split is read alone: the manifest's histograms, counted from
        # the same bad ids, may be refused first
        with pytest.raises(ValueError) as err:
            load_split(tmp_path / "train.jsonl", ds.config, ds.vocab)
        assert str(err.value) == f"{tmp_path / 'train.jsonl'}:2: {message}"

    def test_cached_tokens_are_trimmed_as_a_parse_trims_them(self, tmp_path, monkeypatch,
                                                            split_rows):
        ds = generate_dataset(DataConfig(n_train=40, n_test=3, seed=2))
        short = int(np.argmin(ds.train.lengths))
        ds.loaded["train"] = split_rows(ds.train, [short])
        ds.config = dataclasses.replace(ds.config, n_train=1)   # the split's own size
        ds.train.tokens[0, ds.train.lengths[0]:] = 7   # past the length: never written
        save_dataset(ds, tmp_path)
        self.no_parse(monkeypatch)
        tokens = load_split(tmp_path / "train.jsonl", ds.config, ds.vocab).tokens
        assert tokens.tolist() == [ds.train.tokens[0, :ds.train.lengths[0]].tolist()]

    def test_edit_after_a_warm_load_is_parsed(self, saved):
        ds, path = saved
        load_split(path, ds.config, ds.vocab)
        lines = path.read_text().splitlines()
        record = json.loads(lines[3])
        record["tokens"][0] = 99
        lines[3] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as err:
            load_split(path, ds.config, ds.vocab)
        assert str(err.value) == (f"{path}:4: token id 99 out of range for vocabulary "
                                  f"of size {len(ds.vocab.tokens)}")

    @staticmethod
    def stored_arrays(data: bytes) -> list:
        """Every `.npy` array of a cache file's bytes, in order."""
        fh, arrays = io.BytesIO(data), []
        while fh.tell() < len(data):
            arrays.append(np.lib.format.read_array(fh, allow_pickle=False))
        return arrays

    @staticmethod
    def trailing_bytes(data: bytes) -> bytes:
        return data + b"\0"

    @staticmethod
    def zip_archive(data: bytes) -> bytes:
        """The same key and columns as a `.npz` archive, the format of v1 caches."""
        out = io.BytesIO()
        np.savez(out, **dict(zip(("key", "ids") + D._CACHE_COLUMNS,
                                 TestSplitCache.stored_arrays(data))))
        return out.getvalue()

    @staticmethod
    def huge_header(data: bytes) -> bytes:
        """A first array whose header claims 8 TiB, which a read cannot allocate or fill."""
        out = io.BytesIO()
        np.lib.format.write_array_header_2_0(
            out, {"descr": "<f8", "fortran_order": False, "shape": (1 << 40,)})
        return out.getvalue() + data

    @staticmethod
    def flipped_column(data: bytes) -> bytes:
        """One bit of an object color id flipped, under the right key and headers."""
        arrays = TestSplitCache.stored_arrays(data)
        at = len(data) - len(arrays[-1].tobytes()) - 200   # inside `colors`, before the crc32
        return data[:at] + bytes([data[at] ^ 1]) + data[at + 1:]

    @pytest.mark.parametrize("damage", [lambda b: b[: len(b) // 2],
                                        lambda b: b"PK\x03\x04" + bytes(range(256)) * 4,
                                        lambda b: b"", trailing_bytes, zip_archive,
                                        huge_header, flipped_column])
    def test_damaged_cache_is_parsed_around_and_rewritten(self, saved, monkeypatch,
                                                          damage):
        ds, path = saved
        cache = path.with_name("test.jsonl.columns")
        load_split(path, ds.config, ds.vocab)
        written = cache.read_bytes()
        cache.write_bytes(damage(written))
        assert load_split(path, ds.config, ds.vocab).ids == ds.test.ids
        assert cache.read_bytes() == written
        self.no_parse(monkeypatch)
        assert np.array_equal(load_split(path, ds.config, ds.vocab).colors, ds.test.colors)

    def test_cache_file_is_the_key_ids_then_the_columns_as_npy_arrays(self, saved):
        ds, path = saved
        split = load_split(path, ds.config, ds.vocab)
        arrays = self.stored_arrays(path.with_name("test.jsonl.columns").read_bytes())
        key = D._cache_key(ds.config, ds.vocab, hashlib.sha256(path.read_bytes()).hexdigest())
        assert len(arrays) == 3 + len(D._CACHE_COLUMNS)
        assert arrays[0].shape == () and arrays[0].tolist() == key
        assert arrays[1].tolist() == split.ids == ds.test.ids
        for name, stored in zip(D._CACHE_COLUMNS, arrays[2:-1]):
            column = getattr(split, name)
            assert stored.dtype == column.dtype and stored.shape == column.shape, name
            assert np.array_equal(stored, column), name
        # last, the crc32 of the bytes of every array after the key
        crc = 0
        for stored in arrays[1:-1]:
            crc = zlib.crc32(stored.tobytes(), crc)
        assert arrays[-1].shape == () and arrays[-1].tolist() == crc

    def test_leftover_npz_cache_is_neither_read_nor_deleted(self, saved, monkeypatch):
        ds, path = saved
        load_split(path, ds.config, ds.vocab)
        cache = path.with_name("test.jsonl.columns")
        arrays = dict(zip(("key", "ids") + D._CACHE_COLUMNS,
                          self.stored_arrays(cache.read_bytes())))
        arrays["answers"] = arrays["answers"] + 1   # what a read of the archive would return
        leftover = path.with_name("test.jsonl.npz")
        np.savez(leftover, **arrays)
        before = leftover.read_bytes()
        cache.unlink()
        assert np.array_equal(load_split(path, ds.config, ds.vocab).answers, ds.test.answers)
        self.no_parse(monkeypatch)
        assert np.array_equal(load_split(path, ds.config, ds.vocab).answers, ds.test.answers)
        assert leftover.read_bytes() == before

    def test_smaller_vocabulary_misses_and_runs_the_range_checks(self, saved):
        ds, path = saved
        load_split(path, ds.config, ds.vocab)
        top = int(ds.test.tokens.max())
        smaller = dataclasses.replace(ds.vocab, tokens=ds.vocab.tokens[:top])
        with pytest.raises(ValueError, match=f"token id {top} out of range for "
                                             f"vocabulary of size {top}"):
            load_split(path, ds.config, smaller)

    def test_failed_write_returns_the_split_and_leaves_no_temp_file(self, saved,
                                                                    monkeypatch):
        ds, path = saved

        def unwritable(src, dst):
            raise PermissionError(f"cannot replace {dst}")

        monkeypatch.setattr(os, "replace", unwritable)
        before = sorted(p.name for p in path.parent.iterdir())
        assert "test.jsonl.columns" not in before   # so the load parses and writes
        split = load_split(path, ds.config, ds.vocab)
        assert split.ids == ds.test.ids
        assert sorted(p.name for p in path.parent.iterdir()) == before

    def test_failed_cache_write_still_saves_the_dataset(self, tmp_path, monkeypatch):
        ds = generate_dataset(DataConfig(n_train=4, n_test=3, seed=2))
        replaced = []

        def unwritable(src, dst):
            replaced.append(Path(dst).name)
            raise PermissionError(f"cannot replace {dst}")

        monkeypatch.setattr(os, "replace", unwritable)
        digests = save_dataset(ds, tmp_path)
        monkeypatch.undo()
        assert sorted(replaced) == ["test.jsonl.columns", "test_iid.jsonl.columns",
                                    "train.jsonl.columns"]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(digests) == [
            "manifest.json", "test.features.npy", "test.jsonl", "test_iid.features.npy",
            "test_iid.jsonl", "train.features.npy", "train.jsonl"]
        for name, digest in digests.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest
        loaded = load_dataset(tmp_path)
        for name, split in ds.splits().items():
            assert loaded.splits()[name].ids == split.ids
            assert np.array_equal(loaded.splits()[name].visual, split.visual)

    def test_ids_a_fixed_width_array_would_change_are_not_cached(self, tmp_path, small_ds):
        path = tmp_path / "nul.jsonl"
        record = {"id": "x\0", "type": 0, "tokens": [0], "answer": 0,
                  "objects": [{"shape": 0, "color": 0} for _ in range(8)]}
        path.write_text(json.dumps(record) + "\n")
        write_features(path, np.zeros((1, 8, 48)))
        for _ in range(2):
            assert load_split(path, small_ds.config, small_ds.vocab).ids == ["x\0"]
        assert not path.with_name("nul.jsonl.columns").exists()
