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


def json_dumps_lines(split):
    """The bytes of a split as `save_split` wrote them one `json.dumps` per
    record."""
    lines = []
    for i, example_id in enumerate(split.ids):
        record = {
            "id": example_id,
            "type": int(split.qtypes[i]),
            "tokens": split.tokens[i, :split.lengths[i]].tolist(),
            "answer": int(split.answers[i]),
            "objects": [{"shape": s, "color": c, "v": v, "l": l}
                        for s, c, v, l in zip(split.shapes[i].tolist(),
                                              split.colors[i].tolist(),
                                              split.visual[i].tolist(),
                                              split.labels[i].tolist())],
        }
        lines.append((json.dumps(record) + "\n").encode())
    return b"".join(lines)


class TestGeneration:
    def test_deterministic_per_seed(self, tmp_path):
        a = generate_dataset(DataConfig(n_train=50, n_test=20, seed=3))
        b = generate_dataset(DataConfig(n_train=50, n_test=20, seed=3))
        save_dataset(a, tmp_path / "a")
        save_dataset(b, tmp_path / "b")
        for name in ("train.jsonl", "test.jsonl", "test_iid.jsonl", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_written_bytes_match_golden_digests(self, tmp_path):
        # pins the per-(seed, split, index) draw order and the JSON layout
        save_dataset(generate_dataset(DataConfig(n_train=40, n_test=15, seed=6)), tmp_path)
        golden = {
            "train.jsonl": "80c09bb2f24d338b1d288ce4817d924504075272d00570a26184c71aecf15c08",
            "test.jsonl": "6e19089f174a912c248201b7823bc71a61e1aa7824e1d6eb9e389f0b314d998f",
            "test_iid.jsonl": "4270115254e3951c414bc76f02a67ec073251faa866e17e8420e53b48928397d",
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
            "train.jsonl": "4f49979248c98c6fe9bc61a0eacd90df27592596851728e95231209e73c43ad2",
            "test.jsonl": "c069dcebdf9c334c37159e47f0af92eed178ee9781d2a732a084dfb3024012af",
            "test_iid.jsonl": "60a011dc106416482f11a0d4a323dc568f274ae452f1dcc5d617d3c7b505a18f",
            "manifest.json": "22ae26ac9536bb01e84c4e79a6850e0b3c292c5abca2f02eb4e4357ffae37ce2",
        }
        for name, digest in golden.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name

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
        with pytest.raises(ValueError, match="answer"):
            load_split(path, small_ds.config, small_ds.vocab)

    @pytest.mark.parametrize("field,bad,message", [
        ("tokens", -1, "token id -1 out of range for vocabulary of size 14"),
        ("answer", 11, "answer id 11 out of range for answer vocabulary of size 11"),
        ("shape", 6, "object shape id 6 out of range for shape vocabulary of size 6"),
        ("color", -1, "object color id -1 out of range for color vocabulary of size 5"),
        ("objects", 7, "7 objects, expected objects_per_scene 8"),
        ("objects", 9, "9 objects, expected objects_per_scene 8"),
        ("v", 31, "object 1 has 31 'v' values, expected d_v 32"),
        ("l", 17, "object 1 has 17 'l' values, expected d_w 16"),
        ("v", float("nan"), "non-finite object feature"),
        ("l", float("inf"), "non-finite object feature"),
        ("question", None, "empty token list"),
        ("type", 99, "question type id 99 out of range for question types of size 18"),
        ("v", "x", "non-numeric 'v' value"),
        ("answer", "3", "answer id '3' is not an integer"),
        ("v=", 5, "object 1 'v' is not a list"),
        ("tokens=", 5, "'tokens' is not a list"),
        ("objects=", "scene", "'objects' is not a list"),
        ("object", 5, "object 1 is not a JSON object"),
        ("object", [1, 2], "object 1 is not a JSON object"),
        ("shape", None, "object 1 is missing field 'shape'"),
        ("color", None, "object 1 is missing field 'color'"),
        ("v", None, "object 1 is missing field 'v'"),
        ("l", None, "object 1 is missing field 'l'"),
        ("v", [1, 2], "non-numeric 'v' value"),
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
        elif field in ("v", "l") and isinstance(bad, int):  # a vector of the wrong length
            objects[1][field] = (objects[1][field] * 2)[:bad]
        elif field in ("v", "l"):  # one non-finite, non-numeric or nested value
            objects[1][field][3] = bad
        else:
            objects[1][field] = bad
        lines[2] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as err:
            load_dataset(tmp_path)
        assert str(err.value) == f"{path}:3: {message}"

    @pytest.mark.parametrize("edits,where,message", [
        ({1: {("tokens", 0): 99}, 3: {("objects", 0, "v"): 5}},
         2, "token id 99 out of range for vocabulary of size 14"),
        ({1: {("objects", 0, "v"): 5}, 3: {("tokens", 0): 99}},
         2, "object 0 'v' is not a list"),
        ({1: {("objects", 2, "l", 0): float("nan")}, 2: None},
         2, "non-finite object feature"),
        ({2: {("tokens",): [], ("answer",): 99, ("objects", 0, "v", 1): float("inf")}},
         3, "empty token list"),
        ({2: {("answer",): 99, ("objects", 0, "v", 1): float("inf")}},
         3, "answer id 99 out of range for answer vocabulary of size 11"),
        ({2: {("tokens",): [], ("objects", 1, "l"): 5}},
         3, "object 1 'l' is not a list")])
    def test_first_fault_in_file_order_is_named(self, tmp_path, edits, where, message):
        """The first refused line is named whichever check refuses it; within a
        line a JSON-structure fault comes before an empty question, an empty
        question before an id out of range, and that before a non-finite
        feature. Each edit sets values by their path in a record, or (None)
        cuts the line short."""
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
        split = load_dataset(tmp_path).train
        batches = length_bucketed_batches(split, 16, np.random.default_rng(0))
        assert sorted(i for b in batches for i in b) == list(range(60))
        for batch in batches:
            visual, labels, tokens, answers = stack_batch(split, batch)
            rows = [records[i] for i in batch]
            assert np.array_equal(visual, [[o["v"] for o in r["objects"]] for r in rows])
            assert np.array_equal(labels, [[o["l"] for o in r["objects"]] for r in rows])
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

            def update(self, data):
                self.inner.update(data)
                self.data += data

            def hexdigest(self):
                return self.inner.hexdigest()

        ds = generate_dataset(DataConfig(n_train=40, n_test=15, seed=6))
        monkeypatch.setattr(D.hashlib, "sha256", Spy)
        digests = save_dataset(ds, tmp_path)
        monkeypatch.undo()
        for name in ("train.jsonl", "test.jsonl", "test_iid.jsonl"):
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


FAMILY_SIZE = 10 ** 6


def float_family(name, rng):
    """At least FAMILY_SIZE doubles aimed at one part of the float renderer."""
    n = FAMILY_SIZE
    if name == "normal":
        return rng.standard_normal(n)
    if name == "scaled":   # both notations and the bounds between them
        return rng.standard_normal(n) * 10.0 ** rng.integers(-6, 18, n)
    if name == "significands":   # random 53-bit significands times 2**-60 .. 2**0
        return (np.ldexp(rng.integers(2 ** 52, 2 ** 53, n).astype(float),
                         rng.integers(-112, -51, n)) * rng.choice([-1.0, 1.0], n))
    if name == "powers_of_ten":   # 10**k, k = -8 .. 20, and its next 17242 doubles each way
        bases = np.array([float(f"1e{k}") for k in range(-8, 21)]).view(np.int64)
        steps = np.arange(-(n // 58 + 1), n // 58 + 2)
        return (bases[:, None] + steps).ravel().view(np.float64)
    if name == "short":   # short reprs such as 0.1, 0.3 and 2.0
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-2, 6, n)
        decimals = rng.integers(0, 17, n)
        for d in range(17):
            values[decimals == d] = np.round(values[decimals == d], d)
        return values
    if name == "powers_of_two":   # ±2**k for every k, and 2500 doubles each way for |k| <= 50
        bases = np.ldexp(1.0, np.arange(-50, 51)).view(np.int64)
        near = (bases[:, None] + np.arange(-2500, 2501)).ravel().view(np.float64)
        values = np.concatenate([np.ldexp(1.0, np.arange(-1074, 1024)), near])
        return np.concatenate([values, -values])
    raise ValueError(name)


def assert_renders_as_json_dumps(values):
    """`_float_texts` gives, chunk by chunk, `json.dumps`'s text of the values
    joined by ", " and the end of each value's text."""
    for start in range(0, values.size, 1 << 16):
        chunk = values[start:start + (1 << 16)]
        last = np.zeros(chunk.size, dtype=bool)
        last[-1] = True
        text, ends = D._float_texts(chunk, last)
        expected = json.dumps(chunk.tolist())[1:-1].encode()
        if text != expected:
            pairs = zip(chunk, text.split(b", "), expected.split(b", "))
            value, got, want = next(p for p in pairs if p[1] != p[2])
            pytest.fail(f"{float(value).hex()}: rendered {got!r}, json.dumps {want!r}")
        # no float's text holds ", ", so each end but the last follows one
        chars = np.frombuffer(text, dtype=np.uint8)
        assert text.count(b", ") == chunk.size - 1 and ends[-1] == len(text)
        assert (np.diff(ends) > 0).all()
        assert (chars[ends[:-1] - 2] == ord(",")).all()
        assert (chars[ends[:-1] - 1] == ord(" ")).all()


class TestFloatText:
    """Every float is rendered as the text `json.dumps` writes for it, on the
    fast path or through the per-value fallback."""

    @pytest.mark.slow
    @pytest.mark.parametrize("family", ["normal", "scaled", "significands", "powers_of_ten",
                                        "short", "powers_of_two"])
    def test_families_match_json_dumps(self, family):
        values = float_family(family, np.random.default_rng(15))
        assert values.size >= FAMILY_SIZE
        assert_renders_as_json_dumps(values)

    def test_edge_values_match_json_dumps(self):
        edges = np.array([0.0, 5e-324, 1e-4, np.nextafter(1e-4, 0), 1e16,
                          np.nextafter(1e16, 0), np.inf, np.nan, 0.1, 0.3, 2.0, 1.0])
        assert_renders_as_json_dumps(np.concatenate([edges, -edges]))

    def test_most_default_features_take_the_fast_path(self, default_ds):
        features = np.concatenate([default_ds.train.visual[:2000].ravel(),
                                   default_ds.train.labels[:2000].ravel()])
        slow = D._shortest_digits(features)[3]
        assert slow.mean() < 0.05


class TestSplitWriter:
    """`save_split` writes the bytes one `json.dumps` per record gives."""

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
    @pytest.mark.parametrize("size", ["one", "block-1", "block", "block+1", "2blocks+3"])
    def test_bytes_match_json_dumps(self, tmp_path, k, d_v, d_w, size):
        block = D._FLOATS_PER_BLOCK // (k * (d_v + d_w))
        n = {"one": 1, "block-1": block - 1, "block": block, "block+1": block + 1,
             "2blocks+3": 2 * block + 3}[size]
        split = self.random_split(np.random.default_rng(n), n, k, d_v, d_w)
        path = tmp_path / "random.jsonl"
        digest = save_split(split, path)
        expected = json_dumps_lines(split)
        assert path.read_bytes() == expected
        assert digest == hashlib.sha256(expected).hexdigest()

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
        assert not path.exists()


class TestSplitCache:
    """`load_split` stores a parsed split's columns in `<split>.jsonl.columns`
    and returns them only for the same bytes under the same checks."""

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
        for column in D._CACHE_COLUMNS:
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
        assert sorted(digests) == ["manifest.json", "test.jsonl", "test_iid.jsonl",
                                   "train.jsonl"]
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
        (lambda s: s.visual.__setitem__((1, 2, 3), np.nan), "non-finite object feature"),
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
         "object color id -1 out of range for color vocabulary of size 5"),
        pytest.param(lambda s: s.labels.__setitem__((1, 4, 0), np.inf),
                     "non-finite object feature", id="labels-inf")])
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
    def flipped_feature(data: bytes) -> bytes:
        """One bit of a label feature flipped, under the right key and headers."""
        arrays = TestSplitCache.stored_arrays(data)
        at = len(data) - len(arrays[-1].tobytes()) - 200   # inside `labels`, before the crc32
        return data[:at] + bytes([data[at] ^ 1]) + data[at + 1:]

    @pytest.mark.parametrize("damage", [lambda b: b[: len(b) // 2],
                                        lambda b: b"PK\x03\x04" + bytes(range(256)) * 4,
                                        lambda b: b"", trailing_bytes, zip_archive,
                                        huge_header, flipped_feature])
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
        assert np.array_equal(load_split(path, ds.config, ds.vocab).visual, ds.test.visual)

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
        arrays["visual"] = arrays["visual"] + 1.0   # what a read of the archive would return
        leftover = path.with_name("test.jsonl.npz")
        np.savez(leftover, **arrays)
        before = leftover.read_bytes()
        cache.unlink()
        assert np.array_equal(load_split(path, ds.config, ds.vocab).visual, ds.test.visual)
        self.no_parse(monkeypatch)
        assert np.array_equal(load_split(path, ds.config, ds.vocab).visual, ds.test.visual)
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
            "manifest.json", "test.jsonl", "test_iid.jsonl", "train.jsonl"]
        for name, digest in digests.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest
        loaded = load_dataset(tmp_path)
        for name, split in ds.splits().items():
            assert loaded.splits()[name].ids == split.ids
            assert np.array_equal(loaded.splits()[name].visual, split.visual)

    def test_ids_a_fixed_width_array_would_change_are_not_cached(self, tmp_path, small_ds):
        path = tmp_path / "nul.jsonl"
        record = {"id": "x\0", "type": 0, "tokens": [0], "answer": 0,
                  "objects": [{"shape": 0, "color": 0, "v": [0.0] * 32, "l": [0.0] * 16}
                              for _ in range(8)]}
        path.write_text(json.dumps(record) + "\n")
        for _ in range(2):
            assert load_split(path, small_ds.config, small_ds.vocab).ids == ["x\0"]
        assert not path.with_name("nul.jsonl.columns").exists()
