import hashlib
import json

import numpy as np
import pytest

from vqalab import data as D
from vqalab.data import (DataConfig, GenerationError, answer_distribution,
                         generate_dataset, load_dataset, load_split,
                         num_question_types, save_dataset, save_split,
                         total_variation)
from vqalab.train import length_bucketed_batches, stack_batch

SMALL = DataConfig(n_train=1500, n_test=900, seed=0)


@pytest.fixture(scope="module")
def small_ds():
    return generate_dataset(SMALL)


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

    def test_uniform_bias_limit(self):
        cfg = DataConfig(n_train=3000, n_test=3000, rho_train=1 / 5, rho_test=1 / 5, seed=1)
        ds = generate_dataset(cfg)
        qtype = 0  # a color type: 5 possible answers
        uniform = np.zeros(ds.vocab.answer_count)
        uniform[ds.bias[qtype].answers] = 1 / 5
        for split in (ds.train, ds.test):
            hist = answer_distribution(split, qtype, ds.vocab.answer_count)
            assert total_variation(hist, uniform) < 0.12

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

    def test_all_test_answers_occur_in_train(self):
        ds = generate_dataset(DataConfig(seed=0, n_train=20000, n_test=4000))
        train_answers = set(ds.train.answers.tolist())
        assert set(ds.test.answers.tolist()) <= train_answers
        assert set(ds.test_iid.answers.tolist()) <= train_answers

    def test_invalid_configs_rejected(self):
        with pytest.raises(GenerationError):
            DataConfig(shapes=1)
        with pytest.raises(GenerationError, match="count"):
            DataConfig(objects_per_scene=2, count_max=3)
        with pytest.raises(GenerationError):
            DataConfig(n_train=0)


class TestChangingPriors:
    def test_default_config_separates_priors(self):
        ds = generate_dataset(DataConfig(seed=0, n_train=20000, n_test=4000))
        a = ds.vocab.answer_count
        for qtype in range(num_question_types(ds.config)):
            p = answer_distribution(ds.train, qtype, a)
            q = answer_distribution(ds.test, qtype, a)
            assert total_variation(p, q) >= 0.3, f"type {qtype} insufficiently shifted"

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
                assert total_variation(hist, theory) < 0.12


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
        ("record", 5, "record is not a JSON object")])
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
