import dataclasses
import json

import numpy as np
import pytest

from vqalab.data import DataConfig, generate_dataset
from vqalab.evaluate import (EvalReport, PredictionRecord, comparison_csv,
                             constant_majority_floor, evaluate_split, report_from_json,
                             report_to_json, summarize_predictions)
from vqalab.model import FusionConfig, ModelConfig, init_model


@pytest.fixture(scope="module")
def ds():
    return generate_dataset(DataConfig(shapes=3, colors=3, objects_per_scene=3,
                                       d_v=8, d_w=6, n_train=400, n_test=150,
                                       count_max=2, seed=5))


@pytest.fixture(scope="module")
def params(ds):
    cfg = ModelConfig(variant="baseline", d_v=8, d_w=6, hidden=6, refined_dim=4,
                      grounded_dim=8, pooled_dim=8,
                      answer_count=ds.vocab.answer_count,
                      vocab_size=len(ds.vocab.tokens), dropout=0.0, seed=1,
                      vgw_fusion=FusionConfig(8, 8, 2, 2),
                      obj_fusion=FusionConfig(8, 8, 2, 2))
    return init_model(cfg, embedding_vectors=ds.vocab.embedding)


def rows(split):
    """(id, qtype, answer) per example of a columnar split."""
    return zip(split.ids, split.qtypes.tolist(), split.answers.tolist())


def oracle_records(split):
    return [PredictionRecord(i, q, a, a) for i, q, a in rows(split)]


class TestSummaries:
    def test_oracle_predictor_scores_one(self, ds):
        report = summarize_predictions(oracle_records(ds.test),
                                       ds.vocab.answer_count, ds.type_names())
        assert report.overall == 1.0
        assert all(tr.accuracy == 1.0 for tr in report.per_type.values())

    def test_constant_majority_on_inverted_priors(self, ds):
        majorities = {qt: b.train_majority for qt, b in ds.bias.items()}
        records = [PredictionRecord(i, q, a, majorities[q]) for i, q, a in rows(ds.test)]
        report = summarize_predictions(records, ds.vocab.answer_count, ds.type_names())
        floor = constant_majority_floor(ds.train, ds.test)
        # counting oracle: per-type accuracy equals the test-split mass of the
        # train-majority answer
        for qt, tr in report.per_type.items():
            mass = tr.gt_histogram[majorities[qt]]
            assert tr.accuracy == pytest.approx(mass)
        assert report.overall == pytest.approx(floor, abs=1e-9)
        assert report.overall < 0.35

    def test_constant_majority_floor_breaks_ties_to_smallest_id(self, ds, split_rows):
        # type 0 answers 3, 1, 1, 3 in train (a tie), type 1 answers 2;
        # the eval rows answer 1, 3, 3, 2
        def hand_split(qtypes, answers):
            split = split_rows(ds.train, list(range(len(qtypes))))
            split.qtypes, split.answers = np.array(qtypes), np.array(answers)
            return split
        train_split = hand_split([0, 0, 0, 0, 1], [3, 1, 1, 3, 2])
        eval_split = hand_split([0, 0, 0, 1], [1, 3, 3, 2])
        assert constant_majority_floor(train_split, eval_split) == 2 / 4

    def test_uniform_random_predictor_near_chance(self, ds):
        rng = np.random.default_rng(0)
        color_ids = [ds.vocab.answer_ids[c] for c in ds.vocab.colors]
        color_types = [qt for qt in ds.bias if qt < ds.config.shapes]
        records = [PredictionRecord(i, q, a, int(rng.choice(color_ids)))
                   for i, q, a in rows(ds.test) if q in color_types]
        report = summarize_predictions(records, ds.vocab.answer_count, ds.type_names())
        k = len(color_ids)
        n = report.count
        assert abs(report.overall - 1 / k) < 3 * np.sqrt((1 / k) * (1 - 1 / k) / n)

    def test_type_weighted_mean_equals_overall(self, ds):
        rng = np.random.default_rng(1)
        records = [PredictionRecord(i, q, a, int(rng.integers(ds.vocab.answer_count)))
                   for i, q, a in rows(ds.test)]
        report = summarize_predictions(records, ds.vocab.answer_count, ds.type_names())
        per_type = report.per_type.values()
        weighted = sum(tr.count * tr.accuracy for tr in per_type) / sum(tr.count for tr in per_type)
        assert abs(weighted - report.overall) < 1e-9

    def test_histograms_normalized(self, ds):
        report = summarize_predictions(oracle_records(ds.train),
                                       ds.vocab.answer_count, ds.type_names())
        for tr in report.per_type.values():
            assert abs(sum(tr.gt_histogram) - 1.0) < 1e-9
            assert abs(sum(tr.pred_histogram) - 1.0) < 1e-9

    def test_permutation_invariance_over_example_order(self, ds):
        records = oracle_records(ds.test)
        rng = np.random.default_rng(2)
        shuffled = list(records)
        rng.shuffle(shuffled)
        a = summarize_predictions(records, ds.vocab.answer_count, ds.type_names())
        b = summarize_predictions(shuffled, ds.vocab.answer_count, ds.type_names())
        assert a.overall == b.overall
        for qt in a.per_type:
            assert a.per_type[qt].accuracy == b.per_type[qt].accuracy


def loop_summary(records, answer_count, type_names):
    """The per-record summary that counting replaced, kept as the oracle:
    (overall, {qtype: (name, count, accuracy, gt_histogram, pred_histogram)})."""
    by_type = {}
    for rec in records:
        by_type.setdefault(rec.qtype, []).append(rec)
    per_type = {}
    for qtype in sorted(by_type):
        group = by_type[qtype]
        gt_hist = np.zeros(answer_count)
        pred_hist = np.zeros(answer_count)
        acc = 0.0
        for rec in group:
            gt_hist[rec.answer] += 1
            pred_hist[rec.prediction] += 1
            acc += rec.prediction == rec.answer
        per_type[qtype] = (type_names.get(qtype, str(qtype)), len(group), acc / len(group),
                           (gt_hist / len(group)).tolist(), (pred_hist / len(group)).tolist())
    overall = sum(r.prediction == r.answer for r in records) / len(records)
    return overall, per_type


def drawn_records(rng, n, qtypes, answer_count, hit_rate):
    """n records over the given question types; about hit_rate of them correct."""
    records = []
    for i in range(n):
        answer = int(rng.integers(answer_count))
        hit = rng.random() < hit_rate
        records.append(PredictionRecord(f"ex-{i}", int(rng.choice(qtypes)), answer,
                                        answer if hit else int(rng.integers(answer_count))))
    return records


class TestCountedSummary:
    """summarize_predictions counts over columns; every float must equal the
    per-record loop's, bit for bit."""

    @staticmethod
    def assert_matches_loop(records, answer_count, type_names):
        report = summarize_predictions(records, answer_count, type_names)
        overall, per_type = loop_summary(records, answer_count, type_names)
        assert report.overall == overall and type(report.overall) is float
        assert list(report.per_type) == list(per_type)
        for qt, tr in report.per_type.items():
            assert type(qt) is int and type(tr.count) is int
            assert (tr.name, tr.count, tr.accuracy, tr.gt_histogram,
                    tr.pred_histogram) == per_type[qt]
            assert type(tr.accuracy) is float
            assert all(type(x) is float for x in tr.gt_histogram + tr.pred_histogram)

    @pytest.mark.parametrize("seed", range(8))
    def test_drawn_records_match_the_loop(self, seed):
        rng = np.random.default_rng(seed)
        answer_count = int(rng.integers(1, 12))
        qtypes = sorted(rng.choice(20, size=int(rng.integers(1, 7)), replace=False).tolist())
        # some types have names and some do not
        type_names = {qt: f"type {qt}" for qt in qtypes if rng.random() < 0.5}
        records = drawn_records(rng, int(rng.integers(1, 300)), qtypes, answer_count,
                                hit_rate=rng.random())
        self.assert_matches_loop(records, answer_count, type_names)
        rng.shuffle(records)
        self.assert_matches_loop(records, answer_count, type_names)

    @pytest.mark.parametrize("hit_rate", [0.0, 0.4, 1.0])
    def test_single_type_matches_the_loop(self, hit_rate):
        records = drawn_records(np.random.default_rng(3), 97, [4], 7, hit_rate)
        self.assert_matches_loop(records, 7, {4: "only"})
        self.assert_matches_loop(records, 7, {})

    @pytest.mark.parametrize("field,value", [("answer", -1), ("answer", 3),
                                             ("prediction", -1), ("prediction", 3)])
    def test_out_of_range_id_names_the_example_and_field(self, field, value):
        records = [PredictionRecord(f"ex-{i}", 0, i, i) for i in range(3)]
        setattr(records[1], field, value)
        with pytest.raises(ValueError) as err:
            summarize_predictions(records, 3, {})
        assert str(err.value) == (f"example 'ex-1': {field} id {value} out of range "
                                  "for 3 answers")

    @pytest.mark.parametrize("value", [1.5, 1.0, "1", None])
    def test_non_integer_id_refused(self, value):
        records = [PredictionRecord(f"ex-{i}", 0, i, i) for i in range(3)]
        records[1].answer = value
        with pytest.raises(ValueError, match="ids, not integers"):
            summarize_predictions(records, 3, {})


class TestEvaluateSplit:
    def test_deterministic_and_consistent(self, ds, params):
        a = evaluate_split(params, ds.test, ds)
        b = evaluate_split(params, ds.test, ds)
        assert a.overall == b.overall
        per_type = a.per_type.values()
        weighted = sum(tr.count * tr.accuracy for tr in per_type) / sum(tr.count for tr in per_type)
        assert abs(weighted - a.overall) < 1e-9
        assert a.count == len(ds.test)

    def test_empty_split_rejected(self, ds, params, split_rows):
        with pytest.raises(ValueError):
            evaluate_split(params, split_rows(ds.test, slice(0, 0)), ds)


class TestBiasGap:
    def test_oracle_gap_zero(self, ds):
        r_iid = summarize_predictions(oracle_records(ds.test_iid),
                                      ds.vocab.answer_count, ds.type_names())
        r_ood = summarize_predictions(oracle_records(ds.test),
                                      ds.vocab.answer_count, ds.type_names())
        assert r_iid.overall - r_ood.overall == 0.0

    def test_constant_majority_gap_positive(self, ds):
        majorities = {qt: b.train_majority for qt, b in ds.bias.items()}
        def const_records(split):
            return [PredictionRecord(i, q, a, majorities[q]) for i, q, a in rows(split)]
        r_iid = summarize_predictions(const_records(ds.test_iid),
                                      ds.vocab.answer_count, ds.type_names())
        r_ood = summarize_predictions(const_records(ds.test),
                                      ds.vocab.answer_count, ds.type_names())
        assert r_iid.overall - r_ood.overall > 0.3


def dumps_text(report):
    """The report file as `json.dumps` writes the report's `asdict`."""
    payload = dataclasses.asdict(report)
    payload["per_type"] = {str(qt): tr for qt, tr in payload["per_type"].items()}
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


class TestReportFiles:
    def test_json_round_trip(self, ds, params, tmp_path):
        report = evaluate_split(params, ds.test, ds)
        report.checkpoint = "ckpt.json"
        report.data_dir = "data"
        path = tmp_path / "report.json"
        report_to_json(report, path)
        loaded = report_from_json(path)
        assert loaded.overall == report.overall
        assert loaded.per_type.keys() == report.per_type.keys()
        assert loaded.predictions[0] == report.predictions[0]
        assert loaded.checkpoint == "ckpt.json"
        assert loaded.precision == report.precision == "float64"

    def test_bytes_match_the_asdict_payload(self, ds, params, tmp_path):
        report = evaluate_split(params, ds.test, ds)
        report.checkpoint, report.data_dir = "ckpt.json", "data"
        assert all(getattr(report, f.name) for f in dataclasses.fields(report))
        path = tmp_path / "report.json"
        report_to_json(report, path)
        oracle = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}
        oracle["per_type"] = {str(qt): dataclasses.asdict(tr)
                              for qt, tr in report.per_type.items()}
        oracle["predictions"] = [dataclasses.asdict(r) for r in report.predictions]
        assert path.read_text() == json.dumps(oracle, sort_keys=True, indent=1) + "\n"

    @pytest.mark.parametrize("example_id", [
        'say "hi"', "back\\slash", "caf\u00e9 \u2603 \U0001f600 \ud800",
        "tab\tnew\nline\x00\x1f\x7f", ""])
    def test_bytes_match_json_dumps_for_any_id(self, ds, params, tmp_path, example_id):
        report = evaluate_split(params, ds.test, ds)
        report.predictions[3].example_id = example_id
        report.predictions[-1].example_id = example_id * 2
        path = tmp_path / "report.json"
        report_to_json(report, path)
        assert path.read_text() == dumps_text(report)
        assert report_from_json(path).predictions == report.predictions

    @pytest.mark.parametrize("edit", [pytest.param(lambda r: r.predictions.clear(),
                                                   id="<lambda>0")])   # the id first collected
    def test_bytes_match_json_dumps_for_other_field_types(self, ds, params, tmp_path, edit):
        report = evaluate_split(params, ds.test, ds)
        edit(report)
        path = tmp_path / "report.json"
        report_to_json(report, path)
        assert path.read_text() == dumps_text(report)

    @pytest.mark.parametrize("index,name,value", [
        (0, "example_id", 5), (1, "prediction", True), (2, "answer", 2.0), (3, "qtype", None)])
    def test_writer_refuses_a_record_the_reader_would(self, ds, params, tmp_path, index, name,
                                                       value):
        report = evaluate_split(params, ds.test, ds)
        setattr(report.predictions[index], name, value)
        path = tmp_path / "out" / "report.json"
        with pytest.raises(ValueError) as err:
            report_to_json(report, path)
        assert str(err.value) == (
            f"prediction {index} must have a string example_id and integer qtype, answer and "
            f"prediction, got {report.predictions[index]!r}")
        assert not path.parent.exists()

    def test_comparison_csv_layout(self, ds, params, tmp_path):
        report = evaluate_split(params, ds.test, ds)
        path = tmp_path / "cmp.csv"
        comparison_csv(report, report, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "question_type,n,baseline,vgqe"
        assert lines[-1].startswith("overall,")
        assert len(lines) == 2 + len(report.per_type)

    def test_missing_report_named(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="gone"):
            report_from_json(tmp_path / "gone.json")

    @pytest.mark.parametrize("text,problem", [
        ('{"split": "te', "malformed JSON ("),
        ("[1, 2]", "top level is not a JSON object"),
        pytest.param('{"split": "test", "variant": "vgqe", "count": 0, "overall": 0.0, '
                     '"per_type": {}}', "predictions is missing",   # the id first collected
                     id='{"split": "test", "variant": "vgqe", "count": 0, "overall": 0.0, '
                        '"per_type": {}}-missing field \'predictions\'')])
    def test_malformed_report_named(self, tmp_path, text, problem):
        path = tmp_path / "report.json"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            report_from_json(path)
        assert str(err.value).startswith(f"evaluation report {path}: {problem}")
