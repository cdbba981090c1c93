"""Synthetic changing-priors VQA dataset.

Scenes are bags of colored shapes rendered straight to feature space: each
object's visual vector is a fixed random projection of its (shape, color)
one-hot plus Gaussian noise, and its label vector is the embedding of the
shape's name plus noise. Label vectors deliberately encode shape only, so
color is recoverable from the visual features alone.

Three question templates ask about color, existence, and count of a target
shape. Every (template, shape) pair is a question type with its own skewed
answer prior: the train split favors one majority answer, the out-of-
distribution test split favors a different one, which penalizes models that
answer from the question pattern alone. A matched iid test split drawn from
the train priors is generated alongside.

Word and object-label embeddings come from one shared frozen table (fixed per
dataset seed), standing in for a pre-trained embedding space. Example-level
randomness derives from (seed, split, index), so generation order never
matters.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

SHAPE_NAMES = ("cube", "sphere", "cone", "pyramid", "cylinder", "torus",
               "prism", "wedge")
COLOR_NAMES = ("red", "green", "blue", "yellow", "purple", "orange", "teal",
               "pink")
TEMPLATES = ("color", "exists", "count")
_SPLIT_CODES = {"train": 0, "test": 1, "test_iid": 2}


class GenerationError(ValueError):
    """Raised when a dataset configuration cannot produce consistent scenes."""


@dataclass
class DataConfig:
    shapes: int = 6
    colors: int = 5
    objects_per_scene: int = 8
    d_v: int = 32
    d_w: int = 16
    noise_v: float = 0.05
    noise_l: float = 0.05
    n_train: int = 20000
    n_test: int = 4000
    rho_train: float = 0.8
    rho_test: float = 0.8
    count_max: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.shapes < 2 or self.colors < 2:
            raise GenerationError("need at least two shapes and two colors")
        if self.shapes > len(SHAPE_NAMES) or self.colors > len(COLOR_NAMES):
            raise GenerationError("not enough names for the requested shapes/colors")
        if self.n_train < 1 or self.n_test < 1:
            raise GenerationError("splits must be non-empty")
        if not (1 <= self.count_max <= self.objects_per_scene):
            raise GenerationError("question type 'count': count_max must lie "
                                  "in [1, objects_per_scene]")
        if self.objects_per_scene < 1:
            raise GenerationError("scenes need at least one object")


@dataclass
class Vocabularies:
    tokens: list[str]
    answers: list[str]
    shapes: list[str]
    colors: list[str]
    embedding: np.ndarray          # (len(tokens), d_w), the shared frozen table

    @cached_property
    def token_ids(self) -> dict[str, int]:
        return {t: i for i, t in enumerate(self.tokens)}

    @cached_property
    def answer_ids(self) -> dict[str, int]:
        return {a: i for i, a in enumerate(self.answers)}

    @property
    def answer_count(self) -> int:
        return len(self.answers)


@dataclass
class TypeBias:
    answers: list[int]         # admissible answer ids for this type
    train_majority: int
    test_majority: int
    rho_train: float
    rho_test: float


@dataclass
class DatasetSplit:
    """One split as columns: row i of every array is example i. Token rows are
    padded with -1 past their length, so a pad that reaches `embed` fails its
    range check."""
    name: str
    ids: list[str]
    qtypes: np.ndarray           # (N,)
    tokens: np.ndarray           # (N, T_max), -1 past each row's length
    lengths: np.ndarray          # (N,)
    answers: np.ndarray          # (N,)
    shapes: np.ndarray           # (N, k) object shape ids
    colors: np.ndarray           # (N, k) object color ids
    visual: np.ndarray           # (N, k, d_v)
    labels: np.ndarray           # (N, k, d_w)

    def __len__(self) -> int:
        return len(self.ids)


@dataclass
class SyntheticDataset:
    config: DataConfig
    vocab: Vocabularies
    bias: dict[int, TypeBias]
    train: DatasetSplit
    test: DatasetSplit           # out-of-distribution priors
    test_iid: DatasetSplit       # matched split drawn from the train priors
    feature_map: np.ndarray      # (d_v, shapes*colors)

    def splits(self) -> dict[str, DatasetSplit]:
        return {"train": self.train, "test": self.test, "test_iid": self.test_iid}

    def type_names(self) -> dict[int, str]:
        return {qt: question_type_name(qt, self.config, self.vocab)
                for qt in range(num_question_types(self.config))}


def num_question_types(config: DataConfig) -> int:
    return len(TEMPLATES) * config.shapes


def question_type_name(qtype: int, config: DataConfig, vocab: Vocabularies) -> str:
    template, shape = divmod(qtype, config.shapes)
    words = template_tokens(TEMPLATES[template], vocab.shapes[shape])
    return " ".join(words)


def template_tokens(template: str, shape_name: str) -> list[str]:
    if template == "color":
        return ["what", "color", "is", "the", shape_name]
    if template == "exists":
        return ["is", "there", "a", shape_name]
    if template == "count":
        return ["how", "many", shape_name]
    raise GenerationError(f"unknown template {template!r}")


def build_vocabularies(config: DataConfig, rng: np.random.Generator) -> Vocabularies:
    shapes = list(SHAPE_NAMES[: config.shapes])
    colors = list(COLOR_NAMES[: config.colors])
    tokens = ["what", "color", "is", "the", "there", "a", "how", "many"] + shapes
    answers = colors + ["yes", "no"] + [str(i) for i in range(config.count_max + 1)]
    embedding = rng.normal(size=(len(tokens), config.d_w))
    return Vocabularies(tokens=tokens, answers=answers, shapes=shapes,
                        colors=colors, embedding=embedding)


def type_answer_domain(qtype: int, config: DataConfig,
                       vocab: Vocabularies) -> list[int]:
    template = TEMPLATES[qtype // config.shapes]
    ids = vocab.answer_ids
    if template == "color":
        return [ids[c] for c in vocab.colors]
    if template == "exists":
        return [ids["yes"], ids["no"]]
    return [ids[str(i)] for i in range(config.count_max + 1)]


def build_bias_spec(config: DataConfig, vocab: Vocabularies,
                    rng: np.random.Generator) -> dict[int, TypeBias]:
    spec = {}
    for qtype in range(num_question_types(config)):
        domain = type_answer_domain(qtype, config, vocab)
        train_majority = int(rng.choice(domain))
        others = [a for a in domain if a != train_majority]
        test_majority = int(rng.choice(others))
        spec[qtype] = TypeBias(answers=domain, train_majority=train_majority,
                               test_majority=test_majority,
                               rho_train=config.rho_train,
                               rho_test=config.rho_test)
    return spec


def _answer_probs(bias: TypeBias, split: str) -> np.ndarray:
    """Skewed per-type prior. The out-of-distribution split promotes a
    different majority; the train majority drops to the minimum share."""
    m = len(bias.answers)
    if split == "test":
        majority, rho = bias.test_majority, bias.rho_test
    else:
        majority, rho = bias.train_majority, bias.rho_train
    probs = np.full(m, (1.0 - rho) / (m - 1))
    probs[bias.answers.index(majority)] = rho
    return probs


def _scene_shapes_for(template: str, target_shape: int, answer: int,
                      config: DataConfig, vocab: Vocabularies,
                      rng: np.random.Generator) -> np.ndarray:
    """Choose a scene consistent with the ground-truth answer: its object shape
    ids and color ids, a (2, k) array."""
    k = config.objects_per_scene
    other_shapes = [s for s in range(config.shapes) if s != target_shape]

    def distractor():
        return (int(rng.choice(other_shapes)), int(rng.integers(config.colors)))

    if template == "color":
        # exactly one target object; its color is the answer
        pairs = [(target_shape, answer)] + [distractor() for _ in range(k - 1)]
    else:
        if template == "exists":
            present = vocab.answers[answer] == "yes"
            n_target = int(rng.integers(1, min(config.count_max, k) + 1)) if present else 0
        else:  # count
            n_target = int(vocab.answers[answer])
        pairs = [(target_shape, int(rng.integers(config.colors)))
                 for _ in range(n_target)]
        pairs += [distractor() for _ in range(k - n_target)]
    rng.shuffle(pairs)
    return np.array(pairs, dtype=np.int64).T


def _generate_split(name: str, n: int, config: DataConfig, vocab: Vocabularies,
                    bias: dict[int, TypeBias], feature_map: np.ndarray) -> DatasetSplit:
    """Fill the rows of one split; row i draws only from the (seed, split, i)
    stream. One normal draw per scene holds each object's visual noise then
    its label noise, in object order."""
    k, d_v, d_w = config.objects_per_scene, config.d_v, config.d_w
    token_ids = vocab.token_ids
    questions = [[token_ids[w] for w in question_type_name(qt, config, vocab).split()]
                 for qt in range(num_question_types(config))]
    label_centroids = vocab.embedding[[token_ids[s] for s in vocab.shapes]]
    qtypes, answers = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    shapes, colors = np.zeros((n, k), dtype=np.int64), np.zeros((n, k), dtype=np.int64)
    visual, labels = np.empty((n, k, d_v)), np.empty((n, k, d_w))
    for i in range(n):
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, _SPLIT_CODES[name], i]))
        qtype = int(rng.integers(len(questions)))
        type_bias = bias[qtype]
        answer = int(rng.choice(type_bias.answers, p=_answer_probs(type_bias, name)))
        template, target_shape = TEMPLATES[qtype // config.shapes], qtype % config.shapes
        qtypes[i], answers[i] = qtype, answer
        shapes[i], colors[i] = _scene_shapes_for(template, target_shape, answer, config,
                                                 vocab, rng)
        noise = rng.normal(size=(k, d_v + d_w))
        visual[i] = (feature_map[:, shapes[i] * config.colors + colors[i]].T
                     + config.noise_v * noise[:, :d_v])
        labels[i] = label_centroids[shapes[i]] + config.noise_l * noise[:, d_v:]
    tokens, lengths = _padded([questions[q] for q in qtypes])
    return DatasetSplit(name, [f"{name}-{i:06d}" for i in range(n)], qtypes, tokens,
                        lengths, answers, shapes, colors, visual, labels)


def generate_dataset(config: DataConfig) -> SyntheticDataset:
    """Deterministically build train, out-of-distribution test, and iid test
    splits plus the vocabularies they share."""
    master = np.random.SeedSequence([config.seed])
    table_rng, map_rng, bias_rng = (np.random.default_rng(c)
                                    for c in master.spawn(3))
    vocab = build_vocabularies(config, table_rng)
    feature_map = map_rng.normal(size=(config.d_v, config.shapes * config.colors))
    bias = build_bias_spec(config, vocab, bias_rng)
    return SyntheticDataset(
        config=config, vocab=vocab, bias=bias,
        train=_generate_split("train", config.n_train, config, vocab, bias, feature_map),
        test=_generate_split("test", config.n_test, config, vocab, bias, feature_map),
        test_iid=_generate_split("test_iid", config.n_test, config, vocab, bias,
                                 feature_map),
        feature_map=feature_map,
    )


def _padded(token_rows: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Token rows as an (N, T_max) array padded with -1, and their lengths."""
    lengths = np.array([len(row) for row in token_rows], dtype=np.int64)
    tokens = np.full((len(token_rows), lengths.max(initial=0)), -1, dtype=np.int64)
    tokens[np.arange(tokens.shape[1]) < lengths[:, None]] = [t for row in token_rows
                                                             for t in row]
    return tokens, lengths


def answer_distribution(split: DatasetSplit, qtype: int,
                        answer_count: int) -> np.ndarray:
    """Normalized answer histogram of one question type within a split."""
    answers = split.answers[split.qtypes == qtype]
    if not answers.size:
        raise KeyError(f"question type {qtype} does not occur in split {split.name!r}")
    return np.bincount(answers, minlength=answer_count) / answers.size


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(p - q).sum())


# ---------------------------------------------------------------------------
# serialization: JSON Lines splits plus one dataset manifest


REQUIRED_FIELDS = ("id", "type", "tokens", "answer", "objects")
OBJECT_FIELDS = frozenset(("shape", "color", "v", "l"))


def save_split(split: DatasetSplit, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
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
            fh.write(json.dumps(record))
            fh.write("\n")


def _check_ids(where: str, what: str, ids, vocabulary: str, size: int) -> None:
    for i in ids:
        if type(i) is not int:
            raise ValueError(f"{where}: {what} id {i!r} is not an integer")
        if not 0 <= i < size:
            raise ValueError(f"{where}: {what} id {i} out of range for {vocabulary} "
                             f"of size {size}")


def load_split(path, config: DataConfig, vocab: Vocabularies,
               name: str | None = None) -> DatasetSplit:
    """Read one JSONL split into columns. Every record is a JSON object with
    the required fields and lists of tokens and objects. Every question needs
    a token, every question type, token, answer, object shape and object color
    id must be an integer indexing into its vocabulary, and every scene must
    hold `objects_per_scene` objects, each a JSON object with a shape, a color
    and lists of `d_v` visual and `d_w` label numbers, all finite. A record
    that breaks a rule raises ValueError naming its path and line."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"split file not found: {path}")
    k, n_types = config.objects_per_scene, num_question_types(config)
    ids, qtypes, token_rows, answers, shapes, colors, visual, labels = ([] for _ in range(8))
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path}:{lineno}"
            try:
                record = json.loads(line)
            except json.JSONDecodeError as err:
                raise ValueError(f"{where}: malformed JSON line ({err})") from err
            if type(record) is not dict:
                raise ValueError(f"{where}: record is not a JSON object")
            for fieldname in REQUIRED_FIELDS:
                if fieldname not in record:
                    raise ValueError(f"{where}: missing field {fieldname!r}")
            for fieldname in ("tokens", "objects"):
                if type(record[fieldname]) is not list:
                    raise ValueError(f"{where}: {fieldname!r} is not a list")
            objects = record["objects"]
            if not record["tokens"]:
                raise ValueError(f"{where}: empty token list")
            if len(objects) != k:
                raise ValueError(f"{where}: {len(objects)} objects, expected "
                                 f"objects_per_scene {k}")
            for j, o in enumerate(objects):
                if type(o) is not dict:
                    raise ValueError(f"{where}: object {j} is not a JSON object")
                if not o.keys() >= OBJECT_FIELDS:
                    raise ValueError(f"{where}: object {j} is missing field "
                                     f"{min(OBJECT_FIELDS - o.keys())!r}")
            shapes.append([o["shape"] for o in objects])
            colors.append([o["color"] for o in objects])
            _check_ids(where, "question type", [record["type"]], "question types", n_types)
            _check_ids(where, "token", record["tokens"], "vocabulary", len(vocab.tokens))
            _check_ids(where, "answer", [record["answer"]], "answer vocabulary",
                       vocab.answer_count)
            _check_ids(where, "object shape", shapes[-1], "shape vocabulary",
                       len(vocab.shapes))
            _check_ids(where, "object color", colors[-1], "color vocabulary",
                       len(vocab.colors))
            for key, dim, size, column in (("v", "d_v", config.d_v, visual),
                                           ("l", "d_w", config.d_w, labels)):
                for j, o in enumerate(objects):
                    if type(o[key]) is not list:
                        raise ValueError(f"{where}: object {j} {key!r} is not a list")
                    if len(o[key]) != size:
                        raise ValueError(f"{where}: object {j} has {len(o[key])} {key!r} "
                                         f"values, expected {dim} {size}")
                try:
                    values = np.array([o[key] for o in objects])
                except ValueError:  # ragged: a list where a number belongs
                    values = None
                if values is None or values.dtype.kind not in "iuf" or values.ndim != 2:
                    raise ValueError(f"{where}: non-numeric {key!r} value")
                column.append(values.astype(float, copy=False))
                if not np.isfinite(column[-1]).all():
                    raise ValueError(f"{where}: non-finite object feature")
            ids.append(record["id"])
            qtypes.append(record["type"])
            token_rows.append(record["tokens"])
            answers.append(record["answer"])
    tokens, lengths = _padded(token_rows)
    return DatasetSplit(name or path.stem, ids, np.array(qtypes, dtype=np.int64), tokens,
                        lengths, np.array(answers, dtype=np.int64),
                        np.array(shapes, dtype=np.int64).reshape(-1, k),
                        np.array(colors, dtype=np.int64).reshape(-1, k),
                        np.array(visual).reshape(-1, k, config.d_v),
                        np.array(labels).reshape(-1, k, config.d_w))


def save_dataset(ds: SyntheticDataset, out_dir) -> dict:
    """Write all splits and the manifest into a directory; returns the manifest."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, split in ds.splits().items():
        save_split(split, out_dir / f"{name}.jsonl")
    a = ds.vocab.answer_count
    histograms = {
        name: {str(qt): answer_distribution(split, qt, a).tolist()
               for qt in np.unique(split.qtypes).tolist()}
        for name, split in ds.splits().items()
    }
    manifest = {
        "config": asdict(ds.config),
        "vocabularies": {
            "tokens": ds.vocab.tokens,
            "answers": ds.vocab.answers,
            "shapes": ds.vocab.shapes,
            "colors": ds.vocab.colors,
            "embedding": ds.vocab.embedding.tolist(),
        },
        "bias_spec": {str(qt): asdict(b) for qt, b in ds.bias.items()},
        "feature_map": ds.feature_map.tolist(),
        "type_names": {str(qt): name for qt, name in ds.type_names().items()},
        "histograms": histograms,
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return manifest


def load_dataset(data_dir) -> SyntheticDataset:
    data_dir = Path(data_dir)
    manifest_path = data_dir / "manifest.json"
    if not manifest_path.exists():
        raise FileNotFoundError(f"dataset manifest not found: {manifest_path}")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    config = DataConfig(**manifest["config"])
    voc = manifest["vocabularies"]
    vocab = Vocabularies(tokens=voc["tokens"], answers=voc["answers"],
                         shapes=voc["shapes"], colors=voc["colors"],
                         embedding=np.asarray(voc["embedding"]))
    bias = {int(qt): TypeBias(**b) for qt, b in manifest["bias_spec"].items()}
    return SyntheticDataset(
        config=config, vocab=vocab, bias=bias,
        train=load_split(data_dir / "train.jsonl", config, vocab, "train"),
        test=load_split(data_dir / "test.jsonl", config, vocab, "test"),
        test_iid=load_split(data_dir / "test_iid.jsonl", config, vocab, "test_iid"),
        feature_map=np.asarray(manifest["feature_map"]),
    )
