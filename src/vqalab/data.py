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
from dataclasses import asdict, dataclass, field
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

    @property
    def token_ids(self) -> dict[str, int]:
        return {t: i for i, t in enumerate(self.tokens)}

    @property
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
class SyntheticObject:
    shape: int
    color: int
    v: np.ndarray
    l: np.ndarray


@dataclass
class VqaExample:
    example_id: str
    qtype: int
    tokens: list[int]
    answer: int
    objects: list[SyntheticObject]
    split: str = "train"

    def visual_matrix(self) -> np.ndarray:
        return np.stack([o.v for o in self.objects])

    def label_matrix(self) -> np.ndarray:
        return np.stack([o.l for o in self.objects])


@dataclass
class DatasetSplit:
    name: str
    examples: list[VqaExample]

    def __len__(self) -> int:
        return len(self.examples)


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


def _make_object(shape: int, color: int, config: DataConfig,
                 feature_map: np.ndarray, vocab: Vocabularies,
                 rng: np.random.Generator) -> SyntheticObject:
    column = shape * config.colors + color
    v = feature_map[:, column] + config.noise_v * rng.normal(size=config.d_v)
    label_row = vocab.token_ids[vocab.shapes[shape]]
    l = vocab.embedding[label_row] + config.noise_l * rng.normal(size=config.d_w)
    return SyntheticObject(shape=shape, color=color, v=v, l=l)


def _scene_shapes_for(template: str, target_shape: int, answer: int,
                      config: DataConfig, vocab: Vocabularies,
                      rng: np.random.Generator) -> list[tuple[int, int]]:
    """Choose (shape, color) pairs consistent with the ground-truth answer."""
    k = config.objects_per_scene
    other_shapes = [s for s in range(config.shapes) if s != target_shape]

    def distractor():
        return (int(rng.choice(other_shapes)), int(rng.integers(config.colors)))

    if template == "color":
        # exactly one target object; its color is the answer
        pairs = [(target_shape, answer)] + [distractor() for _ in range(k - 1)]
    elif template == "exists":
        present = vocab.answers[answer] == "yes"
        n_target = int(rng.integers(1, min(config.count_max, k) + 1)) if present else 0
        pairs = [(target_shape, int(rng.integers(config.colors)))
                 for _ in range(n_target)]
        pairs += [distractor() for _ in range(k - n_target)]
    else:  # count
        n_target = int(vocab.answers[answer])
        pairs = [(target_shape, int(rng.integers(config.colors)))
                 for _ in range(n_target)]
        pairs += [distractor() for _ in range(k - n_target)]
    rng.shuffle(pairs)
    return [(int(s), int(c)) for s, c in pairs]


def _generate_example(index: int, split: str, config: DataConfig,
                      vocab: Vocabularies, bias: dict[int, TypeBias],
                      feature_map: np.ndarray) -> VqaExample:
    seq = np.random.SeedSequence([config.seed, _SPLIT_CODES[split], index])
    rng = np.random.default_rng(seq)
    qtype = int(rng.integers(num_question_types(config)))
    type_bias = bias[qtype]
    answer = int(rng.choice(type_bias.answers, p=_answer_probs(type_bias, split)))
    template, target_shape = TEMPLATES[qtype // config.shapes], qtype % config.shapes
    pairs = _scene_shapes_for(template, target_shape, answer, config, vocab, rng)
    objects = [_make_object(s, c, config, feature_map, vocab, rng) for s, c in pairs]
    words = template_tokens(template, vocab.shapes[target_shape])
    tokens = [vocab.token_ids[w] for w in words]
    return VqaExample(example_id=f"{split}-{index:06d}", qtype=qtype,
                      tokens=tokens, answer=answer, objects=objects, split=split)


def generate_dataset(config: DataConfig) -> SyntheticDataset:
    """Deterministically build train, out-of-distribution test, and iid test
    splits plus the vocabularies they share."""
    master = np.random.SeedSequence([config.seed])
    table_rng, map_rng, bias_rng = (np.random.default_rng(c)
                                    for c in master.spawn(3))
    vocab = build_vocabularies(config, table_rng)
    feature_map = map_rng.normal(size=(config.d_v, config.shapes * config.colors))
    bias = build_bias_spec(config, vocab, bias_rng)

    def split_of(name: str, n: int) -> DatasetSplit:
        return DatasetSplit(name=name, examples=[
            _generate_example(i, name, config, vocab, bias, feature_map)
            for i in range(n)])

    return SyntheticDataset(
        config=config, vocab=vocab, bias=bias,
        train=split_of("train", config.n_train),
        test=split_of("test", config.n_test),
        test_iid=split_of("test_iid", config.n_test),
        feature_map=feature_map,
    )


def answer_distribution(split: DatasetSplit, qtype: int,
                        answer_count: int) -> np.ndarray:
    """Normalized answer histogram of one question type within a split."""
    counts = np.zeros(answer_count)
    seen = False
    for ex in split.examples:
        if ex.qtype == qtype:
            counts[ex.answer] += 1
            seen = True
    if not seen:
        raise KeyError(f"question type {qtype} does not occur in split {split.name!r}")
    return counts / counts.sum()


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(p - q).sum())


# ---------------------------------------------------------------------------
# serialization: JSON Lines splits plus one dataset manifest


REQUIRED_FIELDS = ("id", "type", "tokens", "answer", "objects")


def save_split(split: DatasetSplit, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for ex in split.examples:
            record = {
                "id": ex.example_id,
                "type": ex.qtype,
                "tokens": ex.tokens,
                "answer": ex.answer,
                "objects": [{
                    "shape": o.shape,
                    "color": o.color,
                    "v": o.v.tolist(),
                    "l": o.l.tolist(),
                } for o in ex.objects],
            }
            fh.write(json.dumps(record))
            fh.write("\n")


def _check_ids(where: str, what: str, ids, vocabulary: str, size: int) -> None:
    for i in ids:
        if not 0 <= i < size:
            raise ValueError(f"{where}: {what} id {i} out of range for {vocabulary} "
                             f"of size {size}")


def load_split(path, vocab: Vocabularies, name: str | None = None) -> DatasetSplit:
    """Read one JSONL split; every token, answer, object shape and object color
    id must index into its vocabulary."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"split file not found: {path}")
    examples = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as err:
                raise ValueError(f"{path}:{lineno}: malformed JSON line ({err})") from err
            for fieldname in REQUIRED_FIELDS:
                if fieldname not in record:
                    raise ValueError(f"{path}:{lineno}: missing field {fieldname!r}")
            where = f"{path}:{lineno}"
            _check_ids(where, "token", record["tokens"], "vocabulary", len(vocab.tokens))
            _check_ids(where, "answer", [record["answer"]], "answer vocabulary",
                       vocab.answer_count)
            _check_ids(where, "object shape", [o["shape"] for o in record["objects"]],
                       "shape vocabulary", len(vocab.shapes))
            _check_ids(where, "object color", [o["color"] for o in record["objects"]],
                       "color vocabulary", len(vocab.colors))
            objects = [SyntheticObject(shape=o["shape"], color=o["color"],
                                       v=np.asarray(o["v"], dtype=float),
                                       l=np.asarray(o["l"], dtype=float))
                       for o in record["objects"]]
            examples.append(VqaExample(
                example_id=record["id"], qtype=record["type"],
                tokens=list(record["tokens"]), answer=record["answer"],
                objects=objects,
                split=name or path.stem))
    return DatasetSplit(name=name or path.stem, examples=examples)


def save_dataset(ds: SyntheticDataset, out_dir) -> dict:
    """Write all splits and the manifest into a directory; returns the manifest."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, split in ds.splits().items():
        save_split(split, out_dir / f"{name}.jsonl")
    a = ds.vocab.answer_count
    histograms = {
        name: {str(qt): answer_distribution(split, qt, a).tolist()
               for qt in sorted({ex.qtype for ex in split.examples})}
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
        train=load_split(data_dir / "train.jsonl", vocab, "train"),
        test=load_split(data_dir / "test.jsonl", vocab, "test"),
        test_iid=load_split(data_dir / "test_iid.jsonl", vocab, "test_iid"),
        feature_map=np.asarray(manifest["feature_map"]),
    )
