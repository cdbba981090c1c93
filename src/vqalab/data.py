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

import contextlib
import hashlib
import json
import math
import os
import zipfile
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
SPLITS = tuple(_SPLIT_CODES)


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
        if type(self.seed) is not int or self.seed < 0:
            raise GenerationError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.shapes < 2 or self.colors < 2:
            raise GenerationError("need at least two shapes and two colors")
        if self.shapes > len(SHAPE_NAMES) or self.colors > len(COLOR_NAMES):
            raise GenerationError("not enough names for the requested shapes/colors")
        if self.n_train < 1 or self.n_test < 1:
            raise GenerationError("splits must be non-empty")
        if self.objects_per_scene < 1:
            raise GenerationError("scenes need at least one object")
        if not (1 <= self.count_max <= self.objects_per_scene):
            raise GenerationError("question type 'count': count_max must lie "
                                  "in [1, objects_per_scene]")
        for name in ("d_v", "d_w"):
            if (value := getattr(self, name)) < 1:
                raise GenerationError(f"{name} must be at least 1, got {value}")
        # NaN fails every comparison, so the checks below refuse it too
        for name in ("noise_v", "noise_l"):
            if not 0 <= (value := getattr(self, name)) < math.inf:
                raise GenerationError(f"{name} must be finite and non-negative, got {value!r}")
        for name in ("rho_train", "rho_test"):
            if not 0 <= (value := getattr(self, name)) <= 1:
                raise GenerationError(f"{name} must lie in [0, 1], got {value!r}")


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
    """The shared vocabularies and priors plus the splits at hand: all three
    when generated, the requested ones when loaded. `train`, `test` (out-of-
    distribution priors) and `test_iid` (matched split drawn from the train
    priors) raise KeyError naming a split that is not at hand."""
    config: DataConfig
    vocab: Vocabularies
    bias: dict[int, TypeBias]
    feature_map: np.ndarray      # (d_v, shapes*colors)
    loaded: dict[str, DatasetSplit]

    def split(self, name: str) -> DatasetSplit:
        if name not in self.loaded:
            raise KeyError(f"split {name!r} was not loaded; loaded splits: "
                           f"{', '.join(self.loaded) or 'none'}")
        return self.loaded[name]

    train = property(lambda self: self.split("train"))
    test = property(lambda self: self.split("test"))
    test_iid = property(lambda self: self.split("test_iid"))

    def splits(self) -> dict[str, DatasetSplit]:
        return dict(self.loaded)

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
    ids and color ids, a (2, k) array.

    The ids come from one `integers(0, bounds)` call: a color per target
    object whose color is not the answer, then a (shape, color) pair per
    distractor, the shape as an index into the other shapes. It draws what
    one scalar `integers` call per id would, in the same order."""
    k, n_colors = config.objects_per_scene, config.colors
    if template == "color":
        n_target, n_drawn = 1, 0   # exactly one target object; its color is the answer
    elif template == "exists":
        present = vocab.answers[answer] == "yes"
        n_target = int(rng.integers(1, min(config.count_max, k) + 1)) if present else 0
        n_drawn = n_target
    else:  # count
        n_target = n_drawn = int(vocab.answers[answer])
    draws = rng.integers(0, [n_colors] * n_drawn
                         + [config.shapes - 1, n_colors] * (k - n_target))
    ids = np.empty((2, k), dtype=np.int64)
    ids[0, :n_target] = target_shape
    ids[1, :n_target] = draws[:n_drawn] if n_drawn else answer
    others = draws[n_drawn::2]
    ids[0, n_target:] = others + (others >= target_shape)
    ids[1, n_target:] = draws[n_drawn + 1::2]
    return ids[:, rng.permutation(k)]


_BLOCK = 256   # examples whose streams are seeded, and features composed, at once

# numpy's SeedSequence constants (bit_generator.pyx) and PCG64's multiplier (pcg64.h)
_HASH_A, _HASH_B = (0x43B0D7E5, 0x931E8875), (0x8B51F9DD, 0x58F38DED)
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1


def _hasher(const: int, mult: int):
    """SeedSequence's hash on uint32 arrays: each call xors with the running
    constant, steps it, multiplies by the new one and folds the high half in.
    uint32 array arithmetic wraps as the C code's does."""
    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> 16)
    return hashmix


def _stream_states(seed: int, split_code: int, start: int,
                   stop: int) -> list[tuple[int, int]]:
    """The PCG64 `(state, inc)` of
    `np.random.default_rng(np.random.SeedSequence([seed, split_code, i]))`
    for each i in [start, stop), stop <= 2**32.

    SeedSequence's `mix_entropy` and `generate_state(4, np.uint64)` run on
    uint32 arrays, one lane per i. The entropy is `seed` as little-endian
    uint32 words (0 is one word), then `split_code`, then i; the words past
    the 4-word pool are mixed in after it. PCG64's `srandom` step then runs
    on Python ints."""
    lanes = np.arange(start, stop, dtype=np.uint32)
    words = [seed & _MASK32]
    while seed := seed >> 32:
        words.append(seed & _MASK32)
    entropy = [np.full_like(lanes, w) for w in words + [split_code]] + [lanes]
    hashmix = _hasher(*_HASH_A)

    def mix(x, y):
        value = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
        return value ^ (value >> 16)

    pool = [hashmix(entropy[j] if j < len(entropy) else np.zeros_like(lanes))
            for j in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    state_word = _hasher(*_HASH_B)
    out = [state_word(pool[j % 4]).astype(np.uint64) for j in range(8)]
    seed_hi, seed_lo, inc_hi, inc_lo = ((out[2 * j] | out[2 * j + 1] << np.uint64(32)).tolist()
                                        for j in range(4))
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(seed_hi, seed_lo, inc_hi, inc_lo):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        states.append((((s_hi << 64 | s_lo) + inc) * _PCG64_MULT + inc & _MASK128, inc))
    return states


def _generate_split(name: str, n: int, config: DataConfig, vocab: Vocabularies,
                    bias: dict[int, TypeBias], feature_map: np.ndarray) -> DatasetSplit:
    """Fill the rows of one split; row i draws only from the (seed, split, i)
    stream, in this order:

    1. the question type, one `integers(num_question_types)`;
    2. the answer, one `random()` looked up in the type's answer CDF;
    3. the scene ids (see `_scene_shapes_for`), after the number of target
       objects for an `exists` question answered yes;
    4. the object order, one `permutation(k)`;
    5. one normal block holding each object's visual noise then its label
       noise, in object order.

    The rows are made `_BLOCK` at a time. `_stream_states` seeds the block's
    streams at once, and one generator is set to each in turn; after the
    block, its feature rows are composed from the noise in one pass. The
    numbers are those of `default_rng(SeedSequence([seed, split, i]))` with
    `normal(size=(k, d_v + d_w))`. The golden digests in the tests pin this
    order."""
    k, d_v, d_w = config.objects_per_scene, config.d_v, config.d_w
    token_ids = vocab.token_ids
    questions = [[token_ids[w] for w in question_type_name(qt, config, vocab).split()]
                 for qt in range(num_question_types(config))]
    cdfs = {}   # each type's answer CDF as `Generator.choice(answers, p=probs)` builds it
    for qtype, type_bias in bias.items():
        cdfs[qtype] = _answer_probs(type_bias, name).cumsum()
        cdfs[qtype] /= cdfs[qtype][-1]
    centroids = feature_map.T   # row s * colors + c: the clean (shape s, color c) vector
    label_centroids = vocab.embedding[[token_ids[s] for s in vocab.shapes]]
    qtypes, answers = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    shapes, colors = np.zeros((n, k), dtype=np.int64), np.zeros((n, k), dtype=np.int64)
    visual, labels = np.empty((n, k, d_v)), np.empty((n, k, d_w))
    noise = np.empty((_BLOCK, k, d_v + d_w))
    bits = np.random.PCG64()
    rng = np.random.Generator(bits)
    for start in range(0, n, _BLOCK):
        block = slice(start, min(start + _BLOCK, n))
        streams = _stream_states(config.seed, _SPLIT_CODES[name], start, block.stop)
        for j, (state, inc) in enumerate(streams):
            i = start + j
            bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                          "has_uint32": 0, "uinteger": 0}
            qtype = int(rng.integers(len(questions)))
            answer = bias[qtype].answers[cdfs[qtype].searchsorted(rng.random(), side="right")]
            template, target_shape = TEMPLATES[qtype // config.shapes], qtype % config.shapes
            qtypes[i], answers[i] = qtype, answer
            shapes[i], colors[i] = _scene_shapes_for(template, target_shape, answer, config,
                                                     vocab, rng)
            rng.standard_normal(out=noise[j])
        drawn = noise[:block.stop - start]
        drawn += 0.0   # `normal` returns 0.0 + 1.0 * z, so its -0.0 draws read +0.0
        np.multiply(drawn[..., :d_v], config.noise_v, out=visual[block])
        visual[block] += centroids[shapes[block] * config.colors + colors[block]]
        np.multiply(drawn[..., d_v:], config.noise_l, out=labels[block])
        labels[block] += label_centroids[shapes[block]]
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
    sizes = {"train": config.n_train, "test": config.n_test, "test_iid": config.n_test}
    return SyntheticDataset(
        config=config, vocab=vocab, bias=bias, feature_map=feature_map,
        loaded={name: _generate_split(name, sizes[name], config, vocab, bias, feature_map)
                for name in SPLITS},
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


def read_json_object(path: Path, what: str, required) -> dict:
    """The JSON object in a file that must hold one with the required keys;
    ValueError naming the file otherwise."""
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as err:
            raise ValueError(f"{what} {path}: malformed JSON ({err})") from err
    if type(payload) is not dict:
        raise ValueError(f"{what} {path}: top level is not a JSON object")
    for key in required:
        if key not in payload:
            raise ValueError(f"{what} {path}: missing field {key!r}")
    return payload


def save_split(split: DatasetSplit, path, digests=()) -> None:
    """Write a split as JSON Lines; every byte written also goes into each
    hashlib object in `digests`."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
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
            line = (json.dumps(record) + "\n").encode()
            for digest in digests:
                digest.update(line)
            fh.write(line)


def _check_ids(where: str, what: str, ids, vocabulary: str, size: int) -> None:
    for i in ids:
        if type(i) is not int:
            raise ValueError(f"{where}: {what} id {i!r} is not an integer")
        if not 0 <= i < size:
            raise ValueError(f"{where}: {what} id {i} out of range for {vocabulary} "
                             f"of size {size}")


# Bump the tag whenever the parse, its checks or the stored columns change, so
# that no cache written by older code is ever read. Bumping it does not reach
# `save_dataset`'s cache: every check added to `_parse_split` needs a matching
# check in `_columns_as_parsed`, and a case in
# test_split_a_parse_refuses_is_not_cached.
_CACHE_TAG = b"vqalab split columns v1\n"
_CACHE_COLUMNS = ("qtypes", "tokens", "lengths", "answers", "shapes", "colors", "visual",
                  "labels")


def _cache_key(config: DataConfig, vocab: Vocabularies):
    """A sha256 primed with everything but the split's bytes that decides what
    `load_split` returns: the cache format and every value its checks read."""
    sizes = [len(vocab.tokens), vocab.answer_count, len(vocab.shapes), len(vocab.colors)]
    key = hashlib.sha256(_CACHE_TAG)
    key.update(json.dumps([asdict(config), sizes], sort_keys=True).encode())
    return key


def _cached_columns(cache: Path, key: str, config: DataConfig) -> dict | None:
    """The columns stored under `key`, or None for a missing, unreadable,
    corrupt or mismatched cache."""
    try:
        with np.lib.npyio.NpzFile(cache, allow_pickle=False) as stored:
            if str(stored["key"]) != key:
                return None
            columns = {name: stored[name] for name in ("ids",) + _CACHE_COLUMNS}
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile):
        return None
    ids = columns["ids"]
    if ids.dtype.kind != "U" or ids.ndim != 1 or not _columns_fit(columns, len(ids), config):
        return None
    columns["ids"] = ids.tolist()
    return columns


def _columns_fit(columns: dict, n: int, config: DataConfig) -> bool:
    """Whether `columns` hold n rows of int64 ids and float64 features in the
    shapes a parse of a split under `config` returns."""
    k, tokens = config.objects_per_scene, columns["tokens"]
    shapes = {"qtypes": (n,), "tokens": (n, tokens.shape[1]) if tokens.ndim == 2 else None,
              "lengths": (n,), "answers": (n,), "shapes": (n, k), "colors": (n, k),
              "visual": (n, k, config.d_v), "labels": (n, k, config.d_w)}
    return all(columns[name].dtype == (np.float64 if name in ("visual", "labels")
                                       else np.int64) and columns[name].shape == shape
               for name, shape in shapes.items())


def _columns_as_parsed(split: DatasetSplit, config: DataConfig,
                       vocab: Vocabularies) -> dict | None:
    """The columns `_parse_split` returns for the file `save_split` writes
    from `split`, or None where that parse could refuse the file or return
    other arrays: a column of another dtype or shape, a non-string id, an
    empty question, an id out of its range or a non-finite feature."""
    columns = {name: getattr(split, name) for name in _CACHE_COLUMNS}
    if not (_columns_fit(columns, len(split.ids), config)
            and all(type(i) is str for i in split.ids)):
        return None
    lengths, tokens = columns["lengths"], columns["tokens"]
    width = int(lengths.max(initial=0))
    if lengths.min(initial=1) < 1 or width > tokens.shape[1]:
        return None
    written = np.arange(width) < lengths[:, None]
    tokens = tokens[:, :width]
    for ids, size in ((columns["qtypes"], num_question_types(config)),
                      (tokens[written], len(vocab.tokens)),
                      (columns["answers"], vocab.answer_count),
                      (columns["shapes"], len(vocab.shapes)),
                      (columns["colors"], len(vocab.colors))):
        if ids.size and not 0 <= ids.min() <= ids.max() < size:
            return None
    if not (np.isfinite(columns["visual"]).all() and np.isfinite(columns["labels"]).all()):
        return None
    return {**columns, "ids": list(split.ids), "tokens": np.where(written, tokens, -1)}


def _write_cache(cache: Path, key: str, columns: dict) -> None:
    """Store parsed columns under `key` through a temporary file, so a reader
    never sees a half-written cache. A split whose ids a fixed-width array
    cannot hold (a trailing NUL) and a directory that cannot be written are
    left uncached."""
    ids = np.array(columns["ids"], dtype=str)
    if ids.tolist() != columns["ids"]:
        return
    tmp = cache.with_name(f"{cache.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, key=np.array(key), ids=ids,
                     **{name: columns[name] for name in _CACHE_COLUMNS})
        os.replace(tmp, cache)
    except OSError:
        with contextlib.suppress(OSError):
            tmp.unlink()


def load_split(path, config: DataConfig, vocab: Vocabularies,
               name: str | None = None) -> DatasetSplit:
    """Read one JSONL split into columns. Every record is a JSON object with
    the required fields, a string id and lists of tokens and objects. Every
    question needs a token, every question type, token, answer, object shape
    and object color id must be an integer indexing into its vocabulary, and
    every scene must hold `objects_per_scene` objects, each a JSON object with
    a shape, a color and lists of `d_v` visual and `d_w` label numbers, all
    finite. A record that breaks a rule raises ValueError naming its path and
    line.

    A parsed split's columns are stored beside it in `<split>.jsonl.npz`,
    keyed by a sha256 of the cache format, the file's bytes, the config and
    the vocabulary sizes; a later call whose key matches returns them without
    parsing. Deleting the file is always safe."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"split file not found: {path}")
    cache = path.with_name(path.name + ".npz")
    key = _cache_key(config, vocab)
    if cache.exists():
        file_key = key.copy()
        with open(path, "rb") as fh:
            while chunk := fh.read(1 << 20):
                file_key.update(chunk)
        columns = _cached_columns(cache, file_key.hexdigest(), config)
        if columns is not None:
            return DatasetSplit(name or path.stem, **columns)
    columns = _parse_split(path, config, vocab, key)  # key takes in the bytes parsed
    _write_cache(cache, key.hexdigest(), columns)
    return DatasetSplit(name or path.stem, **columns)


def _parse_split(path: Path, config: DataConfig, vocab: Vocabularies, digest) -> dict:
    """The checked columns of a JSONL split, streamed line by line; `digest`
    takes in every byte read. `save_dataset` caches a split without this
    parse, so a check added here needs its match in `_columns_as_parsed`."""
    k, n_types = config.objects_per_scene, num_question_types(config)
    ids, qtypes, token_rows, answers, shapes, colors, visual, labels = ([] for _ in range(8))
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            digest.update(raw)
            line = raw.decode()
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
            if type(record["id"]) is not str:
                raise ValueError(f"{where}: example id {record['id']!r} is not a string")
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
    return {"ids": ids, "qtypes": np.array(qtypes, dtype=np.int64), "tokens": tokens,
            "lengths": lengths, "answers": np.array(answers, dtype=np.int64),
            "shapes": np.array(shapes, dtype=np.int64).reshape(-1, k),
            "colors": np.array(colors, dtype=np.int64).reshape(-1, k),
            "visual": np.array(visual).reshape(-1, k, config.d_v),
            "labels": np.array(labels).reshape(-1, k, config.d_w)}


def save_dataset(ds: SyntheticDataset, out_dir) -> dict[str, str]:
    """Write all splits and the manifest into a directory; returns the sha256
    of each file written, by file name.

    Each split is also stored in the `.jsonl.npz` cache that `load_split`
    would write after parsing it, under the key it computes, so the first
    load does not parse. A split that a parse could refuse is left uncached."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = {}
    for name, split in ds.splits().items():
        path = out_dir / f"{name}.jsonl"
        digest, key = hashlib.sha256(), _cache_key(ds.config, ds.vocab)
        save_split(split, path, (digest, key))
        written[path.name] = digest.hexdigest()
        if (columns := _columns_as_parsed(split, ds.config, ds.vocab)) is not None:
            _write_cache(path.with_name(path.name + ".npz"), key.hexdigest(), columns)
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
    text = (json.dumps(manifest, sort_keys=True, indent=1) + "\n").encode()
    (out_dir / "manifest.json").write_bytes(text)
    written["manifest.json"] = hashlib.sha256(text).hexdigest()
    return written


def load_dataset(data_dir, splits=SPLITS) -> SyntheticDataset:
    """Read the manifest and the named splits (all three by default)."""
    data_dir = Path(data_dir)
    for name in splits:
        if name not in _SPLIT_CODES:
            raise ValueError(f"unknown split {name!r}; choose from {SPLITS}")
    manifest_path = data_dir / "manifest.json"
    if not manifest_path.exists():
        raise FileNotFoundError(f"dataset manifest not found: {manifest_path}")
    manifest = read_json_object(manifest_path, "dataset manifest",
                                ("config", "vocabularies", "bias_spec", "feature_map"))
    config = DataConfig(**manifest["config"])
    voc = manifest["vocabularies"]
    vocab = Vocabularies(tokens=voc["tokens"], answers=voc["answers"],
                         shapes=voc["shapes"], colors=voc["colors"],
                         embedding=np.asarray(voc["embedding"]))
    bias = {int(qt): TypeBias(**b) for qt, b in manifest["bias_spec"].items()}
    return SyntheticDataset(
        config=config, vocab=vocab, bias=bias,
        feature_map=np.asarray(manifest["feature_map"]),
        loaded={name: load_split(data_dir / f"{name}.jsonl", config, vocab, name)
                for name in splits},
    )
