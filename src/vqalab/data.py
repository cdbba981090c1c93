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
import io
import json
import math
import os
import typing
import zlib
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from functools import cache, cached_property
from itertools import chain
from operator import itemgetter
from pathlib import Path

import numpy as np

SHAPE_NAMES = ("cube", "sphere", "cone", "pyramid", "cylinder", "torus",
               "prism", "wedge")
COLOR_NAMES = ("red", "green", "blue", "yellow", "purple", "orange", "teal",
               "pink")
TEMPLATES = ("color", "exists", "count")
_SPLIT_CODES = {"train": 0, "test": 1, "test_iid": 2}
SPLITS = tuple(_SPLIT_CODES)


# ---------------------------------------------------------------------------
# config fields: a field's kind comes from its annotation and its bound from
# `bounded` beside it; `check_fields` checks both, `build_config` builds from
# JSON (config files, the dataset and checkpoint manifests and report files alike)


def _finite(values) -> bool:
    """Whether every value is a finite number: not `true`, nan, inf, nor an int
    too large for a float."""
    values = list(values)
    if not set(map(type, values)) <= {int, float}:
        return False
    try:
        return bool(np.isfinite(np.fromiter(values, np.float64, len(values))).all())
    except OverflowError:
        return False


def _items(kinds: set):
    """The test that every item of every list is of one of the exact `kinds`."""
    return lambda lists: set(map(type, chain.from_iterable(lists))) <= kinds


# what a field of each declared type accepts from JSON: a value of one of the
# exact types (so `true` is no integer), passing the test if any; a test takes
# a list of such values and passes them all at once
_JSON_TYPES = {
    str: ({str}, None, "a string"),
    bool: ({bool}, None, "a boolean"),
    int: ({int}, None, "an integer"),
    float: ({int, float}, _finite, "a finite number"),
    list[int]: ({list}, _items({int}), "a list of integers"),
    list[float]: ({list}, lambda lists: _finite(chain.from_iterable(lists)),
                  "a list of finite numbers"),
    list[str]: ({list}, _items({str}), "a list of strings"),
}


class ConfigError(ValueError):
    """A refused config, manifest or report value; `field` is its dotted path."""

    def __init__(self, field: str, problem: str):
        super().__init__(f"{field} {problem}")
        self.field, self.problem = field, problem


def bounded(default, bound):
    """A field's default and bound: an interval like "(0, 1]", or the allowed values."""
    return field(default=default, metadata={"bound": bound})


def _within(value, bound) -> bool:
    if type(bound) is tuple:
        return value in bound
    low, high = (float(end) for end in bound[1:-1].split(","))
    return (low < value if bound[0] == "(" else low <= value) and \
        (value < high if bound[-1] == ")" else value <= high)


def _dotted(where: str, name) -> str:
    """The path of field `name` under `where`: a dotted path, or a file ("<what> <path>:")."""
    return f"{where} {name}" if where.endswith(":") else f"{where}.{name}"


@cache
def _field_specs(cls) -> dict[str, tuple]:
    """(annotation, bound, required) per field; a field without a default is required."""
    hints = typing.get_type_hints(cls)
    return {f.name: (hints[f.name], f.metadata.get("bound"),
                     f.default is MISSING and f.default_factory is MISSING)
            for f in fields(cls)}


def _problem(value, kind, bound=None) -> str | None:
    """What is wrong with `value` for a field of annotation `kind` (a JSON
    type or a config class) and `bound`, or None."""
    kinds, test, description = _JSON_TYPES.get(kind) or ({kind}, None, f"a {kind.__name__}")
    if type(value) in kinds and (test is None or test([value])) and \
            (bound is None or _within(value, bound)):
        return None
    inside = "" if bound is None else f" in {bound}"
    return f"must be {description}{inside}, got {value!r}"


def check_fields(config) -> None:
    """ConfigError naming the first field whose value misfits its annotation or bound."""
    for name, (kind, bound, _) in _field_specs(type(config)).items():
        if (problem := _problem(getattr(config, name), kind, bound)) is not None:
            raise ConfigError(name, problem)


@contextlib.contextmanager
def config_section(where: str):
    """Name a ConfigError raised inside by its dotted path under `where`."""
    try:
        yield
    except ConfigError as err:
        raise ConfigError(_dotted(where, err.field), err.problem) from None


def build_config(cls, values, where: str, complete: bool = False, overrides=None):
    """cls from the JSON object `values`, each field read as `_read` reads its
    annotation; `overrides` (same shape, from code, None meaning not given) win
    over `values`, whose fields are read all the same. A field without a
    default must be named, and with `complete`, as for files the program wrote,
    every field. A ConfigError names a refused field by its dotted path under
    `where`, or under a file if `where` ends in ":"."""
    if type(values) is not dict:
        raise ConfigError(where, "is not a JSON object")
    specs = _field_specs(cls)
    refused = [(k, f"is not a {cls.__name__} field") for k in sorted(values.keys() - specs.keys())]
    refused += [(k, "is missing") for k, (*_, required) in specs.items()
                if k not in values and (complete or required)]
    if refused:
        raise ConfigError(_dotted(where, refused[0][0]), refused[0][1])
    overrides = {k: v for k, v in (overrides or {}).items() if v is not None}
    kwargs = dict(values)
    for name, (kind, bound, _) in specs.items():
        if is_dataclass(kind) and (name in values or name in overrides):   # a nested config
            kwargs[name] = build_config(kind, values.get(name, {}), _dotted(where, name),
                                        complete, overrides.pop(name, None))
        elif name in values:
            kwargs[name] = _read(kind, values[name], _dotted(where, name), complete, bound)
    for name, value in overrides.items():
        kind, bound, _ = specs[name]
        kwargs[name] = _read(kind, value, _dotted(where, name), complete, bound)
    with config_section(where):
        return cls(**kwargs)


def _read(kind, value, where: str, complete: bool = True, bound=None):
    """`value` from JSON as a field annotated `kind` takes it: a type of
    `_JSON_TYPES` within `bound`; a config class, by `build_config`; or
    `list[X]`, or `dict[int, X]` keyed by question type ids as `str(int)`
    writes them, of X a type of `_JSON_TYPES` or a record class (objects
    holding exactly its fields, each of such a type without a bound), checked
    a column at a time. ConfigError names the first misfit by its dotted path
    under `where`."""
    if kind in _JSON_TYPES:
        if (problem := _problem(value, kind, bound)) is not None:
            raise ConfigError(where, problem)
        return value
    if is_dataclass(kind):
        return build_config(kind, value, where, complete)
    container, item = typing.get_origin(kind), typing.get_args(kind)[-1]
    if type(value) is not container:
        raise ConfigError(where, f"is not a JSON {'array' if container is list else 'object'}")
    labels, items = range(len(value)), value
    if container is dict:
        labels, items = list(value), list(value.values())
        for k in labels:
            if not k.isdecimal() or k != str(int(k)):
                raise ConfigError(where, f"key {k!r} is not a question type id")
    if is_dataclass(item):
        specs = _field_specs(item)
        for label, entry in zip(labels, items):
            if type(entry) is not dict or entry.keys() != specs.keys():
                build_config(item, entry, _dotted(where, label), complete=True)   # refuses it
        for name, (field_kind, *_) in specs.items():
            _column(field_kind, list(map(itemgetter(name), items)),
                    (_dotted(where, f"{label}.{name}") for label in labels))
        items = [item(**entry) for entry in items]
    else:
        _column(item, items, (_dotted(where, label) for label in labels))
    return items if container is list else dict(zip(map(int, labels), items))


def _column(kind, column: list, paths) -> None:
    """ConfigError at the path (`paths` runs in step with `column`) of the
    first value that misfits JSON type `kind`, once a test of all of them fails."""
    kinds, test, _ = _JSON_TYPES[kind]
    if not set(map(type, column)) <= kinds or test is not None and not test(column):
        for path, value in zip(paths, column):
            _read(kind, value, path)


@dataclass
class DataConfig:
    shapes: int = bounded(6, f"[2, {len(SHAPE_NAMES)}]")
    colors: int = bounded(5, f"[2, {len(COLOR_NAMES)}]")
    objects_per_scene: int = bounded(8, "[1, inf)")
    d_v: int = bounded(32, "[1, inf)")
    d_w: int = bounded(16, "[1, inf)")
    noise_v: float = bounded(0.05, "[0, inf)")
    noise_l: float = bounded(0.05, "[0, inf)")
    n_train: int = bounded(20000, "[1, inf)")
    n_test: int = bounded(4000, "[1, inf)")
    rho_train: float = bounded(0.8, "[0, 1]")
    rho_test: float = bounded(0.8, "[0, 1]")
    count_max: int = bounded(3, "[1, inf)")
    seed: int = bounded(0, "[0, inf)")

    def __post_init__(self):
        check_fields(self)
        if self.count_max > self.objects_per_scene:
            raise ConfigError("count_max", "must be at most objects_per_scene "
                              f"({self.objects_per_scene}), got {self.count_max}")


@dataclass
class Vocabularies:
    tokens: list[str]
    answers: list[str]
    shapes: list[str]
    colors: list[str]
    embedding: list[list[float]]   # the shared frozen table, a (len(tokens), d_w) array

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
    raise ValueError(f"unknown template {template!r}")


def _vocabulary_lists(config: DataConfig) -> dict[str, list[str]]:
    """The tokens, answers, shapes and colors of every dataset of `config`."""
    shapes = list(SHAPE_NAMES[: config.shapes])
    colors = list(COLOR_NAMES[: config.colors])
    return {"tokens": ["what", "color", "is", "the", "there", "a", "how", "many"] + shapes,
            "answers": colors + ["yes", "no"] + [str(i) for i in range(config.count_max + 1)],
            "shapes": shapes, "colors": colors}


def build_vocabularies(config: DataConfig, rng: np.random.Generator) -> Vocabularies:
    words = _vocabulary_lists(config)
    return Vocabularies(**words, embedding=rng.normal(size=(len(words["tokens"]), config.d_w)))


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


_BLOCK = 256   # examples seeded and composed, or written, at once

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


def split_array_bytes(config: DataConfig) -> int:
    """The bytes of the arrays that `generate_dataset` fills for `config`'s
    three splits, as `save_split` writes and `load_split` returns them, token
    rows at their widest: per example, 8 bytes for each of its question type,
    length, answer and tokens, each object's shape and color ids, and each
    object's d_v + d_w features."""
    k, width = config.objects_per_scene, max(len(template_tokens(t, "")) for t in TEMPLATES)
    per_example = 8 * (3 + width + 2 * k + k * (config.d_v + config.d_w))
    return per_example * (config.n_train + 2 * config.n_test)


def _physical_memory() -> int:
    """This machine's physical memory in bytes."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def generate_dataset(config: DataConfig) -> SyntheticDataset:
    """Deterministically build train, out-of-distribution test, and iid test
    splits plus the vocabularies they share. A config whose splits' arrays
    (`split_array_bytes`) exceed the machine's physical memory raises
    ConfigError naming the size field of the larger splits and both byte
    counts, before any draw."""
    if (needed := split_array_bytes(config)) > (memory := _physical_memory()):
        name = "n_train" if config.n_train >= 2 * config.n_test else "n_test"
        raise ConfigError(name, f"{getattr(config, name)} makes the splits' arrays {needed} "
                                f"bytes, more than the {memory} bytes of physical memory")
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


# ---------------------------------------------------------------------------
# serialization: each split as JSON Lines questions plus one `.npy` array of
# features, and one dataset manifest


REQUIRED_FIELDS = ("id", "type", "tokens", "answer", "objects")
OBJECT_FIELDS = frozenset(("shape", "color"))


def existing_file(path: Path, what: str) -> Path:
    """`path`, if it names a file; FileNotFoundError or ValueError naming `what`
    and the path otherwise."""
    if not path.exists():
        raise FileNotFoundError(f"{what} not found: {path}")
    if not path.is_file():
        raise ValueError(f"{what} {path} is not a file")
    return path


def read_json_object(path: Path, what: str) -> dict:
    """The JSON object in a file that must hold one; FileNotFoundError or
    ValueError naming the file otherwise."""
    with open(existing_file(path, what), encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as err:
            raise ValueError(f"{what} {path}: malformed JSON ({err})") from err
    if type(payload) is not dict:
        raise ValueError(f"{what} {path}: top level is not a JSON object")
    return payload


def read_record(cls, path, what: str, complete: bool = True, file_format: str | None = None):
    """cls built by `build_config` from the JSON object in the file at `path`,
    every field named if `complete`. An error names `what`, the file and, for a
    refused field, its dotted path. With `file_format`, a file whose "format"
    is another is refused as such before any other field is read."""
    path = Path(path)
    values = read_json_object(path, what)
    if file_format is not None and values.get("format") != file_format:
        raise ValueError(f"{what} {path} has format {values.get('format')!r}, "
                         f"expected {file_format!r}")
    return build_config(cls, values, f"{what} {path}:", complete)


def _json_ready(value):
    """`value` as `read_record` reads it back: a record as an object of its
    fields, a dict with `str` keys (question type ids as `str(int)`), a numpy
    array as lists. Fields of `_JSON_TYPES` and lists of numbers are not walked."""
    if is_dataclass(value):
        return {name: getattr(value, name) if kind in _JSON_TYPES
                else _json_ready(getattr(value, name))
                for name, (kind, *_) in _field_specs(type(value)).items()}
    if type(value) is dict:
        return {str(k): _json_ready(v) for k, v in value.items()}
    if type(value) is list and value and (is_dataclass(value[0]) or type(value[0]) is dict):
        return list(map(_json_ready, value))
    return value.tolist() if type(value) is np.ndarray else value


def record_json(record) -> str:
    """`json.dumps(..., sort_keys=True, indent=1)` of a record, as `_json_ready` has it."""
    return json.dumps(_json_ready(record), sort_keys=True, indent=1)


def _check_rows(rows: list, shape: tuple[int, int], where: str) -> np.ndarray:
    """`rows` as floats; ConfigError at `where` unless shape[0] rows of shape[1] finite numbers."""
    lengths = sorted(set(map(len, rows)))
    if len(rows) != shape[0] or lengths != [shape[1]]:
        raise ConfigError(where, f"must hold {shape[0]} rows of {shape[1]} numbers, got "
                                 f"{len(rows)} rows of lengths {lengths}")
    array = np.asarray(rows, dtype=np.float64)
    if not (finite := np.isfinite(array).all(axis=1)).all():
        row = int(finite.argmin())
        raise ConfigError(f"{where}.{row}", "must be a list of finite numbers, got "
                                            f"{array[row].tolist()}")
    return array


@dataclass
class Histograms:
    """Each split's normalized answer histogram per question type present in it."""
    train: dict[int, list[float]]
    test: dict[int, list[float]]
    test_iid: dict[int, list[float]]


@dataclass
class DatasetManifest:
    """The `manifest.json` that `save_dataset` writes, as `load_manifest` reads
    it. Beyond each field's JSON type it holds what the config gives: the
    vocabularies' words, the embedding and feature map shapes, and the question
    types of `bias_spec`, `type_names` and the histograms. Once read, the
    embedding and feature map are float arrays."""
    config: DataConfig
    vocabularies: Vocabularies
    bias_spec: dict[int, TypeBias]
    feature_map: list[list[float]]   # (d_v, shapes * colors)
    type_names: dict[int, str]
    histograms: Histograms

    def __post_init__(self):
        config, vocab = self.config, self.vocabularies
        for name, words in _vocabulary_lists(config).items():
            if getattr(vocab, name) != words:
                raise ConfigError(f"vocabularies.{name}", f"must be {words} for this config, "
                                                          f"got {getattr(vocab, name)}")
        embedding = _check_rows(vocab.embedding, (len(vocab.tokens), config.d_w),
                                "vocabularies.embedding")
        feature_map = _check_rows(self.feature_map, (config.d_v, config.shapes * config.colors),
                                  "feature_map")
        types = list(range(num_question_types(config)))
        if sorted(self.bias_spec) != types:
            raise ConfigError("bias_spec", f"must hold question types {types}, "
                                           f"got {sorted(self.bias_spec)}")
        names = {qt: question_type_name(qt, config, vocab) for qt in types}
        if self.type_names != names:
            raise ConfigError("type_names", f"must be {names} for this config, "
                                            f"got {self.type_names}")
        for split in SPLITS:
            histograms = getattr(self.histograms, split)
            if not histograms or not histograms.keys() <= names.keys():
                raise ConfigError(f"histograms.{split}", "must hold some of the question "
                                  f"types {types}, got {sorted(histograms)}")
            for qt, hist in histograms.items():
                if len(hist) != len(vocab.answers):
                    raise ConfigError(f"histograms.{split}.{qt}", f"must hold {len(vocab.answers)} "
                                      f"numbers, one per answer, got {len(hist)}")
        vocab.embedding, self.feature_map = embedding, feature_map


def load_manifest(data_dir) -> DatasetManifest:
    """The manifest of the dataset in `data_dir`; an error names the file and
    the first field refused."""
    return read_record(DatasetManifest, Path(data_dir) / "manifest.json", "dataset manifest")


def save_split(split: DatasetSplit, path) -> dict[str, str]:
    """Write a split as two files and return the sha256 of each, by file name:
    `path`, JSON Lines whose line i is `json.dumps` of example i's record
    `{"id", "type", "tokens", "answer", "objects": [{"shape", "color"}, ...]}`,
    and `<split>.features.npy` beside it, one C-order float64 `(n, k, d_v +
    d_w)` array, the bytes `np.save` writes, whose row i holds example i's
    visual then label features. Those rows are joined and written `_BLOCK`
    at a time, so that the array is never copied whole. An id that is not a
    string raises ValueError naming it, before anything is written."""
    for example_id in split.ids:
        if not isinstance(example_id, str):
            raise ValueError(f"example id {example_id!r} is not a string")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = zip(split.ids, split.qtypes.tolist(), split.tokens.tolist(), split.lengths.tolist(),
               split.answers.tolist(), split.shapes.tolist(), split.colors.tolist())
    text = "".join(json.dumps({"id": i, "type": qtype, "tokens": tokens[:length],
                               "answer": answer, "objects": [{"shape": s, "color": c}
                                                             for s, c in zip(shapes, colors)]})
                   + "\n" for i, qtype, tokens, length, answer, shapes, colors in rows).encode()
    path.write_bytes(text)
    (n, k, d_v), d_w = split.visual.shape, split.labels.shape[2]
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(header, {"descr": np.dtype(np.float64).str,
                                                  "fortran_order": False,
                                                  "shape": (n, k, d_v + d_w)})
    blocks = (np.concatenate([split.visual[i:i + _BLOCK], split.labels[i:i + _BLOCK]], axis=2,
                             dtype=np.float64) for i in range(0, n, _BLOCK))
    features, digest = path.with_suffix(".features.npy"), hashlib.sha256()
    with open(features, "wb") as fh:
        for data in chain([header.getvalue()], blocks):
            digest.update(data)
            fh.write(data)
    return {path.name: hashlib.sha256(text).hexdigest(), features.name: digest.hexdigest()}


# Bump the tag whenever the parse, its checks or the stored columns change, so
# that no cache written by older code is ever read.
_CACHE_TAG = b"vqalab split columns v5\n"
_CACHE_COLUMNS = ("qtypes", "tokens", "lengths", "answers", "shapes", "colors")


def _cache_key(config: DataConfig, vocab: Vocabularies, split_sha256: str) -> str:
    """The sha256 hex of everything that decides what `load_split` returns: the
    cache format, every value its checks read, and the JSONL file's sha256 hex."""
    sizes = [len(vocab.tokens), vocab.answer_count, len(vocab.shapes), len(vocab.colors)]
    text = json.dumps([asdict(config), sizes], sort_keys=True) + split_sha256
    return hashlib.sha256(_CACHE_TAG + text.encode()).hexdigest()


def digest_file(path) -> str:
    """The sha256 hex of the file at `path`, read in 1 MiB chunks through one
    reused buffer."""
    digest, buffer = hashlib.sha256(), bytearray(1 << 20)
    view = memoryview(buffer)
    with open(path, "rb", buffering=0) as fh:
        while size := fh.readinto(buffer):
            digest.update(view[:size])
    return digest.hexdigest()


def _crc32(arrays) -> int:
    """The crc32 of the bytes of `arrays`, one after another."""
    crc = 0
    for array in arrays:
        crc = zlib.crc32(np.ascontiguousarray(array), crc)
    return crc


def _cached_columns(cache: Path, key: str, config: DataConfig) -> dict | None:
    """The columns stored under `key`, or None for a missing, unreadable,
    corrupt or mismatched cache, one whose columns' bytes are not those of
    its crc32, or one with bytes after its last array."""
    read = np.lib.format.read_array   # one `.npy` array; never a pickle or an archive
    try:
        with open(cache, "rb") as fh:
            if read(fh, allow_pickle=False).tolist() != key:
                return None
            columns = {name: read(fh, allow_pickle=False) for name in ("ids",) + _CACHE_COLUMNS}
            crc = read(fh, allow_pickle=False)
            if fh.read(1):
                return None
    except (OSError, ValueError, EOFError, MemoryError):   # a header can claim any size
        return None
    ids = columns["ids"]
    if ids.dtype.kind != "U" or ids.ndim != 1 or not _columns_fit(columns, len(ids), config) \
            or crc.shape != () or crc.tolist() != _crc32(columns.values()):
        return None
    columns["ids"] = ids.tolist()
    return columns


def _columns_fit(columns: dict, n: int, config: DataConfig) -> bool:
    """Whether `columns` hold n rows of int64 ids in the shapes a parse of a
    split under `config` returns, each question in its row."""
    k, tokens = config.objects_per_scene, columns["tokens"]
    shapes = {"qtypes": (n,), "tokens": (n, tokens.shape[1]) if tokens.ndim == 2 else None,
              "lengths": (n,), "answers": (n,), "shapes": (n, k), "colors": (n, k)}
    return all(columns[name].dtype == np.int64 and columns[name].shape == shape
               for name, shape in shapes.items()) and \
        columns["lengths"].max(initial=0) <= tokens.shape[1]


def _refused_row(columns: dict, config: DataConfig,
                 vocab: Vocabularies) -> tuple[int, str] | None:
    """The first row of a split's columns that a load refuses, with the
    reason, or None. Within a row the checks run in this order: an empty
    question; an id out of its vocabulary's range, for the question type,
    the tokens up to the row's length, the answer, the object shapes and the
    object colors."""
    lengths = columns["lengths"]
    if not lengths.size:
        return None
    checks = [(lengths[:, None], lengths[:, None] >= 1, "empty token list")]
    for name, what, vocabulary, size in (
            ("qtypes", "question type", "question types", num_question_types(config)),
            ("tokens", "token", "vocabulary", len(vocab.tokens)),
            ("answers", "answer", "answer vocabulary", vocab.answer_count),
            ("shapes", "object shape", "shape vocabulary", len(vocab.shapes)),
            ("colors", "object color", "color vocabulary", len(vocab.colors))):
        ids = columns[name].reshape(lengths.size, -1)
        inside = (ids >= 0) & (ids < size)
        if name == "tokens":
            inside |= np.arange(ids.shape[1]) >= lengths[:, None]
        checks.append((ids, inside, f"{what} id {{}} out of range for {vocabulary} of size {size}"))
    if all(ok.all() for _, ok, _ in checks):
        return None
    row = int(np.logical_and.reduce([ok.all(axis=1) for _, ok, _ in checks]).argmin())
    values, ok, message = next(check for check in checks if not check[1][row].all())
    return row, message.format(values[row][~ok[row]][0])   # a message without {} drops it


def _write_cache(cache: Path, key: str, columns: dict) -> None:
    """Store parsed columns under `key`, as consecutive `.npy` arrays in the
    order `_cached_columns` reads them and then their crc32, through a
    temporary file, so a reader never sees a half-written cache. A split whose
    ids a fixed-width array cannot hold (a trailing NUL) and a directory that
    cannot be written are left uncached."""
    ids = np.array(columns["ids"], dtype=str)
    if ids.tolist() != columns["ids"]:
        return
    tmp = cache.with_name(f"{cache.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            stored = [ids, *(columns[name] for name in _CACHE_COLUMNS)]
            for array in (np.array(key), *stored, np.array(_crc32(stored))):
                np.save(fh, array, allow_pickle=False)
        os.replace(tmp, cache)
    except OSError:
        with contextlib.suppress(OSError):
            tmp.unlink()


def load_split(path, config: DataConfig, vocab: Vocabularies,
               name: str | None = None) -> DatasetSplit:
    """Read one split: its questions from the JSON Lines file at `path`, its
    features from the `.features.npy` file beside it (see `_read_features`).
    Every record is a JSON object with the required fields, a string id and
    lists of tokens and objects. Every question needs a token, every question
    type, token, answer, object shape and object color id must be an integer
    indexing into its vocabulary, and every scene must hold
    `objects_per_scene` objects, each a JSON object with a shape and a color.
    The first line that is not UTF-8 or breaks a rule raises ValueError
    naming its path and line. Within a record, a fault of its JSON structure
    (an id that is not an int among them) comes first, then an empty question
    and an id out of range, as `_refused_row` orders them; `save_dataset`
    caches by the same checks. A split of the older layout, with no features
    file and `v` and `l` feature lists in its objects, is refused in one line
    that says to re-run `vqalab gen-data`.

    A parsed split's question columns are stored beside it in
    `<split>.jsonl.columns`, one plain file of consecutive `.npy` arrays: the
    key (`_cache_key` of the JSONL file's sha256, taken by `digest_file` or by
    the parse), then `ids` and `_CACHE_COLUMNS` in order, then the crc32 of
    their bytes. A later call whose key and crc32 match returns them without
    parsing. Features are never cached or hashed: every load reads them from
    their file. Deleting the cache is always safe."""
    path = existing_file(Path(path), "split file")
    features = path.with_suffix(".features.npy")
    if not features.exists():
        raise FileNotFoundError(f"features file {features} not found beside split file {path}, "
                                "as in the older layout of features as text; re-run "
                                "`vqalab gen-data`")
    existing_file(features, "features file")
    cache = path.with_name(path.name + ".columns")
    columns = None
    if cache.exists():
        columns = _cached_columns(cache, _cache_key(config, vocab, digest_file(path)), config)
    if columns is None:
        columns, split_sha256 = _parse_split(path, config, vocab)
        _write_cache(cache, _cache_key(config, vocab, split_sha256), columns)
    visual, labels = _read_features(features, path, len(columns["ids"]), config)
    return DatasetSplit(name or path.stem, **columns, visual=visual, labels=labels)


_NPY_HEADERS = {(1, 0): np.lib.format.read_array_header_1_0,
                (2, 0): np.lib.format.read_array_header_2_0}


def _read_features(path: Path, split_path: Path, n: int,
                   config: DataConfig) -> tuple[np.ndarray, np.ndarray]:
    """The visual and label features of the n records of `split_path`, as
    C-contiguous float64 copies, from its features file at `path`. The
    header is read and checked before any data: the array must be float64
    (either byte order, C or Fortran order) of shape (n, objects_per_scene,
    d_v + d_w), followed by exactly its bytes. ValueError names the file and
    the first fault, a non-finite value by its row and the split line it
    belongs to."""
    shape = (n, config.objects_per_scene, config.d_v + config.d_w)
    nbytes = 8 * math.prod(shape)
    with open(path, "rb") as fh:
        try:
            version = np.lib.format.read_magic(fh)
            if version not in _NPY_HEADERS:
                raise ValueError(f".npy format version {version} is not 1.0 or 2.0")
            stored, _, dtype = _NPY_HEADERS[version](fh)
        except ValueError as err:
            raise ValueError(f"features file {path} is not a .npy array file: {err}") from err
        problem = None
        if dtype.str not in ("<f8", ">f8"):
            problem = f"holds {dtype} values, expected float64"
        elif stored != shape:
            problem = (f"holds an array of shape {stored}, expected {shape}: the {n} records of "
                       f"split file {split_path}, objects_per_scene, d_v + d_w")
        elif (size := os.fstat(fh.fileno()).st_size - fh.tell()) != nbytes:
            problem = f"holds {size} bytes after its header, expected {nbytes}"
        if problem is not None:
            raise ValueError(f"features file {path} {problem}")
        fh.seek(0)
        array = np.load(fh, allow_pickle=False)
    if not np.isfinite(array).all():
        row = int(np.isfinite(array).all(axis=(1, 2)).argmin())
        lines = [lineno for lineno, raw in enumerate(split_path.read_bytes().split(b"\n"), 1)
                 if raw.decode().strip()]   # as the parse reads them: blank lines hold no record
        raise ValueError(f"features file {path} row {row}: non-finite object feature, for the "
                         f"record at {split_path}:{lines[row]}")
    d_v = config.d_v
    return (np.array(array[..., :d_v], dtype=np.float64, order="C"),
            np.array(array[..., d_v:], dtype=np.float64, order="C"))


def _parse_split(path: Path, config: DataConfig, vocab: Vocabularies) -> tuple[dict, str]:
    """The checked question columns of a JSONL split, streamed line by line,
    and the sha256 hex of the bytes read. Reading stops at the first line
    `_split_row` refuses, which is named unless `_refused_row` refuses a row
    before it."""
    k, rows, fault, digest = config.objects_per_scene, [], None, hashlib.sha256()
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            digest.update(raw)
            try:
                row = _split_row(raw, config)
            except ValueError as err:
                fault = lineno, err
                break
            if row is not None:   # blank lines are skipped, so each row keeps its line number
                rows.append((lineno, *row))
    linenos, ids, qtypes, token_rows, answers, shapes, colors = list(zip(*rows)) or [()] * 7
    lengths = np.array([len(row) for row in token_rows], dtype=np.int64)
    width = int(lengths.max(initial=0))   # rows padded with -1, as `_padded` pads them
    padded = [row + [-1] * (width - len(row)) for row in token_rows]
    columns = {"ids": list(ids), "qtypes": _id_array(qtypes), "lengths": lengths,
               "tokens": _id_array(padded).reshape(len(padded), width),
               "answers": _id_array(answers), "shapes": _id_array(shapes).reshape(-1, k),
               "colors": _id_array(colors).reshape(-1, k)}
    if (refused := _refused_row(columns, config, vocab)) is not None:
        raise ValueError(f"{path}:{linenos[refused[0]]}: {refused[1]}")
    if fault is not None:
        raise ValueError(f"{path}:{fault[0]}: {fault[1]}") from fault[1]
    return columns, digest.hexdigest()


def _id_array(ids) -> np.ndarray:
    """Integer ids as int64, or as Python ints if one overflows it (and so every range)."""
    try:
        return np.array(ids, dtype=np.int64)
    except OverflowError:
        return np.array(ids, dtype=object)


def _split_row(raw: bytes, config: DataConfig) -> tuple | None:
    """One JSONL line's fields, (id, type, tokens, answer, object shapes,
    object colors), after the checks that need its JSON objects; None for a
    blank line. ValueError names the first fault."""
    line = raw.decode()   # a UnicodeDecodeError is a ValueError too
    if not line.strip():
        return None
    try:
        record = json.loads(line)
    except json.JSONDecodeError as err:
        raise ValueError(f"malformed JSON line ({err})") from err
    if type(record) is not dict:
        raise ValueError("record is not a JSON object")
    for fieldname in REQUIRED_FIELDS:
        if fieldname not in record:
            raise ValueError(f"missing field {fieldname!r}")
    if type(record["id"]) is not str:
        raise ValueError(f"example id {record['id']!r} is not a string")
    for fieldname in ("tokens", "objects"):
        if type(record[fieldname]) is not list:
            raise ValueError(f"{fieldname!r} is not a list")
    objects, k = record["objects"], config.objects_per_scene
    if len(objects) != k:
        raise ValueError(f"{len(objects)} objects, expected objects_per_scene {k}")
    for j, o in enumerate(objects):
        if type(o) is not dict:
            raise ValueError(f"object {j} is not a JSON object")
        if "v" in o or "l" in o:
            raise ValueError(f"object {j} holds 'v' and 'l' feature lists, as splits of the "
                             "older layout of features as text do; re-run `vqalab gen-data`")
        if not o.keys() >= OBJECT_FIELDS:
            raise ValueError(f"object {j} is missing field {min(OBJECT_FIELDS - o.keys())!r}")
    shapes, colors = [o["shape"] for o in objects], [o["color"] for o in objects]
    for what, ids in (("question type", [record["type"]]), ("token", record["tokens"]),
                      ("answer", [record["answer"]]), ("object shape", shapes),
                      ("object color", colors)):
        for i in ids:
            if type(i) is not int:   # a dtype check would pass `true` and 1.0
                raise ValueError(f"{what} id {i!r} is not an integer")
    return record["id"], record["type"], record["tokens"], record["answer"], shapes, colors


def save_dataset(ds: SyntheticDataset, out_dir) -> dict[str, str]:
    """Write all splits (two files each, see `save_split`) and the manifest
    into a directory; returns the sha256 of each file written, by file name.
    The manifest is a `DatasetManifest`, built before any file is written, so
    a dataset `load_dataset` would refuse raises first: ValueError naming the
    splits not at hand, or a split whose record count is not the config's
    `n_train` (train) or `n_test`, or the manifest's ConfigError (a
    non-finite embedding or feature map, say).

    Each split's questions are also stored in the `.jsonl.columns` cache that
    `load_split` would write after parsing them, keyed by the JSONL file's
    sha256 that `save_split` returns, so the first load does not parse. A
    split that a parse could refuse is left uncached."""
    if missing := [name for name in SPLITS if name not in ds.loaded]:
        raise ValueError(f"cannot save a dataset missing splits: {', '.join(missing)}")
    for name, split in ds.splits().items():
        field_name = "n_train" if name == "train" else "n_test"
        if len(split) != getattr(ds.config, field_name):
            raise ValueError(f"cannot save split {name} of {len(split)} records: the "
                             f"config's {field_name} is {getattr(ds.config, field_name)}")
    a = ds.vocab.answer_count
    histograms = Histograms(**{
        name: {qt: answer_distribution(split, qt, a) for qt in np.unique(split.qtypes).tolist()}
        for name, split in ds.loaded.items()})
    manifest = DatasetManifest(config=ds.config, vocabularies=ds.vocab, bias_spec=ds.bias,
                               feature_map=ds.feature_map, type_names=ds.type_names(),
                               histograms=histograms)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = {}
    for name, split in ds.splits().items():
        path = out_dir / f"{name}.jsonl"
        written.update(save_split(split, path))
        columns = {column: getattr(split, column) for column in ("ids",) + _CACHE_COLUMNS}
        if _columns_fit(columns, len(split), ds.config) and \
                _refused_row(columns, ds.config, ds.vocab) is None:
            width = int(split.lengths.max(initial=0))   # a parse's tokens end at the longest
            inside = np.arange(width) < split.lengths[:, None]
            columns["tokens"] = np.where(inside, split.tokens[:, :width], -1)
            _write_cache(path.with_name(path.name + ".columns"),
                         _cache_key(ds.config, ds.vocab, written[path.name]), columns)
    text = (record_json(manifest) + "\n").encode()
    (out_dir / "manifest.json").write_bytes(text)
    written["manifest.json"] = hashlib.sha256(text).hexdigest()
    return written


def load_dataset(data_dir, splits=SPLITS, manifest: DatasetManifest | None = None
                 ) -> SyntheticDataset:
    """Read the manifest, unless given as read by `load_manifest`, and the named
    splits (all three by default); a bad manifest field raises ValueError
    naming the file and the field, and so does a split whose record count is
    not the manifest's `n_train` (train) or `n_test` (test, test_iid)."""
    data_dir = Path(data_dir)
    for name in splits:
        if name not in _SPLIT_CODES:
            raise ValueError(f"unknown split {name!r}; choose from {SPLITS}")
    manifest = manifest or load_manifest(data_dir)
    config, vocab = manifest.config, manifest.vocabularies
    loaded = {}
    for name in splits:
        path, field = data_dir / f"{name}.jsonl", "n_train" if name == "train" else "n_test"
        split = loaded[name] = load_split(path, config, vocab, name)
        if len(split) != getattr(config, field):
            raise ValueError(f"split file {path} holds {len(split)} records, but the "
                             f"manifest's {field} is {getattr(config, field)}")
    return SyntheticDataset(config=config, vocab=vocab, bias=manifest.bias_spec,
                            feature_map=manifest.feature_map, loaded=loaded)
