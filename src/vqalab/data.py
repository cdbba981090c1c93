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
from json.encoder import encode_basestring_ascii
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
        for name in ("shapes", "colors", "objects_per_scene", "d_v", "d_w", "n_train",
                     "n_test", "count_max"):
            if type(value := getattr(self, name)) is not int:
                raise GenerationError(f"{name} must be an integer, got {value!r}")
        for name in ("noise_v", "noise_l", "rho_train", "rho_test"):
            if type(value := getattr(self, name)) not in (int, float):
                raise GenerationError(f"{name} must be a number, got {value!r}")
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


# ---------------------------------------------------------------------------
# serialization: JSON Lines splits plus one dataset manifest


REQUIRED_FIELDS = ("id", "type", "tokens", "answer", "objects")
OBJECT_FIELDS = frozenset(("shape", "color", "v", "l"))


def read_json_object(path: Path, what: str, required) -> dict:
    """The JSON object in a file that must hold one with the required keys;
    ValueError naming the file otherwise."""
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as err:
            raise ValueError(f"{what} {path}: malformed JSON ({err})") from err
    if type(payload) is not dict:
        raise ValueError(f"{what} {path}: top level is not a JSON object")
    for key in required:
        if key not in payload:
            raise ValueError(f"{what} {path}: missing field {key!r}")
    return payload


def manifest_field(manifest: dict, path: Path, dotted: str, kind: type):
    """The value at a dotted field of a dataset manifest: a JSON array (kind
    list); a JSON object keyed by question type ids (kind dict), returned with
    int keys; or a JSON object of a dataclass's fields (kind the class),
    returned as an instance. ValueError naming the file and the field
    otherwise."""
    parts = dotted.split(".")
    value = manifest
    for depth, part in enumerate(parts, start=1):
        if part not in value:
            raise ValueError(f"dataset manifest {path}: missing field {dotted!r}")
        value = value[part]
        want = list if depth == len(parts) and kind is list else dict
        if type(value) is not want:
            raise ValueError(f"dataset manifest {path}: field {'.'.join(parts[:depth])!r} "
                             f"is not a JSON {'object' if want is dict else 'array'}")
    if kind is list:
        return value
    if kind is not dict:
        try:
            return kind(**value)
        except (TypeError, GenerationError) as err:
            raise ValueError(f"dataset manifest {path}: field {dotted!r}: {err}") from err
    for key in value:
        if not key.isdecimal() or key != str(int(key)):   # as `save_dataset` writes them
            raise ValueError(f"dataset manifest {path}: field {dotted!r} key {key!r} "
                             "is not a question type id")
    return {int(key): item for key, item in value.items()}


# Floats as `json.dumps` writes them, rendered in numpy. A finite x is
# `float.__repr__(x)`: the shortest digits that read back as x, the nearest
# to x of that length (ties to even), in fixed notation when
# 1e-4 <= |x| < 1e16. Here |x| in that range is scaled to
# y = |x| * 10**(16-E), 10**16 <= y < 10**17, held exactly as hi + lo
# (Dekker's product). The rounded 17-, 16- and 15-digit integers of y follow
# from int64 divmod and exact comparisons of lo, and a candidate N of p
# digits is kept when float(N) times or divided by an exact power of ten
# (Clinger's fast path, N <= 2**53) gives x back. 17 digits always read
# back, and a length that reads back implies every longer one does, so only
# values that pass at 15 digits try fewer. A value this cannot certify gets
# the text `json.dumps` gives it alone (`float.__repr__`, or NaN and
# Infinity): zero, |x| < 1e-4 or >= 1e16, non-finite values, power-of-two
# significands (whose rounding interval is lopsided), odd 16-digit
# candidates above 2**53 when 15 digits do not read back, and candidates
# that round up to 10**p.
_EXACT_POW10 = np.array([float(10 ** i) for i in range(23)])   # 10**i is a double for i <= 22
_INT_POW10 = 10 ** np.arange(19, dtype=np.int64)
_SIGNIFICAND = (1 << 52) - 1


def _veltkamp(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """v as hi + lo exactly, each half with at most 26 significant bits."""
    t = v * 134217729.0   # 2**27 + 1
    hi = t - (t - v)
    return hi, v - hi


_POW10_HI, _POW10_LO = _veltkamp(_EXACT_POW10)


def _divmod(a: np.ndarray, b) -> tuple[np.ndarray, np.ndarray]:
    """`np.divmod` for non-negative ints, in half its time."""
    q = a // b
    return q, a - q * b


def _rounded(n17: np.ndarray, lo: np.ndarray, m) -> np.ndarray:
    """Round-half-even of (n17 + lo) / 10**m for |lo| <= 1/2 and m >= 1."""
    q, r = _divmod(n17, _INT_POW10[m])
    half = _INT_POW10[m] // 2
    return q + ((r > half) | (r == half) & ((lo > 0) | (lo == 0) & (q & 1 == 1)))


def _reads_back(n: np.ndarray, exponent: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Whether the decimal n * 10**exponent parses to a, for n <= 2**53 and
    |exponent| <= 22: one correctly rounded product or quotient of doubles
    (the other factor is 1)."""
    return (n.astype(np.float64) * _EXACT_POW10[np.maximum(exponent, 0)]
            / _EXACT_POW10[np.maximum(-exponent, 0)] == a)


def _shortest_digits(x: np.ndarray):
    """For each float64 in x: the digits `float.__repr__` writes as an int64
    N, their count p and the decimal point position, x = ±0.N * 10**point,
    plus a mask of the values that must fall back (see above)."""
    a = np.abs(x)
    slow = ~((a >= 1e-4) & (a < 1e16)) | (x.view(np.int64) & _SIGNIFICAND == 0)
    a[slow] = 1.0   # keeps the arithmetic below in range; these are not read
    e = np.floor(np.log10(a)).astype(np.int64)
    scaled = a * _EXACT_POW10[16 - e]   # log10 can miss a power of ten by one
    e += (scaled >= 1e17).astype(np.int64) - (scaled < 1e16)
    hi = a * _EXACT_POW10[16 - e]
    a_hi, a_lo = _veltkamp(a)
    p_hi, p_lo = _POW10_HI[16 - e], _POW10_LO[16 - e]
    lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
    step = np.rint(lo)
    n17 = hi.astype(np.int64) + step.astype(np.int64)   # hi >= 2**53 is an even integer
    lo -= step   # exact: y = n17 + lo, |lo| <= 1/2
    slow |= (hi == 1e16) & (lo < 0) | (n17 >= 10 ** 17)   # y below 10**16 or rounding up
    n16, n15 = _rounded(n17, lo, 1), _rounded(n17, lo, 2)
    fits15 = _reads_back(n15, e - 14, a)
    fits16 = _reads_back(n16, e - 15, a)
    slow |= ~fits15 & (n16 > 2 ** 53) & (n16 & 1 == 1)
    digits, count = np.where(fits16, n16, n17), np.where(fits16, 16, 17)
    rows = np.flatnonzero(fits15)
    digits[rows], count[rows] = n15[rows], 15
    for p in range(14, 0, -1):   # fewer digits, while any still read back
        shorter = _rounded(n17[rows], lo[rows], 17 - p)
        fits = _reads_back(shorter, e[rows] + 1 - p, a[rows])
        if not fits.any():
            break
        rows = rows[fits]
        digits[rows], count[rows] = shorter[fits], p
    slow |= digits == _INT_POW10[count]
    return digits, count, e + 1, slow


# Each value is rendered into 4-byte quads from one table: its sign, the
# integer digits (four per quad, as many quads as the block's widest integer
# part needs, at most four), the point with up to three zeros after it
# (".000"), 17 more fraction digits and 3 zeros, and its separator. Digits
# come as "0000".."9999"; the quad holding an integer's leading digit has
# its leading zeros as NUL, quads above it are all NUL, and likewise for the
# fraction's trailing zeros, so deleting the NUL bytes leaves the text.
def _quad_table() -> np.ndarray:
    """"0000".."9999"; the same with leading zeros as NUL (0 all NUL); the
    same with trailing zeros as NUL; then "0", "0", NUL, "-", ", " and the
    point followed by 0-3 zeros, NUL-padded."""
    digits = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    padded = (digits + ord("0")).astype(np.uint8)
    leading = np.where(digits.cumsum(axis=1) > 0, padded, 0)
    trailing = np.where(digits[:, ::-1].cumsum(axis=1)[:, ::-1] > 0, padded, 0)
    specials = np.frombuffer(b"\0\0\0" b"0" b"0\0\0\0" b"\0\0\0\0" b"\0\0\0-" b", \0\0"
                             b"\0\0\0." b"\0\0.0" b"\0.00" b".000", dtype=np.uint8)
    return np.concatenate([padded.ravel(), leading.ravel(), trailing.ravel(),
                           specials]).view(np.uint32)


_QUADS = _quad_table()
_LEADING, _TRAILING = 10000, 20000   # where those variants of "0000".."9999" start
_ZERO_WHOLE, _ZERO_FRACTION, _NUL, _MINUS, _SEPARATOR, _POINT = range(30000, 30006)


# `float.__repr__` and `json.dumps` differ only on these
_NON_FINITE = ((b"nan", b"NaN"), (b"inf", b"Infinity"), (b"-inf", b"-Infinity"))


def _float_texts(values: np.ndarray, last: np.ndarray) -> tuple[bytes, np.ndarray]:
    """The text `json.dumps` writes for each float64 in `values` (1-D), each
    followed by ", " unless `last` marks it as the end of its list, as one
    bytes object, and the offset at which each value's text ends."""
    n = values.size
    digits, count, point, slow = _shortest_digits(values)
    whole, frac = _divmod(digits, _INT_POW10[np.clip(count - point, 0, 18)])
    whole *= _INT_POW10[np.clip(point - count, 0, 18)]
    # the fraction's digits after its leading zeros, left-aligned to 17 (frac
    # is 0 where the exponent is clipped)
    frac_head, frac_tail = _divmod(
        frac * _INT_POW10[np.minimum(17 - count + np.maximum(point, 0), 18)], 10 ** 13)
    frac_tail *= 1000
    negative, separated, int_digits = np.signbit(values), ~last, np.maximum(point, 1)
    wide = -(-int(int_digits[~slow].max(initial=1)) // 4)   # integer quads needed
    quads = np.empty((wide + 8, n), dtype=np.int64)   # quad j of value i at [j, i]
    frac_row = wide + 2
    quads[0] = np.where(negative, _MINUS, _NUL)
    quads[wide + 1] = _POINT + np.maximum(-point, 0)
    quads[-1] = np.where(separated, _SEPARATOR, _NUL)
    for row in range(wide, 1, -1):
        whole, quads[row] = _divmod(whole, 10000)
    quads[1] = whole
    for row in range(frac_row + 4, frac_row + 1, -1):
        frac_tail, quads[row] = _divmod(frac_tail, 10000)
    quads[frac_row + 1], quads[frac_row] = frac_tail, frac_head
    above = np.ones(n, dtype=bool)   # whether the quads above this one are all zero
    for row in range(1, wide):
        quads[row] += _LEADING * above
        above &= quads[row] == _LEADING
    quads[wide] = np.where(above & (quads[wide] == 0), _ZERO_WHOLE,
                           quads[wide] + _LEADING * above)
    below = np.ones(n, dtype=bool)   # whether the quads below this one are all zero
    for row in range(frac_row + 4, frac_row, -1):
        quads[row] += _TRAILING * below
        below &= quads[row] == _TRAILING
    quads[frac_row] = np.where(below & (quads[frac_row] == 0), _ZERO_FRACTION,
                               quads[frac_row] + _TRAILING * below)
    rows = _QUADS[quads].T   # one value's quads per row
    length = negative + int_digits + 1 + np.maximum(count - point, 1) + 2 * separated
    if (fallback := np.flatnonzero(slow)).size:   # its text, NULs, and its separator quad
        texts = np.array(list(map(float.__repr__, values[fallback].tolist())), dtype="S24")
        for text, json_text in _NON_FINITE:
            texts[texts == text] = json_text
        rows[fallback, :6] = texts.view(np.uint32).reshape(-1, 6)
        rows[fallback, 6:-1] = 0
        length[fallback] = np.char.str_len(texts) + 2 * separated[fallback]
    return rows.tobytes().translate(None, b"\0"), np.cumsum(length)


_FLOATS_PER_BLOCK = 1 << 13   # floats rendered at once by `save_split`


def save_split(split: DatasetSplit, path, digests=()) -> None:
    """Write a split as JSON Lines: line i is `json.dumps` of example i's
    record, `{"id", "type", "tokens", "answer", "objects": [{"shape",
    "color", "v", "l"}, ...]}`, with ids as strings and the other columns
    as ints and floats. Every byte written also goes into each hashlib
    object in `digests`. An id that is not a string raises ValueError
    naming it, before anything is written.

    Records are written a block at a time: the block's features are
    rendered into one bytes object (`_float_texts`) and cut into its `v`
    and `l` lists, which fill a bytes template with the ids and ints."""
    for example_id in split.ids:
        if not isinstance(example_id, str):
            raise ValueError(f"example id {example_id!r} is not a string")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    _, k, d_v = split.visual.shape
    width = d_v + split.labels.shape[2]   # one object's floats: its v list, then its l list
    record = (b'{"id": %b, "type": %d, "tokens": [%b], "answer": %d, "objects": ['
              + b", ".join([b'{"shape": %d, "color": %d, "v": [%b], "l": [%b]}'] * k)
              + b"]}\n")
    step = max(1, _FLOATS_PER_BLOCK // (k * width))
    with open(path, "wb") as fh:
        for start in range(0, len(split.ids), step):
            block = slice(start, min(start + step, len(split.ids)))
            features = np.concatenate([split.visual[block], split.labels[block]],
                                      axis=2, dtype=np.float64).ravel()
            objects = (block.stop - start) * k
            last = np.zeros((objects, width), dtype=bool)
            last[:, [d_v - 1, -1]] = True   # the end of each v and each l list
            text, ends = _float_texts(features, last.ravel())
            # object o's v list starts at float o * width and its l list d_v later
            starts = np.append((np.arange(objects)[:, None] * width + [0, d_v]).ravel(),
                               features.size)
            cuts = np.append(0, ends)[starts].tolist()
            fields = np.empty((block.stop - start, 1 + k, 4), dtype=object)
            fields[:, 0, 0] = [encode_basestring_ascii(i).encode() for i in split.ids[block]]
            fields[:, 0, 1] = split.qtypes[block]
            fields[:, 0, 2] = [", ".join(map(str, row[:m])).encode() for row, m in
                               zip(split.tokens[block].tolist(), split.lengths[block].tolist())]
            fields[:, 0, 3] = split.answers[block]
            fields[:, 1:, 0] = split.shapes[block]
            fields[:, 1:, 1] = split.colors[block]
            fields[:, 1:, 2:] = np.array([text[i:j] for i, j in zip(cuts, cuts[1:])],
                                         dtype=object).reshape(-1, k, 2)
            lines = (record * len(fields)) % tuple(fields.ravel().tolist())
            for digest in digests:
                digest.update(lines)
            fh.write(lines)


# Bump the tag whenever the parse, its checks or the stored columns change, so
# that no cache written by older code is ever read.
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


def digest_file(digest, path):
    """`digest` updated with every byte of the file at `path`, read in 1 MiB
    chunks through one reused buffer; returned."""
    buffer = bytearray(1 << 20)
    view = memoryview(buffer)
    with open(path, "rb", buffering=0) as fh:
        while size := fh.readinto(buffer):
            digest.update(view[:size])
    return digest


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
    shapes a parse of a split under `config` returns, each question in its row."""
    k, tokens = config.objects_per_scene, columns["tokens"]
    shapes = {"qtypes": (n,), "tokens": (n, tokens.shape[1]) if tokens.ndim == 2 else None,
              "lengths": (n,), "answers": (n,), "shapes": (n, k), "colors": (n, k),
              "visual": (n, k, config.d_v), "labels": (n, k, config.d_w)}
    return all(columns[name].dtype == (np.float64 if name in ("visual", "labels")
                                       else np.int64) and columns[name].shape == shape
               for name, shape in shapes.items()) and \
        columns["lengths"].max(initial=0) <= tokens.shape[1]


def _refused_row(columns: dict, config: DataConfig,
                 vocab: Vocabularies) -> tuple[int, str] | None:
    """The first row of a split's columns that a load refuses, with the
    reason, or None. Within a row the checks run in this order: an empty
    question; an id out of its vocabulary's range, for the question type,
    the tokens up to the row's length, the answer, the object shapes and the
    object colors; a non-finite visual, then label, feature."""
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
    for name in ("visual", "labels"):
        features = columns[name].reshape(lengths.size, -1)
        checks.append((features, np.isfinite(features), "non-finite object feature"))
    if all(ok.all() for _, ok, _ in checks):
        return None
    row = int(np.logical_and.reduce([ok.all(axis=1) for _, ok, _ in checks]).argmin())
    values, ok, message = next(check for check in checks if not check[1][row].all())
    return row, message.format(values[row][~ok[row]][0])   # a message without {} drops it


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
    finite. The first line that is not UTF-8 or breaks a rule raises
    ValueError naming its path and line. Within a record, a fault of its JSON
    structure (an id that is not an int among them) comes first, then an
    empty question, an id out of range and a non-finite feature, as
    `_refused_row` orders them; `save_dataset` caches by the same checks.

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
        columns = _cached_columns(cache, digest_file(key.copy(), path).hexdigest(), config)
        if columns is not None:
            return DatasetSplit(name or path.stem, **columns)
    columns = _parse_split(path, config, vocab, key)  # key takes in the bytes parsed
    _write_cache(cache, key.hexdigest(), columns)
    return DatasetSplit(name or path.stem, **columns)


def _parse_split(path: Path, config: DataConfig, vocab: Vocabularies, digest) -> dict:
    """The checked columns of a JSONL split, streamed line by line; `digest`
    takes in every byte read. Reading stops at the first line `_split_row`
    refuses, which is named unless `_refused_row` refuses a row before it."""
    k, rows, fault = config.objects_per_scene, [], None
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
    linenos, ids, qtypes, token_rows, answers, shapes, colors, visual, labels = (
        list(zip(*rows)) or [()] * 9)
    lengths = np.array([len(row) for row in token_rows], dtype=np.int64)
    width = int(lengths.max(initial=0))   # rows padded with -1, as `_padded` pads them
    padded = [row + [-1] * (width - len(row)) for row in token_rows]
    columns = {"ids": list(ids), "qtypes": _id_array(qtypes), "lengths": lengths,
               "tokens": _id_array(padded).reshape(len(padded), width),
               "answers": _id_array(answers), "shapes": _id_array(shapes).reshape(-1, k),
               "colors": _id_array(colors).reshape(-1, k),
               "visual": np.array(visual).reshape(-1, k, config.d_v),
               "labels": np.array(labels).reshape(-1, k, config.d_w)}
    if (refused := _refused_row(columns, config, vocab)) is not None:
        raise ValueError(f"{path}:{linenos[refused[0]]}: {refused[1]}")
    if fault is not None:
        raise ValueError(f"{path}:{fault[0]}: {fault[1]}") from fault[1]
    return columns


def _id_array(ids) -> np.ndarray:
    """Integer ids as int64, or as Python ints if one overflows it (and so every range)."""
    try:
        return np.array(ids, dtype=np.int64)
    except OverflowError:
        return np.array(ids, dtype=object)


def _split_row(raw: bytes, config: DataConfig) -> tuple | None:
    """One JSONL line's fields, (id, type, tokens, answer, object shapes,
    object colors, visual, labels), after the checks that need its JSON
    objects; None for a blank line. ValueError names the first fault."""
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
        if not o.keys() >= OBJECT_FIELDS:
            raise ValueError(f"object {j} is missing field {min(OBJECT_FIELDS - o.keys())!r}")
    shapes, colors = [o["shape"] for o in objects], [o["color"] for o in objects]
    for what, ids in (("question type", [record["type"]]), ("token", record["tokens"]),
                      ("answer", [record["answer"]]), ("object shape", shapes),
                      ("object color", colors)):
        for i in ids:
            if type(i) is not int:   # a dtype check would pass `true` and 1.0
                raise ValueError(f"{what} id {i!r} is not an integer")
    features = []
    for key, dim, size in (("v", "d_v", config.d_v), ("l", "d_w", config.d_w)):
        for j, o in enumerate(objects):
            if type(o[key]) is not list:
                raise ValueError(f"object {j} {key!r} is not a list")
            if len(o[key]) != size:
                raise ValueError(f"object {j} has {len(o[key])} {key!r} values, "
                                 f"expected {dim} {size}")
        try:
            values = np.array([o[key] for o in objects])
        except ValueError:  # ragged: a list where a number belongs
            values = None
        if values is None or values.dtype.kind not in "iuf" or values.ndim != 2:
            raise ValueError(f"non-numeric {key!r} value")
        features.append(values.astype(float, copy=False))
    return (record["id"], record["type"], record["tokens"], record["answer"], shapes, colors,
            *features)


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
        columns = {column: getattr(split, column) for column in ("ids",) + _CACHE_COLUMNS}
        if _columns_fit(columns, len(split), ds.config) and \
                _refused_row(columns, ds.config, ds.vocab) is None:
            width = int(split.lengths.max(initial=0))   # a parse's tokens end at the longest
            inside = np.arange(width) < split.lengths[:, None]
            columns["tokens"] = np.where(inside, split.tokens[:, :width], -1)
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
    """Read the manifest and the named splits (all three by default); a bad
    manifest field raises ValueError naming the file and the field."""
    data_dir = Path(data_dir)
    for name in splits:
        if name not in _SPLIT_CODES:
            raise ValueError(f"unknown split {name!r}; choose from {SPLITS}")
    path = data_dir / "manifest.json"
    if not path.exists():
        raise FileNotFoundError(f"dataset manifest not found: {path}")
    manifest = read_json_object(path, "dataset manifest", ())
    config = manifest_field(manifest, path, "config", DataConfig)
    vocab = Vocabularies(*(manifest_field(manifest, path, f"vocabularies.{name}", list)
                           for name in ("tokens", "answers", "shapes", "colors", "embedding")))
    vocab.embedding = np.asarray(vocab.embedding)
    bias = {qt: manifest_field(manifest, path, f"bias_spec.{qt}", TypeBias)
            for qt in manifest_field(manifest, path, "bias_spec", dict)}
    return SyntheticDataset(
        config=config, vocab=vocab, bias=bias,
        feature_map=np.asarray(manifest_field(manifest, path, "feature_map", list)),
        loaded={name: load_split(data_dir / f"{name}.jsonl", config, vocab, name)
                for name in splits},
    )
