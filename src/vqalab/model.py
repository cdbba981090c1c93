"""The two VQA models under comparison.

Both share the head: every object's visual feature is bilinearly fused with
the encoded question, the fused vectors are max-pooled over objects, and a
two-layer classifier produces answer logits. They differ only in the question
encoder: the baseline encodes from words alone; the grounded variant runs the
visually grounded encoder, so its question representation already depends on
the scene. Logits are raw; the softmax lives in the loss. The forward pass
takes row-batches of scenes and token rows, a batch of one included.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from itertools import zip_longest
from pathlib import Path

import numpy as np

from . import tensor as T
from .data import (ConfigError, bounded, check_fields, config_section, existing_file,
                   read_record)
from .encoder import (GruParams, embedding_table_init, encode_questions_baseline,
                      gru_params_init)
from .fusion import BlockFusionParams, block_fuse, block_params_init
from .grounding import VgwParams, encode_questions_vgqe, vgw_params_init
from .layers import Linear, child_seed, init_rng, linear_init
from .tensor import ShapeError, Tensor

VARIANTS = ("baseline", "vgqe")


@dataclass
class FusionConfig:
    proj_dim: int = bounded(32, "[1, inf)")
    out_proj_dim: int = bounded(32, "[1, inf)")
    chunks: int = bounded(4, "[1, inf)")       # at most both projection dims
    rank: int = bounded(3, "[1, inf)")

    def __post_init__(self):
        check_fields(self)


@dataclass
class ModelConfig:
    variant: str = bounded("baseline", VARIANTS)
    d_v: int = bounded(32, "[1, inf)")
    d_w: int = bounded(16, "[1, inf)")
    hidden: int = bounded(32, "[1, inf)")            # per-direction recurrent state
    refined_dim: int = bounded(16, "[1, inf)")       # width of the refined word embedding
    grounded_dim: int = bounded(32, "[1, inf)")      # grounded-word vector fed to the recurrence
    pooled_dim: int = bounded(32, "[1, inf)")        # object-question fusion output width
    answer_count: int = bounded(11, "[2, inf)")
    vocab_size: int = bounded(16, "[1, inf)")
    dropout: float = bounded(0.2, "[0, 1)")
    seed: int = bounded(0, "[0, inf)")
    vgw_fusion: FusionConfig = field(default_factory=FusionConfig)
    obj_fusion: FusionConfig = field(default_factory=FusionConfig)
    classifier_hidden: int = bounded(0, "[0, inf)")  # 0: defaults to 2 * pooled_dim

    def __post_init__(self):
        check_fields(self)
        self.classifier_hidden = self.classifier_hidden or 2 * self.pooled_dim

    @property
    def question_dim(self) -> int:
        return 2 * self.hidden


@dataclass
class ModelParams:
    config: ModelConfig
    embedding: Tensor              # (vocab, d_w) frozen word table; no slice of `flat`
    gru_fwd: GruParams
    gru_bwd: GruParams
    obj_fusion: BlockFusionParams
    cls_hidden: Linear
    cls_out: Linear
    vgw: VgwParams | None = None   # read by both directions of the grounded encoder
    flat: np.ndarray = field(init=False, repr=False, compare=False)
    grad: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        """Pack the trainable arrays into `flat` in named_parameters() order, beside a
        zero `grad` of the same layout; each one's data and grad view their slices."""
        leaves = [t for _, t in self.named_parameters()]
        self.flat = np.concatenate([t.data for t in leaves], axis=None,
                                   dtype=T.get_default_dtype())
        self.grad = np.zeros_like(self.flat)
        end = 0
        for t in leaves:
            start, end = end, end + t.size
            t.data, t.grad = self.flat[start:end].reshape(t.shape), \
                self.grad[start:end].reshape(t.shape)

    @property
    def variant(self) -> str:
        return self.config.variant

    def named_arrays(self):
        """Every array in the model, frozen ones included; fixed order."""
        yield "embedding.vectors", self.embedding
        if self.vgw is not None:
            yield from self.vgw.named_arrays("vgw")
        yield from self.gru_fwd.named_arrays("gru_fwd")
        yield from self.gru_bwd.named_arrays("gru_bwd")
        yield from self.obj_fusion.named_arrays("obj_fusion")
        yield from self.cls_hidden.named_arrays("cls_hidden")
        yield from self.cls_out.named_arrays("cls_out")

    def named_parameters(self):
        """Trainable arrays: every array but the frozen embedding table."""
        for name, t in self.named_arrays():
            if t is not self.embedding:
                yield name, t


def init_model(config: ModelConfig,
               embedding_vectors: np.ndarray | None = None) -> ModelParams:
    """Build parameters for either variant, deterministically from config.seed.

    embedding_vectors, when given, become the frozen word-embedding table
    (the dataset supplies them so words and object labels share a space).
    """
    return _build_model(config, config.seed, embedding_vectors)


def _build_model(config: ModelConfig, seed: int | None,
                 embedding_vectors: np.ndarray | None = None) -> ModelParams:
    """init_model's body, seeded from `seed`; a seed of None builds the
    layout alone, every array zero and nothing drawn."""
    rng = init_rng(seed, 0xD0DE)
    if embedding_vectors is not None:
        embedding = Tensor(embedding_vectors)
        if embedding.shape != (config.vocab_size, config.d_w):
            raise ShapeError(f"embedding table {embedding.shape} does not match "
                             f"config (vocab={config.vocab_size}, d_w={config.d_w})")
    else:
        embedding = embedding_table_init(config.vocab_size, config.d_w, seed=seed)

    vgw = None
    if config.variant == "vgqe":
        gru_input = config.grounded_dim
        with config_section("vgw_fusion"):
            vgw = vgw_params_init(config.d_v, config.d_w, config.refined_dim,
                                  config.grounded_dim, config.vgw_fusion.proj_dim,
                                  config.vgw_fusion.out_proj_dim, config.vgw_fusion.chunks,
                                  config.vgw_fusion.rank, seed=child_seed(rng))
    else:
        gru_input = config.d_w

    gru_fwd = gru_params_init(gru_input, config.hidden, seed=child_seed(rng))
    gru_bwd = gru_params_init(gru_input, config.hidden, seed=child_seed(rng))
    with config_section("obj_fusion"):
        obj_fusion = block_params_init(
            config.d_v, config.question_dim, config.obj_fusion.proj_dim,
            config.obj_fusion.out_proj_dim, config.pooled_dim,
            config.obj_fusion.chunks, config.obj_fusion.rank,
            seed=child_seed(rng))
    cls_rng = init_rng(seed, 0xC1A55)
    cls_hidden = linear_init(cls_rng, config.pooled_dim, config.classifier_hidden)
    cls_out = linear_init(cls_rng, config.classifier_hidden, config.answer_count)
    return ModelParams(config=config, embedding=embedding, gru_fwd=gru_fwd,
                       gru_bwd=gru_bwd, obj_fusion=obj_fusion,
                       cls_hidden=cls_hidden, cls_out=cls_out,
                       vgw=vgw)


def encode_questions(params: ModelParams, visual: np.ndarray, labels: np.ndarray,
                     tokens: np.ndarray) -> Tensor:
    """Question representations (B, 2H) for a batch sharing one length."""
    if params.variant == "vgqe":
        return encode_questions_vgqe(visual, labels, tokens, params.embedding, params.vgw,
                                     params.gru_fwd, params.gru_bwd)[0]
    return encode_questions_baseline(tokens, params.embedding,
                                     params.gru_fwd, params.gru_bwd)


def _dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return T.mul(x, Tensor(mask))


def forward_batch(params: ModelParams, visual: np.ndarray, labels: np.ndarray,
                  tokens: np.ndarray, training: bool = False,
                  drop_rng: np.random.Generator | None = None) -> Tensor:
    """Logits (B, A) for stacked scenes (B, k, *) and token rows (B, T)."""
    visual = np.asarray(visual)
    labels = np.asarray(labels)
    tokens = np.asarray(tokens)
    batch, k, d_v = visual.shape
    cfg = params.config
    if d_v != cfg.d_v or labels.shape != (batch, k, cfg.d_w):
        raise ShapeError(f"scene tensors {visual.shape}/{labels.shape} do not match "
                         f"config dims d_v={cfg.d_v}, d_w={cfg.d_w}")
    if tokens.ndim == 2 and len(tokens) != batch:
        raise ShapeError(f"{len(tokens)} token rows for {batch} scenes")
    if training and cfg.dropout > 0 and drop_rng is None:
        raise ValueError("training-mode forward with dropout needs a generator")

    q_enc = encode_questions(params, visual, labels, tokens)
    # object-major: row o*B + b is object o of scene b, so it pairs with question
    # row b, and each object position is one contiguous block of B rows
    v_flat = Tensor(visual.transpose(1, 0, 2).reshape(k * batch, d_v))
    fused = block_fuse(v_flat, q_enc, params.obj_fusion)          # (k*B, pooled)
    pooled = T.reduce_max(T.reshape(fused, (k, batch, cfg.pooled_dim)), axis=0)
    if training and cfg.dropout > 0:
        pooled = _dropout(pooled, cfg.dropout, drop_rng)
    hidden = T.relu(params.cls_hidden(pooled))
    if training and cfg.dropout > 0:
        hidden = _dropout(hidden, cfg.dropout, drop_rng)
    return params.cls_out(hidden)


def count_parameters(params: ModelParams) -> int:
    """Exact count of learnable scalars (frozen tables contribute nothing)."""
    return params.flat.size


# ---------------------------------------------------------------------------
# checkpoints: the embedding bytes, then `flat`, plus a JSON manifest that
# records their sha256


CHECKPOINT_FORMAT = "vqalab-flat-arrays-v4"


def save_checkpoint(params: ModelParams, path) -> None:
    """Write `path` (JSON manifest) and `path`.bin (the embedding, then `flat`)."""
    path = Path(path)
    bin_path = path.with_suffix(path.suffix + ".bin")
    entries = []
    offset = 0
    for name, t in params.named_arrays():
        entries.append({
            "name": name,
            "shape": list(t.shape),
            "dtype": str(t.data.dtype),
            "byte_offset": offset,
            "trainable": t is not params.embedding,
        })
        offset += t.data.nbytes
    raw = params.embedding.data.tobytes() + params.flat.tobytes()
    manifest = {
        "format": CHECKPOINT_FORMAT,
        "config": asdict(params.config),
        "data_file": bin_path.name,
        "data_sha256": hashlib.sha256(raw).hexdigest(),
        "arrays": entries,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    bin_path.write_bytes(raw)
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")


@dataclass
class ArrayEntry:
    name: str
    shape: list[int]
    dtype: str
    byte_offset: int
    trainable: bool


@dataclass
class CheckpointManifest:
    """The JSON manifest `save_checkpoint` writes beside its `.bin`."""
    format: str
    config: ModelConfig
    data_file: str   # a bare file name, in the manifest's directory
    data_sha256: str
    arrays: list[ArrayEntry]

    def __post_init__(self):
        if self.data_file in ("", ".", "..") or Path(self.data_file).name != self.data_file:
            raise ConfigError("data_file", f"must be a bare file name, got {self.data_file!r}")
        for i, entry in enumerate(self.arrays):
            if entry.dtype not in ("float64", "float32"):
                raise ConfigError(f"arrays.{i}.dtype", "must be 'float64' or 'float32', "
                                                       f"got {entry.dtype!r}")


def load_checkpoint(path) -> ModelParams:
    """Rebuild a model, in the dtype it was saved in, from a manifest laying out
    the config's arrays as saved and a data file of the recorded sha256.

    The config's layout is built without drawing a value; the embedding and
    `flat` are then filled from the data file."""
    path = Path(path)
    manifest = read_record(CheckpointManifest, path, "checkpoint", file_format=CHECKPOINT_FORMAT)
    first = manifest.arrays[0].dtype if manifest.arrays else "float64"   # none: names refuse
    dtype = np.dtype(first)
    with T.using_dtype(dtype.type):
        params = _build_model(manifest.config, None)
    arrays = list(params.named_arrays())
    for i, (got, want) in enumerate(zip_longest([stored.name for stored in manifest.arrays],
                                                (name for name, _ in arrays))):
        if got != want:
            raise ValueError(f"checkpoint array {i} is {got!r}, this config expects {want!r}")
    offset = 0
    for (name, target), stored in zip(arrays, manifest.arrays):
        if (stored.dtype, stored.shape, stored.byte_offset) != (first, list(target.shape), offset):
            raise ValueError(f"checkpoint array {name!r} is {stored.dtype} {tuple(stored.shape)} "
                             f"at byte {stored.byte_offset}, this config expects {dtype} "
                             f"{target.shape} at byte {offset}")
        if stored.trainable != (target is not params.embedding):
            raise ValueError(f"checkpoint array {name!r} has trainable {stored.trainable}, "
                             f"this config expects {not stored.trainable}")
        offset += target.size * dtype.itemsize
    bin_path = existing_file(path.parent / manifest.data_file, "checkpoint data file")
    raw = bin_path.read_bytes()
    if len(raw) != offset:
        raise ValueError(f"checkpoint data file {bin_path} holds {len(raw)} bytes, "
                         f"its manifest expects {offset}")
    digest = hashlib.sha256(raw).hexdigest()
    if digest != manifest.data_sha256:
        raise ValueError(f"checkpoint data file {bin_path} has sha256 {digest}, its "
                         f"manifest records {manifest.data_sha256!r}")
    embedding = params.embedding.data
    embedding[...] = np.frombuffer(raw, dtype, count=embedding.size).reshape(embedding.shape)
    params.flat[...] = np.frombuffer(raw, dtype, offset=embedding.size * dtype.itemsize)
    return params
