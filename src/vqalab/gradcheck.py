"""Finite-difference verification of every differentiable path.

Each check builds a scalar loss through one subsystem and compares analytic
gradients against central differences (eps=1e-5, 64-bit) for every parameter
feeding it. Model functions run on row-batches of two, so gradients that
cross rows are covered too. Check dimensions are kept small so the whole suite
runs in seconds; the tolerance is 1e-4 throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .encoder import embedding_table_init, gru_cell, gru_params_init
from .fusion import block_fuse, block_params_init
from .grounding import (encode_questions_vgqe, grounded_words, vgw_attention,
                        vgw_params_init)
from .model import FusionConfig, ModelConfig, forward_batch, init_model
from .tensor import Tensor
from .train import cross_entropy_rows

TOLERANCE = 1e-4


@dataclass
class CheckResult:
    module: str
    name: str
    max_rel_error: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < TOLERANCE


def _check(module, name, loss_fn, tensors, results):
    worst = 0.0
    for _, t in tensors:
        worst = max(worst, T.grad_check(lambda _t: loss_fn(), t))
    results.append(CheckResult(module=module, name=name, max_rel_error=worst))


def check_tensor_ops() -> list[CheckResult]:
    results = []
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=6), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    # fixed constants; the loss closures must be deterministic across calls
    right = Tensor(rng.normal(size=(3, 2)))
    left = Tensor(rng.normal(size=(2, 3)))
    probe = Tensor(rng.normal(size=6))
    values = Tensor(rng.normal(size=(4, 3, 2)))
    # probes from values already drawn; a new draw would shift later inputs
    cat_probe = Tensor(values.data.reshape(4, 6)[:2])
    take_probe = Tensor(values.data.reshape(12, 2)[:5])
    softmax_probe = Tensor(values.data.reshape(8, 3)[4:])
    affine_probe = Tensor(values.data.reshape(6, 4)[:2])
    bias = Tensor(values.data.reshape(-1)[-4:].copy(), requires_grad=True)

    cases = {
        "elementwise": lambda: T.mul(T.sigmoid(x), T.tanh(T.scale(x, 0.5))).sum(),
        "relu": lambda: T.mul(T.relu(x), probe).sum(),
        "matmul": lambda: T.matmul(T.reshape(x, (2, 3)), right).sum(),
        "softmax": lambda: T.mul(T.softmax(x), probe).sum(),
        "reductions": lambda: T.add(T.add(x.max(), x.mean()),
                                    T.reshape(x, (2, 3)).max(axis=1).sum()),
        "logsumexp_rows": lambda: T.logsumexp_rows(T.reshape(x, (2, 3))).sum(),
        "concat": lambda: T.mul(T.concat([T.reshape(x, (2, 3)), T.reshape(T.tanh(x), (2, 3))],
                                         axis=1), cat_probe).sum(),
        "take_rows": lambda: T.mul(T.take_rows(T.reshape(x, (3, 2)), [2, 0, 2, 1, 0]),
                                   take_probe).sum(),
        "rows_pick": lambda: T.mul(T.rows_pick(T.reshape(x, (2, 3)), [2, 0]),
                                   probe.data[:2]).sum(),
        "sub": lambda: T.mul(T.reshape(T.sub(T.reshape(x, (2, 3)),
                                             T.reshape(x, (2, 3)).mean(axis=0)), (6,)),
                             probe).sum(),
        "take_softmax": lambda: T.mul(
            T.softmax(T.take_rows(T.reshape(x, (2, 3)), [0, 0, 1, 1]), axis=1),
            softmax_probe).sum(),
    }
    for name, fn in cases.items():
        _check("tensor_core", name, fn, [("x", x)], results)
    _check("tensor_core", "matmul_weight",
           lambda: T.matmul(left, w).sum(), [("w", w)], results)
    _check("tensor_core", "affine",
           lambda: T.mul(T.affine(T.reshape(x, (2, 3)), w, bias), affine_probe).sum(),
           [("x", x), ("w", w), ("b", bias)], results)
    _check_block_bilinear(rng, results)
    _check_gru_sequence(rng, results)
    _check_scene_attention(rng, results)
    return results


def _check_block_bilinear(rng, results) -> None:
    # unequal chunks: P=7 splits 3/2/2, P_out=5 splits 2/2/1; C=3, R=2
    x_sizes, out_sizes, rank = (3, 2, 2), (2, 2, 1), 2
    px = Tensor(rng.normal(size=(2, 7)), requires_grad=True)
    py = Tensor(rng.normal(size=(2, 7)), requires_grad=True)
    probe = Tensor(rng.normal(size=(2, 5)))

    def side():
        return ([Tensor(rng.normal(size=(p, rank * o)), requires_grad=True)
                 for p, o in zip(x_sizes, out_sizes)],
                [Tensor(rng.normal(size=rank * o), requires_grad=True) for o in out_sizes])

    (wx, bx), (wy, by) = side(), side()
    # grouped: px row i pairs with py row i mod 2, so each of the 2 py rows
    # pairs with 3 px rows, one in each block of 2
    px_grouped = Tensor(rng.normal(size=(6, 7)), requires_grad=True)
    probe_grouped = Tensor(rng.normal(size=(6, 5)))
    for name, x, out_probe in (("block_bilinear", px, probe),
                               ("block_bilinear_grouped", px_grouped, probe_grouped)):
        def loss(x=x, out_probe=out_probe):
            return T.mul(T.block_bilinear(x, py, wx, bx, wy, by, rank), out_probe).sum()
        inputs = [x, py, *wx, *wy, *bx, *by]
        _check("tensor_core", name, loss, [(str(i), t) for i, t in enumerate(inputs)],
               results)


def _check_gru_sequence(rng, results) -> None:
    p = gru_params_init(4, 3, seed=9)
    for steps in (1, 3):
        xs = Tensor(rng.normal(size=(steps, 2, 4)), requires_grad=True)
        probe = Tensor(rng.normal(size=(2, 3)))
        for reverse in (False, True):
            def loss(xs=xs, probe=probe, reverse=reverse):
                return T.mul(T.gru_sequence(xs, *p.arrays(), reverse=reverse), probe).sum()
            name = f"gru_sequence_{'reverse' if reverse else 'forward'}_T{steps}"
            _check("tensor_core", name, loss, [("xs", xs), *p.named_arrays()], results)


def _check_scene_attention(rng, results) -> None:
    # three step-major words per scene over two scenes of three objects
    words = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    column = Tensor(rng.normal(size=(4, 1)), requires_grad=True)
    labels = Tensor(rng.normal(size=(2, 3, 4)))
    visual = Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)
    probe = Tensor(rng.normal(size=(6, 5)))
    _check("tensor_core", "scene_attention",
           lambda: T.mul(T.scene_attention(words, column, labels, visual)[0], probe).sum(),
           [("words", words), ("column", column), ("visual", visual)], results)


def check_fusion() -> list[CheckResult]:
    results = []
    rng = np.random.default_rng(1)
    p = block_params_init(5, 4, 6, 6, 3, chunks=2, rank=2, seed=3)
    x = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
    y = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
    probe = Tensor(rng.normal(size=(2, 3)))
    loss = lambda: T.mul(block_fuse(x, y, p), probe).sum()
    _check("fusion", "block_fuse_inputs", loss, [("x", x), ("y", y)], results)
    _check("fusion", "block_fuse_params", loss, list(p.named_arrays()), results)
    return results


def check_encoder() -> list[CheckResult]:
    results = []
    rng = np.random.default_rng(2)
    p = gru_params_init(4, 3, seed=4)
    x = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
    h = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    probe = Tensor(rng.normal(size=(2, 3)))
    loss = lambda: T.mul(gru_cell(x, h, p), probe).sum()
    _check("encoder", "gru_cell_inputs", loss, [("x", x), ("h", h)], results)
    _check("encoder", "gru_cell_params", loss, list(p.named_arrays()), results)
    return results


def _small_vgqe(seed=5):
    """A grounded-word module and its forward and backward recurrences."""
    vgw = vgw_params_init(d_v=4, d_w=4, refined_dim=3, grounded_dim=4,
                          fusion_proj=4, fusion_out_proj=4, chunks=2, rank=2,
                          seed=seed)
    return vgw, gru_params_init(4, 3, seed=seed + 1), gru_params_init(4, 3, seed=seed + 2)


def check_grounding() -> list[CheckResult]:
    results = []
    rng = np.random.default_rng(3)
    vgw, forward, backward = _small_vgqe()
    visual = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    labels = Tensor(rng.normal(size=(2, 3, 4)))
    word = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
    probe_v = Tensor(rng.normal(size=(2, 4)))

    def attn_loss():
        _, f = vgw_attention(labels, word, vgw.score_column(), visual)
        return T.mul(f, probe_v).sum()

    _check("vgqe", "vgw_attention", attn_loss,
           [("word", word), ("visual", visual), ("attn_vector", vgw.attn_vector),
            ("attn_matrix", vgw.attn_matrix)], results)

    probe_g = Tensor(rng.normal(size=(2, 4)))

    def grounded_loss():
        g, _ = grounded_words(visual.data, labels.data, word, vgw)
        return T.mul(g, probe_g).sum()

    # scenes are data to grounded_words; the visual gradient is checked above
    _check("vgqe", "grounded_words", grounded_loss,
           [("word", word)] + list(vgw.named_arrays()), results)

    table = embedding_table_init(8, 4, seed=6)
    tokens = np.array([[1, 5, 2], [7, 0, 5]])
    probe_enc = Tensor(rng.normal(size=(2, 6)))

    def encode_loss():
        enc, _ = encode_questions_vgqe(visual.data, labels.data, tokens, table, vgw,
                                       forward, backward)
        return T.mul(enc, probe_enc).sum()

    _check("vgqe", "encode_questions", encode_loss,
           [*vgw.named_arrays(), *forward.named_arrays("forward"),
            *backward.named_arrays("backward")], results)
    return results


def _check_model(variant: str, results: list[CheckResult]) -> None:
    cfg = ModelConfig(variant=variant, d_v=6, d_w=5, hidden=4, refined_dim=4,
                      grounded_dim=6, pooled_dim=6, answer_count=8, vocab_size=9,
                      dropout=0.0, seed=7,
                      vgw_fusion=FusionConfig(6, 6, 2, 2),
                      obj_fusion=FusionConfig(6, 6, 2, 2))
    params = init_model(cfg)
    rng = np.random.default_rng(4)
    visual = rng.normal(size=(2, 3, 6))
    labels = rng.normal(size=(2, 3, 5))
    tokens = np.array([[1, 4, 2, 7], [3, 3, 8, 0]])
    answers = np.array([3, 6])

    def loss():
        logits = forward_batch(params, visual, labels, tokens)
        return T.reduce_mean(cross_entropy_rows(logits, answers))

    _check("model", f"{variant}_full", loss, list(params.named_parameters()), results)


def check_model() -> list[CheckResult]:
    results = []
    _check_model("baseline", results)
    _check_model("vgqe", results)
    return results


CHECKS = {
    "tensor_core": check_tensor_ops,
    "fusion": check_fusion,
    "encoder": check_encoder,
    "vgqe": check_grounding,
    "model": check_model,
}


def run_all(modules=None) -> list[CheckResult]:
    selected = list(CHECKS) if not modules else list(modules)
    results = []
    for name in selected:
        if name not in CHECKS:
            raise KeyError(f"unknown gradcheck module {name!r}; "
                           f"choose from {sorted(CHECKS)}")
        results.extend(CHECKS[name]())
    return results
