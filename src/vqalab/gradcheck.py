"""Finite-difference verification of every differentiable path.

Each check builds a scalar loss through one subsystem and compares analytic
gradients against central differences (eps=1e-5, 64-bit) for every parameter
feeding it. Model functions run on row-batches of two, so gradients that
cross rows are covered too. Check dimensions are kept small so the whole suite
runs in seconds; the tolerance is 1e-4 throughout.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .encoder import embedding_table_init, gru_cell, gru_params_init
from .fusion import block_fuse, block_params_init
from .grounding import (VgqeParams, encode_questions_vgqe, grounded_words,
                        vgw_attention, vgw_params_init)
from .model import FusionConfig, ModelConfig, forward_batch, init_model
from .tensor import Tensor
from .train import cross_entropy_rows

TOLERANCE = 1e-4
EPS = 1e-5


@dataclass
class CheckResult:
    module: str
    name: str
    max_rel_error: float
    tolerance: float = TOLERANCE
    seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance


def _check(module, name, loss_fn, tensors, results):
    started = time.perf_counter()
    worst = 0.0
    for _, t in tensors:
        worst = max(worst, T.grad_check(lambda _t: loss_fn(), t, eps=EPS))
    results.append(CheckResult(module=module, name=name, max_rel_error=worst,
                               seconds=time.perf_counter() - started))


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

    cases = {
        "elementwise": lambda: T.mul(T.sigmoid(x), T.tanh(T.scale(x, 0.5))).sum(),
        "relu_exp_log": lambda: T.log(T.add(T.exp(T.relu(x)), 1.0)).sum(),
        "matmul": lambda: T.matmul(T.reshape(x, (2, 3)), right).sum(),
        "softmax": lambda: T.dot(T.softmax(x), probe),
        "reductions": lambda: T.add(T.add(x.max(), x.mean()),
                                    T.reshape(x, (2, 3)).max(axis=1).sum()),
        "logsumexp_rows": lambda: T.logsumexp_rows(T.reshape(x, (2, 3))).sum(),
        "concat_narrow": lambda: T.narrow(T.concat([T.reshape(x, (2, 3))] * 2, axis=1),
                                          1, 2, 3).sum(),
        "repeat_attend": lambda: T.attend(
            T.softmax(T.reshape(T.repeat_rows(T.reshape(x, (2, 3)), 2), (4, 3)), axis=1),
            values).sum(),
    }
    for name, fn in cases.items():
        _check("tensor_core", name, fn, [("x", x)], results)
    _check("tensor_core", "matmul_weight",
           lambda: T.matmul(left, w).sum(), [("w", w)], results)
    return results


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
    vgw = vgw_params_init(d_v=4, d_w=4, refined_dim=3, grounded_dim=4,
                          fusion_proj=4, fusion_out_proj=4, chunks=2, rank=2,
                          seed=seed)
    return VgqeParams(vgw=vgw,
                      rnn_forward=gru_params_init(4, 3, seed=seed + 1),
                      rnn_backward=gru_params_init(4, 3, seed=seed + 2))


def check_grounding() -> list[CheckResult]:
    results = []
    rng = np.random.default_rng(3)
    p = _small_vgqe()
    visual = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    labels = Tensor(rng.normal(size=(2, 3, 4)))
    word = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
    probe_v = Tensor(rng.normal(size=(2, 4)))

    def attn_loss():
        _, f = vgw_attention(labels, word, p.vgw.attn_vector, p.vgw.attn_matrix, visual)
        return T.mul(f, probe_v).sum()

    _check("vgqe", "vgw_attention", attn_loss,
           [("word", word), ("attn_vector", p.vgw.attn_vector),
            ("attn_matrix", p.vgw.attn_matrix)], results)

    probe_g = Tensor(rng.normal(size=(2, 4)))

    def grounded_loss():
        (g,), _ = grounded_words(visual, labels, [word], p.vgw)
        return T.mul(g, probe_g).sum()

    _check("vgqe", "grounded_words", grounded_loss,
           [("visual", visual), ("word", word)] + list(p.vgw.named_arrays()), results)

    table = embedding_table_init(8, 4, seed=6)
    tokens = np.array([[1, 5, 2], [7, 0, 5]])
    probe_enc = Tensor(rng.normal(size=(2, 6)))

    def encode_loss():
        enc = encode_questions_vgqe(visual.data, labels.data, tokens, table, p)
        return T.mul(enc, probe_enc).sum()

    _check("vgqe", "encode_questions", encode_loss, list(p.named_arrays()), results)
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
