"""In-memory span tracer that wraps vqalab functions from outside the package.

Each traced function is replaced, for the duration of a ``Tracer.installed()``
block, at every module attribute through which the package calls it (for
example ``gru_cell`` is called both as ``vqalab.encoder.gru_cell`` and as
``vqalab.grounding.gru_cell``). A wrapped call records a span
``[name, start, end, parent]``; spans nest on one stack because the package
runs on a single thread. A few hooks also record counts where the work
happens: tape records at each backward pass, the gradient norm returned by
clipping, and batch rows against batch capacity.

A binding that no longer exists is listed in ``missing_bindings`` instead of
raising, so a refactor that deletes one shows up as a missing metric.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from collections import Counter
from pathlib import Path

# span name -> bindings ("module:attribute") through which the package calls it
BINDINGS = {
    "data.generate": ("vqalab.data:generate_dataset", "vqalab.cli:generate_dataset"),
    "data.save": ("vqalab.data:save_dataset", "vqalab.cli:save_dataset"),
    "data.load": ("vqalab.data:load_dataset", "vqalab.cli:load_dataset"),
    "train.train": ("vqalab.train:train", "vqalab.cli:train", "vqalab.experiment:train"),
    "train.stack_batch": ("vqalab.train:stack_batch", "vqalab.evaluate:stack_batch"),
    "train.loss": ("vqalab.train:cross_entropy_rows",),
    "train.clip": ("vqalab.train:clip_grad_norm",),
    "train.adamw": ("vqalab.train:adamw_step",),
    "train.zero_grads": ("vqalab.tensor:zero_grads",),
    "tensor.backward": ("vqalab.tensor:backward",),
    "model.forward": ("vqalab.train:forward_batch", "vqalab.evaluate:forward_batch",
                      "vqalab.model:forward_batch"),
    "model.load_checkpoint": ("vqalab.cli:load_checkpoint", "vqalab.model:load_checkpoint"),
    "model.save_checkpoint": ("vqalab.cli:save_checkpoint", "vqalab.model:save_checkpoint"),
    "encoder.encode": ("vqalab.model:encode_questions_baseline",
                       "vqalab.encoder:encode_questions_baseline"),
    "encoder.gru_cell": ("vqalab.encoder:gru_cell", "vqalab.grounding:gru_cell"),
    "grounding.encode": ("vqalab.model:encode_questions_vgqe",
                         "vqalab.grounding:encode_questions_vgqe"),
    "grounding.vgw_attention": ("vqalab.grounding:vgw_attention",),
    "fusion.block_fuse": ("vqalab.model:block_fuse", "vqalab.grounding:block_fuse",
                          "vqalab.fusion:block_fuse"),
    "evaluate.evaluate_split": ("vqalab.evaluate:evaluate_split", "vqalab.cli:evaluate_split",
                                "vqalab.experiment:evaluate_split"),
    "evaluate.predict": ("vqalab.evaluate:predict_split",),
    "evaluate.summarize": ("vqalab.evaluate:summarize_predictions",),
    "evaluate.report_write": ("vqalab.cli:report_to_json", "vqalab.evaluate:report_to_json"),
    "cli.report_traces": ("vqalab.cli:encode_question_vgqe", "vqalab.cli:trace_records"),
}

STEP = "train.step"            # synthetic span: one optimizer step of train()
NAME, START, END, PARENT = range(4)


def _dir_mb(path) -> float:
    return sum(p.stat().st_size for p in Path(path).glob("*.jsonl")) / 1e6


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.missing_bindings: list[str] = []
        self.wrapped_spans: set[str] = set()
        self.tape_records: list[int] = []          # per backward pass
        self.tape_ops: list[Counter] = []
        self.grad_norms: list[tuple[float, bool]] = []   # (pre-clip norm, clipped)
        self.batch_rows: list[tuple[int, int]] = []      # (rows, capacity)
        self.load_mb: list[float] = []
        self.save_mb: list[float] = []
        self._capacity: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        """Close span `index` and any span still open inside it."""
        now = time.perf_counter()
        while self.stack and self.stack[-1] >= index:
            self.spans[self.stack.pop()][END] = now

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    # -- installation ------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap every binding in BINDINGS; restore the originals on exit."""
        try:
            for name, bindings in BINDINGS.items():
                for binding in bindings:
                    module_name, attr = binding.split(":")
                    try:
                        module = importlib.import_module(module_name)
                        original = getattr(module, attr)
                    except (ImportError, AttributeError):
                        self.missing_bindings.append(binding)
                        continue
                    setattr(module, attr, self._wrap(original, name, binding))
                    self._saved.append((module, attr, original))
                    self.wrapped_spans.add(name)
            yield self
        finally:
            while self._saved:
                module, attr, original = self._saved.pop()
                setattr(module, attr, original)
            self.stack.clear()

    def _wrap(self, original, name: str, binding: str):
        pre = post = capacity = None
        if name == "train.train":
            capacity = lambda a: a["config"].batch_size                   # noqa: E731
        elif name == "evaluate.predict":
            capacity = lambda a: a["batch_size"]                          # noqa: E731
        elif name == "train.stack_batch":
            opens_step = binding == "vqalab.train:stack_batch"
            pre = functools.partial(self._before_stack_batch, opens_step)
        elif name == "tensor.backward":
            pre = self._before_backward
        elif name == "train.clip":
            post = lambda a, r: self.grad_norms.append(                    # noqa: E731
                (float(r[1]), float(r[1]) > a["max_norm"]))
        elif name == "train.zero_grads":
            post = self._after_zero_grads
        elif name == "data.load":
            pre = lambda a: self.load_mb.append(_dir_mb(a["data_dir"]))    # noqa: E731
        elif name == "data.save":
            post = lambda a, r: self.save_mb.append(_dir_mb(a["out_dir"]))  # noqa: E731
        signature = inspect.signature(original) if pre or post or capacity else None
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            arguments = None
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                arguments = bound.arguments
            if pre is not None:
                pre(arguments)
            if capacity is not None:
                tracer._capacity.append(capacity(arguments))
            index = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
                if capacity is not None:
                    tracer._capacity.pop()
            if post is not None:
                post(arguments, result)
            return result

        return wrapper

    # -- hooks -------------------------------------------------------------

    def _before_stack_batch(self, opens_step: bool, arguments: dict) -> None:
        capacity = self._capacity[-1] if self._capacity else len(arguments["batch"])
        self.batch_rows.append((len(arguments["batch"]), capacity))
        if opens_step:
            self.open(STEP)

    def _before_backward(self, arguments: dict) -> None:
        root = arguments["root"]
        tape = getattr(root, "_tape", None)
        if tape is None:
            return
        records = tape.records[: root._index + 1]
        self.tape_records.append(len(records))
        self.tape_ops.append(Counter(r.op for r in records))

    def _after_zero_grads(self, arguments: dict, result) -> None:
        if self.stack and self.spans[self.stack[-1]][NAME] == STEP:
            self.close(self.stack[-1])

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0 and s[END] is not None:
                child[s[PARENT]] += s[END] - s[START]
        return [(s[END] - s[START]) - child[i] if s[END] is not None else 0.0
                for i, s in enumerate(self.spans)]

    def has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index][PARENT]
        while parent >= 0:
            if self.spans[parent][NAME] == name:
                return True
            parent = self.spans[parent][PARENT]
        return False
