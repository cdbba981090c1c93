import dataclasses

import numpy as np
import pytest


class CriterionOutput:
    """Prints acceptance-criterion lines through pytest's capture."""

    def __init__(self, capfd):
        self._capfd = capfd

    def announce(self, ok: bool, label: str, detail: str = "") -> None:
        suffix = f" ({detail})" if detail else ""
        self.line(f"[{'PASS' if ok else 'FAIL'}] {label}{suffix}")

    def line(self, text: str) -> None:
        with self._capfd.disabled():
            print(text, flush=True)


@pytest.fixture
def criterion_output(capfd):
    return CriterionOutput(capfd)


@pytest.fixture
def split_rows():
    """Some rows of a columnar split as a split of their own: `index` is a
    slice or a list of row numbers."""
    def take(split, index):
        rows = np.arange(len(split))[index]
        columns = {f.name: getattr(split, f.name)[rows] for f in dataclasses.fields(split)
                   if f.name not in ("name", "ids")}
        return dataclasses.replace(split, ids=[split.ids[i] for i in rows], **columns)
    return take
