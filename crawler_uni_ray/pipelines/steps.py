"""User-extension surface (SURVEY.md §2.9): the reference is a closed
class (/root/reference/crawler.py:10-100, no hooks); here every pipeline
stage is a named, independently-testable, replaceable ``Step``.

A ``Step`` is anything with ``apply(ds: Dataset) -> Dataset``; UDF hooks
are plain ``map_batches`` callables wrapped by :class:`BatchStep`.
``Pipeline`` composes steps left-to-right and is itself a Step; named
steps can be replaced or have new steps inserted after them (e.g. a
custom quality filter ahead of a scheduling step).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol, runtime_checkable

from ray.data import Dataset


@runtime_checkable
class Step(Protocol):
    name: str

    def apply(self, ds: Dataset) -> Dataset: ...


@dataclass
class FnStep:
    """Step from a Dataset → Dataset function."""

    name: str
    fn: Callable[[Dataset], Dataset]

    def apply(self, ds: Dataset) -> Dataset:
        return self.fn(ds)


@dataclass
class BatchStep:
    """Step from a per-batch UDF (the map_batches hook point)."""

    name: str
    fn: Callable
    batch_format: str = "pyarrow"
    batch_size: int | None = None

    def apply(self, ds: Dataset) -> Dataset:
        kwargs = {"batch_format": self.batch_format}
        if self.batch_size is not None:
            kwargs["batch_size"] = self.batch_size
        return ds.map_batches(self.fn, **kwargs)


@dataclass
class Pipeline:
    name: str
    steps: list = field(default_factory=list)

    def apply(self, ds: Dataset) -> Dataset:
        for step in self.steps:
            ds = step.apply(ds)
        return ds

    def replaced(self, name: str, step) -> "Pipeline":
        """A copy with the named step swapped out."""
        return Pipeline(
            self.name,
            [step if s.name == name else s for s in self.steps],
        )

    def inserted_after(self, name: str, step) -> "Pipeline":
        out = []
        for s in self.steps:
            out.append(s)
            if s.name == name:
                out.append(step)
        return Pipeline(self.name, out)
