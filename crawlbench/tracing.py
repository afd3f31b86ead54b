"""In-memory spans around the benchmark's calls into each layer.

A span has a name, a start and an end (seconds since the tracer was made),
the id of the span that was open when it began (its parent) and optional
attributes.  Spans stay in memory and are written to one JSON file by
``write``.  A disabled tracer records nothing and costs one branch.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield None
            return
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter() - self._t0,
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter() - self._t0

    def self_times(self) -> dict[str, float]:
        """name → summed self time (duration minus the time its direct
        children cover; children of one span never overlap here)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None and s["end"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in self.spans:
            if s["end"] is not None:
                d = s["end"] - s["start"] - child[s["id"]]
                out[s["name"]] = out.get(s["name"], 0.0) + d
        return out

    def write(self, path: str) -> None:
        if not self.enabled:
            return
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "self_s": self.self_times()}, f, indent=1)
