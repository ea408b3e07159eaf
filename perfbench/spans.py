"""In-memory spans and counts recorded around calls into spboost's layers.

A span has a name, start and end (``time.perf_counter`` seconds), the id of
the span that was open when it began (its parent) and the id of the op it
belongs to.  Counts are attached to the op.  Nothing is written until
``write`` is called at the end of a run.  A tracer built with
``enabled=False`` records nothing, so the same replay code serves the
untraced reference run.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._stack: list[int] = []
        self._op: int | None = None

    @contextmanager
    def op(self, op_id: int, name: str):
        """Root span of one op; every span opened inside belongs to it."""
        self._op = op_id
        try:
            with self.span(name):
                yield
        finally:
            self._op = None

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "op": self._op,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def absent(self, *names: str) -> None:
        """Mark layers this op does not use with empty spans.

        Every op then reports every layer: an absent one reads as the
        tracer's own cost of an empty span (about a microsecond) and is
        flagged, rather than as a constant zero.
        """
        for name in names:
            with self.span(name):
                pass
            if self.enabled:
                self.spans[-1]["absent"] = True

    def count(self, name: str, value: float) -> None:
        """Add ``value`` to the op's counter ``name``."""
        if self.enabled:
            self.counts[self._op][name] += value

    def self_seconds(self, op_id: int) -> dict[str, float]:
        """Self time per span name within one op, summed over calls.

        A span's self time is its duration minus the durations of its
        direct children; spans here are strictly nested and sequential.
        """
        spans = [s for s in self.spans if s["op"] == op_id]
        child = defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = defaultdict(float)
        for s in spans:
            out[s["name"]] += (s["end"] - s["start"]) - child[s["id"]]
        return dict(out)

    def absent_layers(self, op_id: int) -> set:
        return {s["name"] for s in self.spans if s["op"] == op_id and s.get("absent")}

    def op_seconds(self, op_id: int) -> float:
        root = next(s for s in self.spans if s["op"] == op_id and s["parent"] is None)
        return root["end"] - root["start"]

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "spans": self.spans,
                    "counts": {str(k): dict(v) for k, v in self.counts.items()},
                },
                fh,
            )
