"""Harness-side spans: the per-layer breakdown taken from outside.

The program under test is not instrumented; the harness wraps each
public call into a layer with ``with T.span("<layer>.<phase>")``. A
span is (name, start, end, parent, op id); a layer's *self* time is its
span's duration minus the part its child spans cover, so the self
times of one op's spans partition that op's wall. Timed ops get
:data:`OFF`, whose spans and counters do nothing.
"""

from __future__ import annotations

import json
from time import perf_counter
from typing import Dict, List, Optional

#: name of the span the worker opens around one whole op; its self time
#: is harness glue, the one part of the wall no layer owns.
ROOT = "op"


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", record: dict):
        self.tracer = tracer
        self.record = record

    def __enter__(self):
        self.tracer._stack.append(self.record["id"])
        self.record["start"] = perf_counter()
        return self

    def __exit__(self, *exc):
        self.record["end"] = perf_counter()
        self.tracer._stack.pop()
        return False


class Tracer:
    """Records spans and counts in memory; :meth:`dump` writes them out
    once, when the benchmark ends."""

    on = True

    def __init__(self):
        self.spans: List[dict] = []
        self.counts: List[dict] = []
        self.op: Optional[int] = None  # id shared by the spans of one op
        self._stack: List[int] = []

    def span(self, name: str) -> _Span:
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
            "start": 0.0,
            "end": 0.0,
        }
        self.spans.append(record)
        return _Span(self, record)

    def count(self, name: str, n: int) -> None:
        self.counts.append({"name": name, "op": self.op, "n": n})

    def self_times(self, op: int) -> Dict[str, float]:
        """Self time per span name over the spans of one op."""
        mine = [s for s in self.spans if s["op"] == op]
        covered: Dict[int, float] = {}
        for s in mine:
            if s["parent"] is not None:
                covered[s["parent"]] = (
                    covered.get(s["parent"], 0.0) + s["end"] - s["start"]
                )
        out: Dict[str, float] = {}
        for s in mine:
            own = s["end"] - s["start"] - covered.get(s["id"], 0.0)
            out[s["name"]] = out.get(s["name"], 0.0) + own
        return out

    def op_counts(self, op: int) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for c in self.counts:
            if c["op"] == op:
                out[c["name"]] = out.get(c["name"], 0) + c["n"]
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counts": self.counts}, handle)


class _NoSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class _Off:
    """What timed ops get: no span is recorded, no count is kept."""

    on = False
    _span = _NoSpan()

    def span(self, name: str) -> _NoSpan:
        return self._span

    def count(self, name: str, n: int) -> None:
        pass


OFF = _Off()
