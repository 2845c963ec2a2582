"""Spans and counters recorded around the benchmark's calls into chaingraph.

A span has a name (``layer.function``), a start, an end, the span that
caused it and the operation it belongs to.  Spans stay in memory and are
written out when the run ends.  With tracing off the benchmark uses
:data:`OFF`, whose ``span`` hands back one shared no-op context manager.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import nullcontext
from time import perf_counter

LAYERS = ("cli", "lang", "core", "plates", "decompose", "markov", "factorize", "oracle")


class _Span:
    __slots__ = ("tracer", "name", "start", "parent", "index")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        tr = self.tracer
        self.parent = tr.stack[-1] if tr.stack else -1
        self.index = len(tr.spans)
        tr.spans.append(None)
        tr.stack.append(self.index)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = perf_counter()
        tr = self.tracer
        tr.stack.pop()
        tr.spans[self.index] = (self.name, self.start, end, self.parent, tr.op)


class Tracer:
    """Records spans and counters in memory."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.peaks: dict[str, int] = {}
        self.op = 0

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] += n

    def peak(self, name: str, n: int) -> None:
        """Keep the largest value seen (for sizes rather than totals)."""
        self.peaks[name] = max(self.peaks.get(name, 0), n)

    def begin_op(self) -> None:
        self.op += 1

    def totals(self) -> dict[str, float]:
        """Summed duration per span name."""
        out: dict[str, float] = {}
        for name, start, end, _parent, _op in self.spans:
            out[name] = out.get(name, 0.0) + (end - start)
        return out

    def self_times(self) -> dict[str, float]:
        """Per layer, span time not covered by the span's own children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {layer: 0.0 for layer in LAYERS}
        for k, (name, start, end, _parent, _op) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (end - start) - child[k]
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op"],
                    "spans": self.spans,
                    "counters": dict(self.counters),
                    "peaks": self.peaks,
                },
                fh,
            )


class _Off:
    """Tracing switched off: every span is the same no-op."""

    enabled = False
    _null = nullcontext()
    op = 0

    def span(self, name: str):
        return self._null

    def count(self, name: str, n: int = 1) -> None:
        pass

    def peak(self, name: str, n: int) -> None:
        pass

    def begin_op(self) -> None:
        pass


OFF = _Off()
