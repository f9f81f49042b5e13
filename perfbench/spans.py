"""In-memory span recorder for the traced benchmark run.

A span is one call into a layer, timed from the benchmark side: name,
start, end, parent span and the circuit or request id it worked on.
Spans stay in memory and are written out once, when the run ends.  The
program's own ``repro.perf`` counters are collected by activating a
fresh trace for each span, so a counter lands on the innermost span
that was open when the program counted it.
"""

from __future__ import annotations

import json
import resource
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


def rss_hwm_mb() -> float:
    """High-water resident set size of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Span:
    """One timed call; ``counters`` hold what the program counted in it."""

    __slots__ = (
        "sid", "name", "parent", "item", "start", "end", "counters",
        "rss_mb",
    )

    def __init__(self, sid: int, name: str, parent: Optional[int], item: str):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.item = item
        self.start = time.perf_counter()
        self.end = self.start
        self.counters: Dict[str, float] = {}
        self.rss_mb = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_dict(self) -> Dict[str, object]:
        return {
            "id": self.sid,
            "name": self.name,
            "parent": self.parent,
            "item": self.item,
            "start": self.start,
            "end": self.end,
            "counters": self.counters,
            "rss_mb": self.rss_mb,
        }


class Tracer:
    """Records a tree of spans; ``span()`` nests under the open span."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[Span] = []

    @contextmanager
    def span(self, name: str, item: str = "") -> Iterator[Span]:
        from repro.perf import profiled

        parent = self._open[-1] if self._open else None
        if not item and parent is not None:
            item = parent.item
        sp = Span(len(self.spans), name, parent.sid if parent else None, item)
        self.spans.append(sp)
        self._open.append(sp)
        try:
            with profiled(name) as trace:
                yield sp
        finally:
            sp.end = time.perf_counter()
            self._open.pop()
            for key, value in trace.counters.items():
                sp.counters[key] = sp.counters.get(key, 0) + value
            sp.rss_mb = rss_hwm_mb()

    def add(
        self,
        name: str,
        start: float,
        end: float,
        item: str = "",
        parent: Optional[int] = None,
        counters: Optional[Dict[str, float]] = None,
    ) -> Span:
        """Record an interval measured elsewhere (e.g. a request's round trip)."""
        sp = Span(len(self.spans), name, parent, item)
        sp.start, sp.end = start, end
        sp.counters = dict(counters or {})
        self.spans.append(sp)
        return sp

    def children(self) -> Dict[Optional[int], List[Span]]:
        kids: Dict[Optional[int], List[Span]] = {}
        for sp in self.spans:
            kids.setdefault(sp.parent, []).append(sp)
        return kids

    def self_seconds(self, sp: Span, kids=None) -> float:
        """Duration minus the part of it that child spans cover."""
        if kids is None:
            kids = self.children()
        covered = 0.0
        cursor = sp.start
        for child in sorted(kids.get(sp.sid, []), key=lambda s: s.start):
            lo = max(child.start, cursor)
            hi = min(child.end, sp.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return sp.seconds - covered

    def self_by_name(self) -> Dict[str, float]:
        """Total self time per span name."""
        kids = self.children()
        out: Dict[str, float] = {}
        for sp in self.spans:
            out[sp.name] = out.get(sp.name, 0.0) + self.self_seconds(sp, kids)
        return out

    def counter(self, name: str, key: str) -> float:
        """Sum of ``key`` over every span called ``name``."""
        return sum(s.counters.get(key, 0) for s in self.spans if s.name == name)

    def rss_hwm(self, prefix: str) -> float:
        """Highest RSS seen at the end of any span of one layer."""
        return max(
            (
                s.rss_mb
                for s in self.spans
                if s.name == prefix or s.name.startswith(prefix + ".")
            ),
            default=0.0,
        )

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([s.as_dict() for s in self.spans], fh)
            fh.write("\n")
