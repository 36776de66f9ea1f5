"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent, item): the name is
``<layer>.<public call>``, the parent is the index of the enclosing span
and the item is the index of the workload item it serves.  Start and end
are CPU-time stamps of the recording thread, like the benchmark's
timings.  Spans stay in memory until the run ends and are written out
once.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List, Optional

# the package's modules; `forms` is negligible and folds into its caller
LAYERS = ("roots", "realnum", "bounds", "reduction", "exponents", "search", "cli")


class Span:
    __slots__ = ("name", "start", "end", "parent", "item")

    def __init__(self, name: str, start: int, parent: Optional[int],
                 item: Optional[int]):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.item = item

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def ns(self) -> int:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self.item: Optional[int] = None
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        rec = Span(name, time.thread_time_ns(), parent, self.item)
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec.end = time.thread_time_ns()
            self._open.pop()

    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def self_ns(self) -> List[int]:
        """Each span's duration less its children's; raises if the
        children of a span add up to more than the span itself."""
        child_ns = [0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_ns[s.parent] += s.ns
        for s, c in zip(self.spans, child_ns):
            if c > s.ns:
                raise AssertionError("children of span %s exceed it" % s.name)
        return [s.ns - c for s, c in zip(self.spans, child_ns)]

    def layer_self_ns(self) -> Dict[str, int]:
        """Self time per layer."""
        out: Dict[str, int] = defaultdict(int)
        for s, own in zip(self.spans, self.self_ns()):
            if s.layer in LAYERS:
                out[s.layer] += own
        return out

    def write(self, path: str):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start_ns": s.start,
                                     "end_ns": s.end, "parent": s.parent,
                                     "item": s.item}) + "\n")
