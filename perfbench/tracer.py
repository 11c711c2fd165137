"""Spans around calls into fedmvc's modules, recorded from outside.

The tracer replaces module attributes with timing wrappers; the program
itself is not edited. Spans stay in memory as (name, start, end, parent)
rows and are written once, when the run is over. A layer's self time is
its spans' durations minus the parts covered by their child spans, so a
``forward_views`` call made inside ``infer_fused`` counts toward inference
only when inference's own spans wrap it.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict


class Tracer:
    """Records spans and per-layer counters for one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple[str, float, float, int]] = []
        self.names: set[str] = set()
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    def wrap(self, name: str, fn, before=None, after=None):
        """``fn`` timed as a span called ``name``.

        ``before(args, kwargs)`` runs ahead of the call and ``after(args,
        kwargs, result)`` after it, both outside the timed interval.
        """
        self.names.add(name)
        spans, open_stack, clock = self.spans, self._open, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            slot = len(spans)
            spans.append((name, 0.0, 0.0, open_stack[-1] if open_stack else -1))
            open_stack.append(slot)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                open_stack.pop()
                spans[slot] = (name, start, end, spans[slot][3])
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Wrap ``owner.attr`` in place.

        A missing attribute is skipped, but ``name`` still reads zero in the
        results, so a layer that a refactor removed shows as no time spent.
        """
        self.names.add(name)
        original = getattr(owner, attr, None)
        if original is not None:
            setattr(owner, attr, self.wrap(name, original, before, after))

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open right now."""
        return any(self.spans[i][0] == name for i in self._open)

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span less the time of its children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict.fromkeys(self.names, 0.0)
        for (name, start, end, _), covered in zip(self.spans, child):
            out[name] += (end - start) - covered
        return out

    def calls(self) -> dict[str, int]:
        out = dict.fromkeys(self.names, 0)
        for name, *_ in self.spans:
            out[name] += 1
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans, "counts": self.counts}, fh)
