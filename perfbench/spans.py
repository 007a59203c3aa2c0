"""In-memory call spans for the traced benchmark runs.

A Tracer wraps functions at layer boundaries.  Every call is aggregated
under its call path, the chain of traced names from the outermost traced
call down to it, into count, total time, self time and an optional work
measure (digits emitted, table entries).  Calls whose name is listed in
``record`` are also kept one by one with start, end and parent, which
gives the run's phase timeline.  Self time is a call's duration minus
the time covered by its traced children.

Nothing is written while the traced code runs; ``to_json`` hands the
spans and the aggregates over at the end.
"""

from __future__ import annotations

import statistics
import time


class Tracer:
    def __init__(self, record=()):
        self.record = frozenset(record)
        self.spans: list[list] = []  # [name, start, end, parent span index or -1]
        self.stats: dict[str, list] = {}  # path -> [calls, total_s, self_s, units]
        # frames: (path, index of the nearest recorded span, [child seconds])
        self._stack: list[tuple[str, int, list[float]]] = [("", -1, [0.0])]
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, units=None):
        """Return fn wrapped in a span named name.

        units, if given, maps the call's result to a work count that is
        summed per path.
        """
        clock = time.perf_counter
        stack = self._stack
        stats = self.stats
        spans = self.spans
        keep = name in self.record

        def traced(*args, **kwargs):
            parent_path, parent_index, parent_child = stack[-1]
            path = parent_path + "/" + name if parent_path else name
            index = parent_index
            if keep:
                index = len(spans)
                spans.append([name, 0.0, 0.0, parent_index])
            child = [0.0]
            stack.append((path, index, child))
            work = 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if units is not None:
                    work = units(result)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent_child[0] += duration
                entry = stats.get(path)
                if entry is None:
                    entry = stats[path] = [0, 0.0, 0.0, 0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - child[0]
                entry[3] += work
                if keep:
                    spans[index][1] = start
                    spans[index][2] = end

        return traced

    def patch(self, owner, attr: str, name: str, units=None) -> None:
        """Replace owner.attr by a traced wrapper until unpatch()."""
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, units))

    def unpatch(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def to_json(self) -> dict:
        return {"spans": self.spans,
                "stats": {path: list(entry) for path, entry in self.stats.items()}}


class Profile:
    """Queries over the aggregates of a traced run.

    A name selects the spans called exactly that and its variants
    ``name[...]``; under restricts the selection to paths below a span
    of that name.
    """

    def __init__(self, stats: dict[str, list]):
        self.stats = stats

    def _select(self, name: str, under: str | None):
        variant = name + "["
        for path, entry in self.stats.items():
            parts = path.split("/")
            if ((parts[-1] == name or parts[-1].startswith(variant))
                    and (under is None or under in parts[:-1])):
                yield entry

    def calls(self, name: str, under: str | None = None) -> int:
        return sum(e[0] for e in self._select(name, under))

    def total(self, name: str, under: str | None = None) -> float:
        return sum(e[1] for e in self._select(name, under))

    def self_time(self, name: str, under: str | None = None) -> float:
        return sum(e[2] for e in self._select(name, under))

    def units(self, name: str, under: str | None = None) -> int:
        return sum(e[3] for e in self._select(name, under))

    def mean(self, name: str, under: str | None = None) -> float:
        calls = self.calls(name, under)
        return self.total(name, under) / calls if calls else 0.0

    def counts(self) -> dict[str, list[int]]:
        """Calls and work units per path: the deterministic part."""
        return {path: [e[0], e[3]] for path, e in sorted(self.stats.items())}


def median_metrics(per_pass: list[dict]) -> dict:
    """Median of each metric over passes; counts, which the passes must
    agree on, are taken from the first."""
    return {name: first if isinstance(first, int) else statistics.median(p[name] for p in per_pass)
            for name, first in per_pass[0].items()}
