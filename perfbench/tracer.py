"""Span tracing from outside the package: wrap public entry points, keep the
spans in memory, derive call counts and self time per layer.

A wrapped name is rebound where its caller looks it up (for example
`mctab.mcts.apply_action`, not `mctab.calculus.apply_action`), so the
package itself is never edited.  `Tracer.restore` puts every original back;
the benchmark checks that it did before it reports anything.
"""

from __future__ import annotations

import time
from array import array


class Tracer:
    """Nested spans in flat arrays: span i has a name id, a parent span index
    (-1 for a root) and start/end times in nanoseconds."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names: list = []  # name id -> span name
        self._ids: dict = {}
        self.name_of = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack: list = []
        self.counts: dict = {}  # count-only wrappers: name -> calls
        self.observed: dict = {}  # observer sums: key -> total
        self._patches: list = []  # (owner, attribute, original)

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.name_of)
        self.name_of.append(self._name_id(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int):
        self.end[idx] = self.clock()
        self.stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span of its own."""
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    # -- wrapping --------------------------------------------------------

    def _replace(self, owner, attr: str, wrapper):
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def wrap(self, owner, attr: str, name: str, observe=None):
        """Rebind owner.attr to a spanned wrapper; after each call,
        observe(self.observed, args, result) may add to the observed sums."""
        fn = vars(owner)[attr]
        open_, close = self.open, self.close

        def wrapper(*args, **kwargs):
            idx = open_(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if observe is not None:
                observe(self.observed, args, result)
            return result

        self._replace(owner, attr, wrapper)

    def count(self, owner, attr: str, name: str):
        """Rebind owner.attr to a wrapper that only counts calls (for
        functions called too often to span)."""
        fn = vars(owner)[attr]
        cell = self.counts.setdefault(name, [0])

        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        self._replace(owner, attr, wrapper)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- derived figures ---------------------------------------------------

    def self_times(self) -> list:
        """Per span: duration minus the part of it its child spans cover."""
        n = len(self.name_of)
        self_ns = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                self_ns[p] -= self.end[i] - self.start[i]
        return self_ns

    def totals(self) -> dict:
        """name -> {"calls", "ns", "self_ns"} summed over all spans."""
        out = {name: {"calls": 0, "ns": 0, "self_ns": 0} for name in self.names}
        self_ns = self.self_times()
        for i, nid in enumerate(self.name_of):
            row = out[self.names[nid]]
            row["calls"] += 1
            row["ns"] += self.end[i] - self.start[i]
            row["self_ns"] += self_ns[i]
        return out

    def coverage(self, root_names) -> float:
        """Share of the root spans' time that their direct children cover."""
        roots = {self._ids[r] for r in root_names if r in self._ids}
        total = 0
        covered = 0
        for i, nid in enumerate(self.name_of):
            if nid in roots and self.parent[i] < 0:
                total += self.end[i] - self.start[i]
            else:
                p = self.parent[i]
                if p >= 0 and self.parent[p] < 0 and self.name_of[p] in roots:
                    covered += self.end[i] - self.start[i]
        return covered / total if total else 0.0
