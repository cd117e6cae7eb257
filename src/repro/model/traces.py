"""Trace events emitted by the executor (paper section 4.3, "Trace
generation").

The executor streams events to a :class:`TraceSink` as it walks the mapped
loop nest over real fibertrees.  Component models (buffers, caches,
intersection units, mergers, ...) subscribe to these events and accumulate
action counts; nothing is materialized globally unless a sink chooses to.

Event vocabulary:

* ``read`` / ``write`` — one coordinate/payload of one tensor rank touched.
  ``key`` identifies the element (the coordinate path from the root);
  ``ctx`` is the current loop context (a list of ``(rank, coord)`` pairs,
  outermost first) — buffets derive their evict windows from it.
* ``isect`` — one co-iterated fiber group at a rank: how many coordinates
  each input visited and how many matched.
* ``compute`` — one effectual arithmetic operation with its spacetime stamp.
* ``swizzle`` — an inferred rank swizzle of ``n`` elements on an
  intermediate tensor (consumer- or producer-side); merger components
  translate these into merge/sort action counts.
* ``einsum_begin`` / ``einsum_end`` — bracket each Einsum of the cascade.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, List, Optional, Tuple

from .stamps import StampSet


class TraceSink:
    """Base sink: ignores everything.  Subclass and override what you need."""

    def einsum_begin(self, name: str, ir) -> None:
        pass

    def einsum_end(self, name: str) -> None:
        pass

    def read(self, tensor: str, rank: str, kind: str, key, ctx) -> None:
        pass

    def write(self, tensor: str, rank: str, kind: str, key, ctx) -> None:
        pass

    def isect(self, rank: str, visited: int, matched: int) -> None:
        pass

    def compute(self, op: str, n: int, time_stamp, space_stamp) -> None:
        pass

    def swizzle(self, tensor: str, n: int, side: str) -> None:
        pass


class CountingSink(TraceSink):
    """A sink that tallies everything — handy for tests and quick studies."""

    def __init__(self):
        self.reads = Counter()  # (einsum, tensor, kind) -> count
        self.writes = Counter()
        self.computes = Counter()  # (einsum, op) -> count
        self.isect_visited = Counter()  # (einsum, rank) -> coords visited
        self.isect_matched = Counter()
        self.swizzles = Counter()  # (einsum, tensor, side) -> elements
        self.time_stamps = {}  # einsum -> dict(time_stamp -> leaf count)
        self.space_lanes = {}  # einsum -> set of space stamps
        self._einsum: Optional[str] = None

    def einsum_begin(self, name: str, ir) -> None:
        self._einsum = name
        self.time_stamps.setdefault(name, Counter())
        self.space_lanes.setdefault(name, set())

    def einsum_end(self, name: str) -> None:
        self._einsum = None

    def read(self, tensor, rank, kind, key, ctx) -> None:
        self.reads[(self._einsum, tensor, kind)] += 1

    def write(self, tensor, rank, kind, key, ctx) -> None:
        self.writes[(self._einsum, tensor, kind)] += 1

    def isect(self, rank, visited, matched) -> None:
        self.isect_visited[(self._einsum, rank)] += visited
        self.isect_matched[(self._einsum, rank)] += matched

    def compute(self, op, n, time_stamp, space_stamp) -> None:
        self.computes[(self._einsum, op)] += n
        self.time_stamps[self._einsum][time_stamp] += n
        self.space_lanes[self._einsum].add(space_stamp)

    def swizzle(self, tensor, n, side) -> None:
        self.swizzles[(self._einsum, tensor, side)] += n

    # Convenience accessors -------------------------------------------
    def total_reads(self, tensor: str) -> int:
        return sum(v for (_, t, _), v in self.reads.items() if t == tensor)

    def total_writes(self, tensor: str) -> int:
        return sum(v for (_, t, _), v in self.writes.items() if t == tensor)

    def total_computes(self, op: Optional[str] = None) -> int:
        if op is None:
            return sum(self.computes.values())
        return sum(v for (_, o), v in self.computes.items() if o == op)

    def serial_steps(self, einsum: str) -> int:
        """Distinct time stamps seen by an Einsum (its serial step count)."""
        return len(self.time_stamps.get(einsum, ()))

    def parallel_lanes(self, einsum: str) -> int:
        return max(1, len(self.space_lanes.get(einsum, ())))


class KernelCounters:
    """Counter-fused trace aggregates for one Einsum execution.

    Filled by the priced arena-native kernels, ``counted`` and ``vector``
    (:mod:`repro.ir.codegen_flat`): instead of one sink method call per
    touched element, the kernel bumps local integers and flushes them
    here once.  The tallies equal the aggregates of the per-element
    traced event stream exactly, so component models that only consume
    aggregates (DRAM traffic, intersection units, functional units,
    sequencers) can price a run in one pass at ``einsum_end``.

    * ``reads`` / ``writes`` — ``(tensor, rank, kind) -> count``;
    * ``isects`` — ``rank -> [visited, matched]``;
    * ``computes`` — ``op -> [n, time stamps]``, the stamps a
      :class:`~repro.model.stamps.StampSet`: the scalar leaves' stamp
      tuples plus one ``((pre, post), inner)`` entry per vector span,
      ``inner`` a ``range`` of loop positions or a coordinate column;
    * ``actions`` — per-component action tallies from the *vector* kernel
      flavor: ``[(component, tensor, {action: count}), ...]``, one entry
      per buffet/cache state machine that received events.  Recorded by
      :meth:`repro.model.evaluate.FusedMachines.settle` after the models
      were priced, so tests and studies can inspect exactly which
      fills/drains/hits/evictions the fused path accounted;
    * ``out_points`` — the distinct output points the kernel wrote, a
      sum that cancelled to zero included: the element count a
      producer-side swizzle sorts (the interpreter prices its output
      before pruning zeros, while arena kernels return it pruned).
    """

    __slots__ = ("reads", "writes", "isects", "computes", "actions",
                 "out_points")

    def __init__(self):
        self.reads = Counter()
        self.writes = Counter()
        self.isects = {}
        self.computes = {}
        self.actions = []
        self.out_points = 0

    def add_read(self, tensor: str, rank: str, kind: str, n: int) -> None:
        if n:
            self.reads[(tensor, rank, kind)] += n

    def add_write(self, tensor: str, rank: str, kind: str, n: int) -> None:
        if n:
            self.writes[(tensor, rank, kind)] += n

    def add_isect(self, rank: str, visited: int, matched: int) -> None:
        if visited or matched:
            entry = self.isects.setdefault(rank, [0, 0])
            entry[0] += visited
            entry[1] += matched

    def add_compute(self, op: str, n: int, scalars: set,
                    spans: list) -> None:
        """Record ``n`` ops of ``op`` and their time stamps.  The kernel
        hands over its own stamp set and list of span entries, adopted
        rather than copied."""
        if n:
            stamps = StampSet(scalars, spans)
            entry = self.computes.get(op)
            if entry is None:
                self.computes[op] = [n, stamps]
            else:
                entry[0] += n
                entry[1].update(stamps)

    def add_actions(self, component: str, tensor: str, tallies) -> None:
        """Record one fused component machine's per-action tallies."""
        self.actions.append((component, tensor, dict(tallies)))

    def component_actions(self, component: str) -> Counter:
        """Summed action tallies of one component (all tensors)."""
        out: Counter = Counter()
        for comp, _tensor, tallies in self.actions:
            if comp == component:
                out.update(tallies)
        return out

    @property
    def total_computes(self) -> int:
        return sum(entry[0] for entry in self.computes.values())
