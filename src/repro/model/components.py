"""Per-component action-count models (paper Table 3, section 4.3).

Each model consumes the executor's trace events and produces *action
counts*; timing converts action counts to per-component times, and energy
converts them to pJ.  The supported classes are those of Table 3:

* :class:`DramModel` — byte counters per tensor, bandwidth-limited time;
* :class:`BuffetModel` — explicitly-managed buffer (buffet [37]): fills on
  first access within an evict window, drains dirty data on window change;
  re-reads of previously drained output tiles are the "partial output"
  (PO) traffic of Figure 9a;
* :class:`CacheModel` — LRU cache over element keys with a bit capacity;
* :class:`IntersectModel` — two-finger, leader-follower, or skip-ahead
  coordinate co-iteration cost;
* :class:`MergerModel` — hardware merge/sort of swizzled intermediates;
* :class:`ComputeModel` — effectual ALU operations and serial step counts;
* :class:`SequencerModel` — coordinate issue counting.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from ..spec.architecture import Component
from .stamps import StampSet


@dataclass
class Traffic:
    """Bits moved to/from DRAM, split by tensor and direction.

    Accumulation is an exact multiset: each transfer is recorded as a
    ``(tensor, bits-per-access) -> count`` integer bump, and totals are
    reduced from the multiset in a deterministic (sorted) order.  This
    makes traffic *order-insensitive and bulk-equal by construction*:
    ``n`` single accesses of ``b`` bits and one bulk record of ``(b, n)``
    produce bit-identical totals even for fractional ``b`` (e.g. eager
    subtree fills price ``total_bits / elements`` bits per element), no
    matter how event and counter-fused pricing interleave.  The
    differential suite relies on this to hold the traced, counted, and
    fused metric paths to exact equality.
    """

    # (tensor, bits-per-access) -> access count
    read_counts: Counter = field(default_factory=Counter)
    write_counts: Counter = field(default_factory=Counter)

    def read(self, tensor: str, bits: float, n: int = 1) -> None:
        if n:
            self.read_counts[(tensor, bits)] += n

    def write(self, tensor: str, bits: float, n: int = 1) -> None:
        if n:
            self.write_counts[(tensor, bits)] += n

    @staticmethod
    def _reduce(counts: Counter) -> Counter:
        out: Counter = Counter()
        for (tensor, bits), n in sorted(counts.items(),
                                        key=lambda kv: (kv[0][0], kv[0][1])):
            out[tensor] += bits * n
        return out

    @property
    def read_bits(self) -> Counter:
        """Per-tensor read bits (reduced deterministically)."""
        return self._reduce(self.read_counts)

    @property
    def write_bits(self) -> Counter:
        """Per-tensor write bits (reduced deterministically)."""
        return self._reduce(self.write_counts)

    @property
    def total_bits(self) -> float:
        reads = self._reduce(self.read_counts)
        writes = self._reduce(self.write_counts)
        return sum(reads.values()) + sum(writes.values())

    def tensor_bits(self, tensor: str) -> float:
        return self.read_bits[tensor] + self.write_bits[tensor]


class DramModel:
    """Main-memory model: pure traffic accounting."""

    def __init__(self, component: Component):
        self.component = component
        self.traffic = Traffic()
        self.accesses = 0

    @property
    def bandwidth_bits(self) -> float:
        gb_s = float(self.component.attr("bandwidth", 128))
        return gb_s * 8e9

    def read(self, tensor: str, bits: float) -> None:
        self.traffic.read(tensor, bits)
        self.accesses += 1

    def write(self, tensor: str, bits: float) -> None:
        self.traffic.write(tensor, bits)
        self.accesses += 1

    def read_bulk(self, tensor: str, bits: float, n: int) -> None:
        """``n`` reads of ``bits`` each, priced in one pass (counter /
        model fusion): identical traffic and access counts to ``n`` calls
        of :meth:`read` — exactly, since :class:`Traffic` accumulates
        (bits, count) multisets rather than float sums."""
        self.traffic.read(tensor, bits, n)
        self.accesses += n

    def write_bulk(self, tensor: str, bits: float, n: int) -> None:
        self.traffic.write(tensor, bits, n)
        self.accesses += n

    def time_seconds(self) -> float:
        return self.traffic.total_bits / self.bandwidth_bits

    def action_counts(self) -> Dict[str, float]:
        return {
            "dram_read_bits": sum(self.traffic.read_bits.values()),
            "dram_write_bits": sum(self.traffic.write_bits.values()),
        }


class BuffetModel:
    """Explicitly-managed buffer with fill/drain policy (buffets [37]).

    One instance models one (tensor, rank) binding.  The evict window is the
    loop-context prefix down to the ``evict-on`` rank; when it changes, all
    buffered elements drain (dirty ones write back).  An element re-filled
    after it was previously drained as output incurs a read-modify-write
    (partial-output traffic).
    """

    def __init__(self, component: Component, binding, dram: DramModel,
                 element_bits: float, fill_bits: float,
                 key_depth: Optional[int] = None):
        self.component = component
        self.binding = binding
        self.dram = dram
        self.element_bits = element_bits  # bits per buffered element access
        self.fill_bits = fill_bits  # bits filled per miss (eager: subtree)
        self.key_depth = key_depth  # truncate keys for subtree coverage
        self.spill = getattr(binding, "spill", True)
        self.window: Optional[tuple] = None
        self.present: Set = set()
        self.dirty: Set = set()
        self.ever_drained: Set = set()
        self.reads = 0
        self.writes = 0
        self.fills = 0
        self.drains = 0
        self.partial_output_fills = 0

    def _key(self, key):
        if self.key_depth is None:
            return key
        rank, path = key
        return path[: self.key_depth]

    def _window_of(self, ctx) -> tuple:
        if self.binding.evict_on is None or ctx is None:
            return ()
        out = []
        for rank, coord in ctx:
            out.append((rank, coord))
            if rank == self.binding.evict_on:
                break
        return tuple(out)

    def _roll_window(self, ctx) -> None:
        window = self._window_of(ctx)
        if window != self.window:
            self.drain()
            self.window = window

    def drain(self) -> None:
        for key in self.dirty:
            if self.spill:
                self.dram.write(self.binding.tensor, self.element_bits)
            self.ever_drained.add(key)
            self.drains += 1
        self.present.clear()
        self.dirty.clear()

    def access_read(self, key, ctx) -> None:
        self._roll_window(ctx)
        key = self._key(key)
        self.reads += 1
        if key in self.present:
            return
        self.present.add(key)
        self.fills += 1
        if self.spill:
            self.dram.read(self.binding.tensor, self.fill_bits)

    def access_write(self, key, ctx) -> None:
        self._roll_window(ctx)
        key = self._key(key)
        self.writes += 1
        if key not in self.present:
            self.present.add(key)
            self.fills += 1
            if key in self.ever_drained:
                # Partial-output element returning for more reduction.
                self.partial_output_fills += 1
                if self.spill:
                    self.dram.read(self.binding.tensor, self.fill_bits)
        self.dirty.add(key)

    def finish(self) -> None:
        self.drain()
        self.window = None

    def price_actions(self, tallies) -> None:
        """Absorb a fused state machine's action tallies in one pass.

        ``tallies`` is the mapping a
        :class:`repro.ir.codegen_runtime.FusedBuffet` produces: pure
        integer counts of the very same decisions :meth:`access_read` /
        :meth:`access_write` / :meth:`drain` would have taken per event,
        so pricing them in bulk is exact.  The event-driven API stays
        intact for the interpreter and the traced kernels.
        """
        self.reads += tallies["reads"]
        self.writes += tallies["writes"]
        self.fills += tallies["fills"]
        self.drains += tallies["drains"]
        self.partial_output_fills += tallies["partial_output_fills"]
        if self.spill:
            self.dram.read_bulk(self.binding.tensor, self.fill_bits,
                                tallies["fill_reads"])
            self.dram.write_bulk(self.binding.tensor, self.element_bits,
                                 tallies["drains"])

    def time_seconds(self, clock_hz: float) -> float:
        bw = self.component.attr("bandwidth")
        bits = (self.reads + self.writes) * self.element_bits
        if bw:
            return bits / (float(bw) * 8e9)
        width = float(self.component.attr("width", 64))
        cycles = bits / max(width, 1) / max(self.component.count, 1)
        return cycles / clock_hz

    def action_counts(self) -> Dict[str, float]:
        return {
            "buffer_read_bits": self.reads * self.element_bits,
            "buffer_write_bits": self.writes * self.element_bits,
            "buffer_fill_bits": self.fills * self.fill_bits,
        }


class CacheModel:
    """Fully-associative LRU cache over element keys.

    Capacity is ``width x depth`` bits.  Each cached element occupies its
    fill footprint; evictions of dirty elements write back.
    """

    def __init__(self, component: Component, binding, dram: DramModel,
                 element_bits: float, fill_bits: float,
                 key_depth: Optional[int] = None):
        self.component = component
        self.binding = binding
        self.dram = dram
        self.element_bits = element_bits
        self.fill_bits = max(fill_bits, 1e-9)
        self.key_depth = key_depth
        self.spill = getattr(binding, "spill", True)
        width = float(component.attr("width", 64))
        depth = float(component.attr("depth", 1024))
        self.capacity_bits = width * depth * max(component.count, 1)
        self.lru: OrderedDict = OrderedDict()
        self.occupied = 0.0
        self.hits = 0
        self.misses = 0
        self.writebacks = 0
        self.reads = 0
        self.writes = 0

    def _key(self, key):
        if self.key_depth is None:
            return key
        rank, path = key
        return path[: self.key_depth]

    def _touch(self, key, dirty: bool) -> None:
        if key in self.lru:
            self.hits += 1
            self.lru.move_to_end(key)
            if dirty:
                self.lru[key] = True
            return
        self.misses += 1
        if not dirty and self.spill:
            self.dram.read(self.binding.tensor, self.fill_bits)
        while self.occupied + self.fill_bits > self.capacity_bits and self.lru:
            old_key, old_dirty = self.lru.popitem(last=False)
            self.occupied -= self.fill_bits
            if old_dirty:
                self.writebacks += 1
                if self.spill:
                    self.dram.write(self.binding.tensor, self.element_bits)
        self.lru[key] = dirty
        self.occupied += self.fill_bits

    def access_read(self, key, ctx) -> None:
        self.reads += 1
        self._touch(self._key(key), dirty=False)

    def access_write(self, key, ctx) -> None:
        self.writes += 1
        self._touch(self._key(key), dirty=True)

    def finish(self) -> None:
        for key, dirty in self.lru.items():
            if dirty:
                self.writebacks += 1
                if self.spill:
                    self.dram.write(self.binding.tensor, self.element_bits)
        self.lru.clear()
        self.occupied = 0.0

    def price_actions(self, tallies) -> None:
        """Absorb a fused state machine's action tallies in one pass.

        ``tallies`` comes from a
        :class:`repro.ir.codegen_runtime.FusedCache`, which replays this
        model's exact LRU/occupancy decisions (including the float
        ``occupied`` accumulation sequence), so bulk pricing is exact.
        """
        self.reads += tallies["reads"]
        self.writes += tallies["writes"]
        self.hits += tallies["hits"]
        self.misses += tallies["misses"]
        self.writebacks += tallies["writebacks"]
        if self.spill:
            self.dram.read_bulk(self.binding.tensor, self.fill_bits,
                                tallies["fill_reads"])
            self.dram.write_bulk(self.binding.tensor, self.element_bits,
                                 tallies["writebacks"])

    def time_seconds(self, clock_hz: float) -> float:
        bw = self.component.attr("bandwidth")
        bits = (self.reads + self.writes) * self.element_bits
        if bw:
            return bits / (float(bw) * 8e9)
        width = float(self.component.attr("width", 64))
        cycles = bits / max(width, 1) / max(self.component.count, 1)
        return cycles / clock_hz

    def action_counts(self) -> Dict[str, float]:
        return {
            "cache_read_bits": self.reads * self.element_bits,
            "cache_write_bits": self.writes * self.element_bits,
            "cache_fill_bits": self.misses * self.fill_bits,
        }


class IntersectModel:
    """Intersection-unit model: cycles per co-iterated coordinate.

    * ``two-finger``: every visited coordinate of both operands costs a step;
    * ``leader-follower``: only the leader's coordinates are stepped, plus a
      lookup per match;
    * ``skip-ahead`` (ExTensor): matched coordinates plus the skip decisions
      — visits collapse geometrically, modeled as matches plus the number of
      skip jumps (one per divergence).
    """

    def __init__(self, component: Component):
        self.component = component
        self.kind = component.attr("type", "two-finger")
        self.visited = 0
        self.matched = 0
        self.events = 0

    def isect(self, visited: int, matched: int) -> None:
        self.visited += visited
        self.matched += matched
        self.events += 1

    def cycles(self) -> float:
        if self.kind == "skip-ahead":
            skips = max(0, self.visited - 2 * self.matched)
            # Each skip is resolved in O(1) by the skip-ahead unit.
            return self.matched + 0.25 * skips
        if self.kind == "leader-follower":
            return max(self.matched, (self.visited + 1) // 2)
        return self.visited  # two-finger walks everything

    def time_seconds(self, clock_hz: float) -> float:
        throughput = float(self.component.attr("throughput", 1))
        units = max(self.component.count, 1)
        return self.cycles() / throughput / units / clock_hz

    def action_counts(self) -> Dict[str, float]:
        return {"isect_compares": float(self.cycles())}


class MergerModel:
    """Hardware merger: sorts/merges swizzled intermediate tensors.

    A radix-``r`` comparator network merging ``inputs`` streams needs
    ``ceil(log_r(inputs))`` passes; each pass touches every element once.
    """

    def __init__(self, component: Component):
        self.component = component
        self.elements = 0
        self.events = 0

    def swizzle(self, n: int) -> None:
        self.elements += n
        self.events += 1

    def passes(self) -> float:
        import math

        inputs = float(self.component.attr("inputs", 64))
        radix = float(self.component.attr("comparator_radix", 64))
        if radix <= 1:
            return 1.0
        return max(1.0, math.ceil(math.log(max(inputs, 2), radix)))

    def cycles(self) -> float:
        out = float(self.component.attr("outputs", 1))
        units = max(self.component.count, 1)
        return self.elements * self.passes() / max(out, 1) / units

    def time_seconds(self, clock_hz: float) -> float:
        return self.cycles() / clock_hz

    def action_counts(self) -> Dict[str, float]:
        return {"merger_elements": float(self.elements * self.passes())}


class ComputeModel:
    """Functional units: effectual ops and serial (bottleneck) steps."""

    def __init__(self, component: Component):
        self.component = component
        self.ops = 0
        self.steps = StampSet()  # distinct time stamps
        self._extra_steps = 0.0  # analytical (expected) serial steps

    def compute(self, n: int, time_stamp) -> None:
        self.ops += n
        self.steps.add(time_stamp)

    def compute_bulk(self, n: int, time_stamps: StampSet) -> None:
        """Aggregate form used by counter-fused pricing: ``n`` total ops
        whose compute events carried exactly these time stamps (scalar
        tuples plus vector span entries, see
        :class:`~repro.model.stamps.StampSet`).  Stamps routed to one
        model from several ops form a union."""
        self.ops += n
        self.steps.update(time_stamps)

    def finish(self) -> None:
        """Count the Einsum's distinct time stamps at its end, so the one
        sort runs inside the evaluation that produced them (the count is
        memoized for every later :meth:`serial_steps`)."""
        len(self.steps)

    def compute_estimate(self, n: float, steps: float, lanes: float) -> None:
        """Expectation form used by analytical pricing: ``n`` total ops
        spread over an *expected* ``steps`` serial steps across ``lanes``
        parallel lanes.  Steps accumulate as a float tally rather than a
        distinct-stamp set (there are no concrete stamps to collect)."""
        self.ops += n
        self._extra_steps += steps

    def serial_steps(self) -> float:
        return len(self.steps) + self._extra_steps

    def utilization(self) -> float:
        steps = self.serial_steps()
        if not steps:
            return 0.0
        return self.ops / (steps * max(self.component.count, 1))

    def time_seconds(self, clock_hz: float) -> float:
        throughput = float(self.component.attr("throughput", 1))
        return self.serial_steps() / throughput / clock_hz

    def action_counts(self) -> Dict[str, float]:
        return {f"alu_{self.component.attr('type', 'mul')}_ops": float(self.ops)}


class SequencerModel:
    """Coordinate sequencer: issues one coordinate per effectual step."""

    def __init__(self, component: Component):
        self.component = component
        self.issued = 0

    def compute(self, n: int) -> None:
        self.issued += n

    def time_seconds(self, clock_hz: float) -> float:
        return self.issued / max(self.component.count, 1) / clock_hz

    def action_counts(self) -> Dict[str, float]:
        return {"sequencer_issues": float(self.issued)}
