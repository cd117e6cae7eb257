"""Runtime helpers imported by TeAAL-generated loop-nest code.

The arena generator (:mod:`repro.ir.codegen_flat`) emits plain Python
whose only dependencies are the fibertree API and these helpers: span
lookups, chunk search, affine projection and occupancy-follower windows
over :class:`~repro.fibertree.arena.FlatArena` coordinate buffers; k-way
intersection and union over flat spans; the batched numpy primitives of
the vector flavor; and the buffet/cache state machines that flavor
inlines into its loops.

Every helper keeps the interpreting executor's membership decisions and
visit counts, so kernel outputs and tallies equal the aggregates of its
trace-event stream.  The differential test suite
(``tests/ir/test_codegen_differential.py``) enforces that equivalence.
"""

from __future__ import annotations

import bisect
from collections import OrderedDict
from typing import Any, Iterator, List, Optional, Tuple

import numpy as np


# ----------------------------------------------------------------------
# Flat-span helpers (used by the arena-native kernels of codegen_flat)
# ----------------------------------------------------------------------
# A flat cursor is a half-open position span [lo, hi) into one level's
# coordinate buffer of a FlatArena; ``lo is None`` marks an absent cursor.
# These helpers mirror the interpreter's fiber walks exactly — same
# membership, same visit counting — so the flat kernels stay differentially
# equal to it.

def span_find(coords, lo: Optional[int], hi: int, coord) -> int:
    """Position of ``coord`` in the span, or -1 when absent."""
    i = bisect.bisect_left(coords, coord, lo, hi)
    if i < hi and coords[i] == coord:
        return i
    return -1


def span_chunk(coords, lo: Optional[int], hi: int, coord) -> int:
    """Position of the split-level chunk containing ``coord``, or -1."""
    i = bisect.bisect_right(coords, coord, lo, hi) - 1
    return i if i >= lo else -1


def window_span(coords, lo, hi, rng):
    """Narrow a span to a leader's partition window: the half-open
    coordinate interval ``rng`` of the leader's chunk (an open upper end
    runs to the span's last coordinate)."""
    if lo is None or rng is None or lo == hi:
        return lo, hi
    wlo, whi = rng
    if whi is None:
        whi = coords[hi - 1] + 1
    return (
        bisect.bisect_left(coords, wlo, lo, hi),
        bisect.bisect_left(coords, whi, lo, hi),
    )


def project_span(coords, lo, hi, off: int, shape: int):
    """Narrow a span to coordinates whose ``c + off`` lands in [0, shape)."""
    if lo is None:
        return None, None
    return (
        bisect.bisect_left(coords, -off, lo, hi),
        bisect.bisect_left(coords, shape - off, lo, hi),
    )


def flat_isect(specs, stats, touches=None) -> Iterator[Tuple[Any, List[int]]]:
    """K-way intersection over flat spans; yields (coord, positions).

    ``specs[j] = (coords, lo, hi, off)``; ``lo is None`` means input ``j``
    does not participate (mirroring the interpreter's participant
    rule: an absent or scalar cursor does not co-iterate).  The
    positions row holds -1 for non-participants.  ``stats`` is
    a list of ``len(specs) + 2`` counters updated *eagerly* (so an
    abandoned generator leaves partial-but-accurate tallies, exactly like
    the interpreter's event stream): per-input coordinates visited, then
    total visited, then total matched — the totals are only written on
    matches and skips, never on completion, so they line up with the
    interpreter's ``isect`` accounting.

    ``touches`` (vector kernels) is a per-input tuple of callables or
    ``None``: ``touches[j](c)`` fires once per coordinate input ``j``
    visits, in exactly the order the interpreter emits its coord read
    events, so buffer/cache state machines see the same stream.
    """
    n = len(specs)
    live = [j for j in range(n) if specs[j][1] is not None]
    if not live:
        return
    if touches is not None and not any(touches):
        touches = None
    if len(live) == 1:
        j = live[0]
        coords, lo, hi, off = specs[j]
        tj = touches[j] if touches else None
        for p in range(lo, hi):
            stats[j] += 1
            row = [-1] * n
            row[j] = p
            c = coords[p]
            if off:
                c = c + off
            if tj is not None:
                tj(c)
            yield c, row
        return
    ptrs = [specs[j][1] for j in live]
    ends = [specs[j][2] for j in live]
    while all(p < e for p, e in zip(ptrs, ends)):
        heads = []
        for k, j in enumerate(live):
            coords, _, _, off = specs[j]
            c = coords[ptrs[k]]
            heads.append(c + off if off else c)
        top = max(heads)
        if all(h == top for h in heads):
            row = [-1] * n
            for k, j in enumerate(live):
                stats[j] += 1
                row[j] = ptrs[k]
                if touches is not None and touches[j] is not None:
                    touches[j](top)
            stats[n] += len(live)
            stats[n + 1] += 1
            yield top, row
            ptrs = [p + 1 for p in ptrs]
        else:
            for k, j in enumerate(live):
                if heads[k] < top:
                    coords, _, _, off = specs[j]
                    target = top - off if off else top
                    nxt = bisect.bisect_left(coords, target, ptrs[k], ends[k])
                    stats[j] += nxt - ptrs[k]
                    stats[n] += nxt - ptrs[k]
                    if touches is not None and touches[j] is not None:
                        tj = touches[j]
                        for q in range(ptrs[k], nxt):
                            tj(coords[q] + off if off else coords[q])
                    ptrs[k] = nxt


def flat_union(specs, stats, touches=None) -> Iterator[Tuple[Any, List[int]]]:
    """K-way merge union over flat spans; yields (coord, positions).

    Every participating input counts one visited coordinate per union
    coordinate (present or not), matching the interpreter's union read
    stream.  ``stats[j]`` tallies input ``j``'s visits eagerly.
    ``touches[j]`` (vector kernels) fires per visited coordinate, in the
    interpreter's event order.
    """
    n = len(specs)
    live = [j for j in range(n) if specs[j][1] is not None]
    if not live:
        return
    if touches is not None and not any(touches):
        touches = None
    ptrs = {j: specs[j][1] for j in live}
    while True:
        c = None
        for j in live:
            coords, _, hi, off = specs[j]
            if ptrs[j] < hi:
                h = coords[ptrs[j]]
                if off:
                    h = h + off
                if c is None or h < c:
                    c = h
        if c is None:
            return
        row = [-1] * n
        for j in live:
            stats[j] += 1
            if touches is not None and touches[j] is not None:
                touches[j](c)
            coords, _, hi, off = specs[j]
            if ptrs[j] < hi:
                h = coords[ptrs[j]]
                if off:
                    h = h + off
                if h == c:
                    row[j] = ptrs[j]
                    ptrs[j] += 1
        yield c, row


# ----------------------------------------------------------------------
# Vector-span primitives (used by the priced kernel flavors)
# ----------------------------------------------------------------------
# The vector kernels price an entire innermost-rank span with batched
# numpy ops instead of one Python iteration per element.  Exactness is
# the contract: every helper here reproduces, bit for bit, what the
# scalar loop over the same span would have produced —
# including float accumulation order (``np.add.accumulate`` is a
# sequential left fold, unlike ``np.sum``'s pairwise reduction) and the
# galloping co-iterator's partial visit counts.

#: Minimum combined span size before a leaf takes the numpy path; below
#: it the generated kernel falls through to its inline scalar loop
#: (numpy per-call overhead beats the win on tiny fibers — measured
#: break-even sits near ~100 combined coordinates).  Tests pin this to
#: 0 to force the vector path onto small inputs.
VLEAF_MIN = 96


def vec_ok(opset) -> bool:
    """Is this opset safe for elementwise numpy evaluation?

    True only when the opset declares it (``OpSet.vector_ok``): ``mul``
    must be numpy-elementwise and ``add`` must be IEEE ``+`` so that
    ``np.add.accumulate`` reproduces the scalar reduction bitwise.
    """
    return getattr(opset, "vector_ok", False)


def visect2(c0, a0: int, b0: int, off0: int,
            c1, a1: int, b1: int, off1: int):
    """Two-way intersection of flat spans, batched.

    Returns ``(q0, q1, v0, v1)``: the matched *absolute* positions in
    each buffer (ascending), and the per-input visited-coordinate counts
    of the galloping merge — exactly the tallies the scalar merge2 loop
    accumulates, including its early termination: the merge stops when
    either input exhausts, so trailing coordinates of the longer input
    past the shorter one's maximum are never visited.
    """
    s0 = c0[a0:b0]
    s1 = c1[a1:b1]
    if not (s0.size and s1.size):
        empty = np.empty(0, dtype=np.intp)
        return empty, empty, 0, 0
    if off0 == off1:
        h0, h1 = s0, s1  # equal shifts cancel in every comparison
        last0 = int(s0[-1])
        last1 = int(s1[-1])
    else:
        h0 = s0 + off0 if off0 else s0
        h1 = s1 + off1 if off1 else s1
        last0 = int(s0[-1]) + off0
        last1 = int(s1[-1]) + off1
    # Membership by binary search (cheaper than np.intersect1d, which
    # sorts the concatenation): for each h0 coordinate, the insertion
    # point in h1 either holds an equal coordinate (a match) or not.
    pos = np.searchsorted(h1, h0)
    hit = pos < h1.size
    np.bitwise_and(hit, h1[np.minimum(pos, h1.size - 1)] == h0, out=hit)
    q0 = np.nonzero(hit)[0]
    q1 = pos[hit]
    v0 = int(s0.size) if last0 <= last1 else \
        int(np.searchsorted(h0, last1, side="right"))
    v1 = int(s1.size) if last1 <= last0 else \
        int(np.searchsorted(h1, last0, side="right"))
    return q0 + a0, q1 + a1, v0, v1


def vtake(coords, positions, off: int) -> np.ndarray:
    """Coordinates at ``positions`` (+``off``), as an ``int64`` column."""
    sel = coords[positions]
    if off:
        sel = sel + off
    return sel


def vslice(coords, lo: int, hi: int, off: int) -> np.ndarray:
    """Coordinates of ``[lo, hi)`` (+``off``), as an ``int64`` column."""
    sel = coords[lo:hi]
    if off:
        sel = sel + off
    return sel


def vpositions(m: int) -> np.ndarray:
    """Loop positions ``0 .. m-1`` of a span, as an ``int64`` column: a
    span's ``pos``-style stamp slot (see :mod:`repro.model.stamps`)."""
    return np.arange(m, dtype=np.int64)


def vreduce(existing, values) -> float:
    """Left-fold reduction of a value vector into an existing payload.

    Bitwise equal to the scalar loop ``acc = v if acc is None else
    acc + v`` over ``values`` in order: ``np.add.accumulate`` is a
    sequential (not pairwise) accumulation, so intermediate roundings
    match IEEE ``+`` applied left to right.
    """
    if existing is None:
        if values.size == 1:
            return float(values[0])
        return float(np.add.accumulate(values)[-1])
    buf = np.empty(values.size + 1, dtype=np.float64)
    buf[0] = existing
    buf[1:] = values
    return float(np.add.accumulate(buf)[-1])


# ----------------------------------------------------------------------
# Fused component state machines (inlined by the "vector" kernel flavor)
# ----------------------------------------------------------------------
# These inline the buffet/cache models of repro.model.components into the
# generated arena loops: instead of routing one TraceSink event per touched
# element through ModelSink._route, the kernel calls these machines
# directly at the (statically known) touch sites.  Each machine replays
# the *exact* decision procedure of its model class — same keys, same
# evict windows, same float-accumulation sequence for cache occupancy —
# and accumulates pure integer tallies that
# ``BuffetModel.price_actions`` / ``CacheModel.price_actions`` absorb in
# one pass per Einsum.  The differential conformance suite
# (``tests/model/test_fused.py``) holds the resulting metrics bit-equal
# to the interpreter's per-event trace.

#: Sentinel evict-window cut for "the whole loop context" (the
#: ``BuffetModel._window_of`` scan falls off the end of ``ctx`` without
#: meeting ``evict_on``).
WHOLE_CTX = 1 << 30


class FusedBuffet:
    """Explicitly-managed buffer state machine over precomputed keys.

    Mirrors :class:`repro.model.components.BuffetModel` exactly:
    ``key_depth`` truncates coordinate paths for subtree/eager coverage,
    ``cut`` is the static evict-window prefix length of the loop context
    (``0`` when the binding has no ``evict-on`` rank, :data:`WHOLE_CTX`
    when the rank never appears in this Einsum's loop order).
    """

    __slots__ = ("key_depth", "cut", "window", "present", "dirty",
                 "ever_drained", "reads", "writes", "fills", "drains",
                 "partial_output_fills", "fill_reads", "_cx")

    def __init__(self, key_depth: Optional[int], cut: int):
        self.key_depth = key_depth
        self.cut = cut
        self.window: Optional[tuple] = None
        self.present: set = set()
        self.dirty: set = set()
        self.ever_drained: set = set()
        self.reads = 0
        self.writes = 0
        self.fills = 0
        self.drains = 0
        self.partial_output_fills = 0
        self.fill_reads = 0  # fills that read DRAM (read-miss + partial)
        # Identity memo of the last loop-context tuple rolled against:
        # the same ``cx`` object implies the same window, so consecutive
        # events inside one loop body skip the slice + compare entirely.
        self._cx: Optional[tuple] = None

    def _roll(self, cx: tuple) -> None:
        win = cx[:self.cut]
        if win != self.window:
            self._drain()
            self.window = win

    def _drain(self) -> None:
        if self.dirty:
            self.drains += len(self.dirty)
            self.ever_drained.update(self.dirty)
        self.present.clear()
        self.dirty.clear()

    def read(self, of: str, path: tuple, cx: tuple) -> None:
        if cx is not self._cx:
            self._roll(cx)
            self._cx = cx
        kd = self.key_depth
        key = path[:kd] if kd is not None else (of, path)
        self.reads += 1
        if key in self.present:
            return
        self.present.add(key)
        self.fills += 1
        self.fill_reads += 1

    def read2(self, of: str, path: tuple, cx: tuple) -> None:
        """Two consecutive reads of one key in one call.

        State- and tally-identical to ``read(); read()`` — a miss fills
        on the first read and hits on the second — fired by the fused
        kernels for the coord+payload event pair every present element
        emits back to back.
        """
        if cx is not self._cx:
            self._roll(cx)
            self._cx = cx
        kd = self.key_depth
        key = path[:kd] if kd is not None else (of, path)
        self.reads += 2
        if key in self.present:
            return
        self.present.add(key)
        self.fills += 1
        self.fill_reads += 1

    def read_span(self, of: str, base: tuple, coords, lo: int, hi: int,
                  off: int, cx: tuple) -> None:
        """Coord reads for every position in ``[lo, hi)`` of a span.

        Equivalent to calling :meth:`read` per coordinate (the event
        stream of a galloped-over intersection skip), with the window
        roll hoisted — ``cx`` is constant across the span — and the
        per-element state inlined.  An empty span is a strict no-op: no
        events means no window roll.
        """
        if lo >= hi:
            return
        if cx is not self._cx:
            self._roll(cx)
            self._cx = cx
        kd = self.key_depth
        present = self.present
        self.reads += hi - lo
        fills = 0
        for q in range(lo, hi):
            c = coords[q]
            if off:
                c = c + off
            path = base + (c,)
            key = path[:kd] if kd is not None else (of, path)
            if key not in present:
                present.add(key)
                fills += 1
        self.fills += fills
        self.fill_reads += fills

    def pair_extra(self, n: int) -> None:
        """Upgrade ``n`` span reads to coord+payload pairs.

        A matched element fires :meth:`read2` where a galloped-over one
        fires :meth:`read`; the two differ only in the read tally (state
        transitions are identical), so a whole visited span batches as
        one :meth:`read_span` plus this bump for the matched subset.
        """
        self.reads += n

    def write(self, of: str, path: tuple, cx: tuple) -> None:
        if cx is not self._cx:
            self._roll(cx)
            self._cx = cx
        kd = self.key_depth
        key = path[:kd] if kd is not None else (of, path)
        self.writes += 1
        if key not in self.present:
            self.present.add(key)
            self.fills += 1
            if key in self.ever_drained:
                # Partial-output element returning for more reduction.
                self.partial_output_fills += 1
                self.fill_reads += 1
        self.dirty.add(key)

    def write_seq(self, of: str, path: tuple, rank: str, coords,
                  cx: tuple) -> None:
        """One :meth:`write` per coordinate, with the full leaf loop
        context reconstructed per element (``cx + ((rank, c),)``) —
        the exact sequence the scalar leaf emits for a reduction span.
        """
        write = self.write
        for c in coords:
            write(of, path, cx + ((rank, c),))

    def finish(self) -> None:
        self._drain()
        self.window = None
        self._cx = None

    def tallies(self) -> dict:
        return {
            "reads": self.reads,
            "writes": self.writes,
            "fills": self.fills,
            "drains": self.drains,
            "partial_output_fills": self.partial_output_fills,
            "fill_reads": self.fill_reads,
        }


class FusedCache:
    """Fully-associative LRU cache state machine over precomputed keys.

    Mirrors :class:`repro.model.components.CacheModel` exactly, including
    the float-accumulated ``occupied`` bits (repeated ``+=``/``-=`` in the
    same sequence, so capacity-edge eviction decisions are bit-identical
    to the per-event model).
    """

    __slots__ = ("key_depth", "capacity_bits", "fill_bits", "lru",
                 "occupied", "hits", "misses", "writebacks",
                 "writes", "fill_reads")

    def __init__(self, key_depth: Optional[int], capacity_bits: float,
                 fill_bits: float):
        self.key_depth = key_depth
        self.capacity_bits = capacity_bits
        self.fill_bits = fill_bits
        self.lru: "OrderedDict" = OrderedDict()
        self.occupied = 0.0
        self.hits = 0
        self.misses = 0
        self.writebacks = 0
        self.writes = 0
        self.fill_reads = 0  # clean misses that read DRAM

    # read/write inline the LRU touch (the hot path of cached tensors):
    # same decisions, in the same order, as CacheModel._touch.  The read
    # tally is derived (every touch hits or misses), keeping the hot
    # path down to the LRU bookkeeping itself.
    def read(self, of: str, path: tuple, cx: tuple) -> None:
        kd = self.key_depth
        key = path[:kd] if kd is not None else (of, path)
        lru = self.lru
        if key in lru:
            self.hits += 1
            lru.move_to_end(key)
            return
        self.misses += 1
        self.fill_reads += 1
        while self.occupied + self.fill_bits > self.capacity_bits and lru:
            _, old_dirty = lru.popitem(last=False)
            self.occupied -= self.fill_bits
            if old_dirty:
                self.writebacks += 1
        lru[key] = False
        self.occupied += self.fill_bits

    def read2(self, of: str, path: tuple, cx: tuple) -> None:
        """Two consecutive reads of one key in one call.

        Tally-identical to ``read(); read()``: a miss inserts at MRU and
        the immediate re-read hits it, so the second ``move_to_end`` is
        a no-op either way.
        """
        kd = self.key_depth
        key = path[:kd] if kd is not None else (of, path)
        lru = self.lru
        if key in lru:
            self.hits += 2
            lru.move_to_end(key)
            return
        self.misses += 1
        self.hits += 1
        self.fill_reads += 1
        while self.occupied + self.fill_bits > self.capacity_bits and lru:
            _, old_dirty = lru.popitem(last=False)
            self.occupied -= self.fill_bits
            if old_dirty:
                self.writebacks += 1
        lru[key] = False
        self.occupied += self.fill_bits

    def read_span(self, of: str, base: tuple, coords, lo: int, hi: int,
                  off: int, cx: tuple) -> None:
        """Coord reads for every position in ``[lo, hi)`` of a span —
        equivalent to per-coordinate :meth:`read` calls, with the LRU
        state held in locals across the loop."""
        kd = self.key_depth
        lru = self.lru
        fill = self.fill_bits
        cap = self.capacity_bits
        hits = misses = 0
        for q in range(lo, hi):
            c = coords[q]
            if off:
                c = c + off
            path = base + (c,)
            key = path[:kd] if kd is not None else (of, path)
            if key in lru:
                hits += 1
                lru.move_to_end(key)
                continue
            misses += 1
            while self.occupied + fill > cap and lru:
                _, old_dirty = lru.popitem(last=False)
                self.occupied -= fill
                if old_dirty:
                    self.writebacks += 1
            lru[key] = False
            self.occupied += fill
        self.hits += hits
        self.misses += misses
        self.fill_reads += misses

    def pair_extra(self, n: int) -> None:
        """Upgrade ``n`` span reads to coord+payload pairs.

        :meth:`read2`'s second read always hits the just-touched MRU key
        and its ``move_to_end`` is a no-op, so relative to per-element
        :meth:`read` calls a matched element adds exactly one hit.
        """
        self.hits += n

    def write(self, of: str, path: tuple, cx: tuple) -> None:
        self.writes += 1
        kd = self.key_depth
        key = path[:kd] if kd is not None else (of, path)
        lru = self.lru
        if key in lru:
            self.hits += 1
            lru.move_to_end(key)
            lru[key] = True
            return
        self.misses += 1
        while self.occupied + self.fill_bits > self.capacity_bits and lru:
            _, old_dirty = lru.popitem(last=False)
            self.occupied -= self.fill_bits
            if old_dirty:
                self.writebacks += 1
        lru[key] = True
        self.occupied += self.fill_bits

    def write_seq(self, of: str, path: tuple, rank: str, coords,
                  cx: tuple) -> None:
        """One :meth:`write` per coordinate (the cache ignores loop
        context, so only the count and ordering matter — both identical
        to the scalar leaf's per-element writes)."""
        write = self.write
        for c in coords:
            write(of, path, cx)

    def finish(self) -> None:
        for dirty in self.lru.values():
            if dirty:
                self.writebacks += 1
        self.lru.clear()
        self.occupied = 0.0

    def tallies(self) -> dict:
        return {
            # Every touch either hits or misses, so reads fall out.
            "reads": self.hits + self.misses - self.writes,
            "writes": self.writes,
            "hits": self.hits,
            "misses": self.misses,
            "writebacks": self.writebacks,
            "fill_reads": self.fill_reads,
        }


def make_touch(read, of: str, base: tuple, cx: tuple):
    """Per-coordinate touch callback for the fused k-way co-iterators.

    ``read`` is a bound ``FusedBuffet.read`` / ``FusedCache.read``.
    """
    def touch(c, _read=read, _of=of, _base=base, _cx=cx):
        _read(_of, _base + (c,), _cx)
    return touch
