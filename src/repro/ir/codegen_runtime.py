"""Runtime helpers imported by TeAAL-generated loop-nest code.

The arena generator (:mod:`repro.ir.codegen_flat`) emits plain Python
whose only dependencies are the fibertree API and these helpers: span
lookups, chunk search, affine projection and occupancy-follower windows
over :class:`~repro.fibertree.arena.FlatArena` coordinate buffers; k-way
intersection and union over flat spans; the batched numpy primitives of
the priced flavors; and the buffet/cache machine logs the vector flavor
appends to, with their settle-time pricing.

Every helper keeps the interpreting executor's membership decisions and
visit counts, so kernel outputs and tallies equal the aggregates of its
trace-event stream.  The differential test suite
(``tests/ir/test_codegen_differential.py``) enforces that equivalence.
"""

from __future__ import annotations

import bisect
from array import array
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

    ``touches`` (vector kernels) is a per-input tuple of ``None`` or
    ``(machine, key base, context id, parent position)``: every
    coordinate input ``j`` visits is appended to its machine's log, in
    exactly the order the interpreter emits its coord read events.
    """
    n = len(specs)
    live = [j for j in range(n) if specs[j][1] is not None]
    if not live:
        return
    if touches is not None:
        # Per input: (log append, key base, context id), or None.
        touches = [None if t is None else (t[0].log.append, t[1], t[2])
                   for t in touches]
        if not any(touches):
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
                tj[0](tj[1] + p)
                tj[0](tj[2])
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
                    tj = touches[j]
                    tj[0](tj[1] + ptrs[k])
                    tj[0](tj[2])
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
                            tj[0](tj[1] + q)
                            tj[0](tj[2])
                    ptrs[k] = nxt


def flat_union(specs, stats, touches=None) -> Iterator[Tuple[Any, List[int]]]:
    """K-way merge union over flat spans; yields (coord, positions).

    Every participating input counts one visited coordinate per union
    coordinate (present or not), matching the interpreter's union read
    stream.  ``stats[j]`` tallies input ``j``'s visits eagerly.
    ``touches[j]`` (vector kernels, see :func:`flat_isect`) logs one
    read per visited coordinate, in the interpreter's event order: the
    element's position key when input ``j`` holds the coordinate, else
    the interned miss of its parent fiber.
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
            coords, _, hi, off = specs[j]
            hit = False
            if ptrs[j] < hi:
                h = coords[ptrs[j]]
                if off:
                    h = h + off
                hit = h == c
            if touches is not None and touches[j] is not None:
                machine, base, x, parent = touches[j]
                machine.log.append(base + ptrs[j] if hit else machine.intern(
                    (1, base >> CODE, parent, c)))
                machine.log.append(x)
            if hit:
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
#
# A two-way merge span intersects through ``visect2``, unless its leaf
# batches across siblings: when one input's span is fixed across the
# enclosing loop and the other walks that loop's child fibers, a
# ``SiblingMap`` intersects the fixed span with every sibling at once,
# at the parent's first numpy-branch span, and each span then reads
# its own slices of the result.  Which spans take the numpy branch
# (``VLEAF_MIN``) is decided per span either way.

#: Minimum combined span size before a leaf takes the numpy path; below
#: it the generated kernel falls through to its inline scalar loop
#: (numpy per-call overhead beats the win on tiny fibers — measured
#: break-even sits near ~100 combined coordinates).  Tests pin this to
#: 0 to force the vector path onto small inputs.
VLEAF_MIN = 96

#: Position-map leaves of flat kernels (see ``codegen_flat``): a moving
#: span at most this many times as long as the fixed span it intersects
#: is walked with map lookups; a longer one keeps the galloping merge,
#: which skips most of it.  On a 2-vCPU host the map broke even at 3-4x
#: for fixed spans of 16+ coordinates; against 1-2 coordinates the merge
#: stops early and the map lost at any ratio, which this guard keeps.
PMAP_RATIO = 3


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


class SiblingMap:
    """Sibling-batched two-way intersection through a position map.

    Serves a merge leaf whose first input span is fixed across the
    enclosing loop while its second input walks that loop's child
    fibers: the siblings ``n_a .. n_b - 1`` of the second level form one
    contiguous block, so :meth:`intersect` matches the fixed span against
    the whole block at once, a locate-style lookup.  The fixed span's
    positions are scattered into ``pos``, an ``intp`` map over both
    levels' coordinate domain (``-1`` marks an absent coordinate); every
    block coordinate looks itself up; the written entries are reset.

    One instance per leaf per kernel call.  The map is allocated on the
    first batch, and only when it takes no more memory than the two leaf
    levels it indexes: one 8-byte slot per domain coordinate against an
    ``int64`` coordinate and a ``float64`` value per level element.  On a
    sparser domain :meth:`intersect` returns ``None`` and the leaf calls
    :func:`visect2` per span.
    """

    __slots__ = ("fixed", "walk", "segs", "base", "pos")

    def __init__(self, fixed, walk, segs):
        self.fixed = fixed  # the fixed input's level coordinates
        self.walk = walk  # the walking input's level coordinates
        self.segs = segs  # the walking level's segment pointers
        self.base = 0
        self.pos = None

    def _allocate(self):
        fixed, walk = self.fixed, self.walk
        self.base = min(int(fixed.min(initial=0)), int(walk.min(initial=0)))
        length = max(int(fixed.max(initial=0)),
                     int(walk.max(initial=0))) - self.base + 1
        if length > 2 * (fixed.size + walk.size):
            self.pos = False
        else:
            # One more, always-absent slot: where clipped lookups land.
            self.pos = np.full(length + 1, -1, dtype=np.intp)
        return self.pos

    def intersect(self, a0: int, b0: int, off0: int,
                  n_a: int, n_b: int, off1: int):
        """Intersect the fixed span ``[a0, b0)`` with every sibling span.

        Returns ``None`` when the map does not fit, else ``(q0, q1,
        starts, counts, v0, v1)``: the matched absolute positions in each
        buffer for the whole block, sibling after sibling, and per
        sibling (Python ``int`` lists) the offset of its matches into
        ``q0``/``q1``, their count, and each input's visit count.  For
        sibling ``s`` these equal what :func:`visect2` returns for its
        span, early stop included.
        """
        pos = self.pos
        if pos is None:
            pos = self._allocate()
        if pos is False:
            return None
        segs = self.segs[n_a:n_b + 1]
        lo = int(segs[0])
        rel = segs - lo  # sibling boundaries within the block
        s0 = self.fixed[a0:b0]
        if not (s0.size and rel[-1]):
            zeros = [0] * (n_b - n_a)
            empty = np.empty(0, dtype=np.intp)
            return empty, empty, zeros, zeros, zeros, zeros
        # The block's coordinates as map slots: with equal offsets and a
        # zero base, the block itself (every coordinate has a slot);
        # otherwise shifted, and clipped into the map, where a slot past
        # either end compares like the coordinate it stands for.
        key = self.walk[lo:int(segs[-1])]
        if self.base or off0 != off1:
            key = key - (self.base + off0 - off1)
            np.clip(key, -1, pos.size - 1, out=key)
        slots = s0 - self.base
        # Visits: the merge stops when either input exhausts, so each
        # side visits its coordinates up to the other side's last one.
        # A sibling's coordinates past the fixed span's last form its
        # sorted tail; counting them per sibling is a search of their
        # block positions.
        past = np.flatnonzero(key > int(slots[-1]))
        v1 = np.diff(rel) - np.diff(np.searchsorted(past, rel))
        ends = rel[1:]
        v0 = np.searchsorted(slots, key[ends - 1], side="right")
        v0[ends == rel[:-1]] = 0  # an empty sibling visits nothing
        # Matches: scatter, look up, reset.
        pos[slots] = np.arange(a0, b0)
        got = pos.take(key)
        pos[slots] = -1
        q1 = np.flatnonzero(got >= 0)
        starts = np.searchsorted(q1, rel)
        return (got[q1], q1 + lo, starts[:-1].tolist(),
                np.diff(starts).tolist(), v0.tolist(), v1.tolist())


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
# Component machine logs (kept by the "vector" kernel flavor)
# ----------------------------------------------------------------------
# The buffet/cache models of repro.model.components decide per event;
# the ported kernels only record the events.  A touch site appends two
# ints to its machine's ``log`` (an ``array('q')``): the event's key and
# its loop-context id.  :meth:`FusedBuffet.settle` and
# :meth:`FusedCache.settle` replay a whole log once the kernel returns,
# with exactly the decisions the per-event model takes (same keys, same
# evict windows, same float-accumulation sequence for cache occupancy),
# into the integer tallies that ``BuffetModel.price_actions`` /
# ``CacheModel.price_actions`` absorb.  The differential conformance
# suite (``tests/model/test_fused.py``) holds the resulting metrics
# bit-equal to the interpreter's per-event trace, and
# ``tests/model/test_span_machines.py`` holds settle to the per-event
# models on arbitrary histories.
#
# Keys.  Within one arena a coordinate path is one (level, position)
# pair, so a read logs ``code << CODE | position``, ``code`` naming the
# (tensor, arena level, rank) of the site (:meth:`FusedMachines.levels`
# binds each code to its arena).  Key-depth truncation is resolved at
# settle by walking the arena's segment arrays up.  A key that is no
# arena position — a lookup miss, or any path of a tensor with a
# projected (``off != 0``) level, whose paths carry loop coordinates —
# is interned per machine (:meth:`FusedBuffet.intern`) and logged as
# ``RICH | id``.  An output write logs its point as one mixed-radix int
# over the output shapes (:meth:`FusedMachines.radix`), flagged
# ``WRITE``; its key-depth prefix is a quotient by one multiplier.
#
# Contexts.  Every loop iteration of a ported kernel is one node of the
# loop-context tree, numbered per depth in visit order:
# ``depth << DEPTH | ordinal``.  Each node records, at its creation, how
# many nodes one level deeper exist so far (``FusedMachines.frames``),
# so settle can walk any node up to its depth-``cut`` ancestor — the
# buffet's evict window, compared by identity exactly where the model
# compares the ``ctx[:cut]`` tuples by value (coordinates are unique
# within a loop, so distinct nodes at one depth never hold equal paths).

#: Flag bits of a logged key.  A ``SPAN`` record reads positions
#: ``[lo, hi)`` of one level; the next record holds ``hi`` and how many
#: of those elements are read twice in a row (coord+payload pairs).  A
#: ``RUN`` record is ``n`` events of one key (the next record holds
#: ``n``).  ``PAIR`` is a coord+payload pair: two reads of one key.
SPAN = 1 << 62
PAIR = 1 << 61
RICH = 1 << 60
WRITE = 1 << 59
RUN = 1 << 58
_FLAGS = SPAN | PAIR | RICH | WRITE | RUN
#: A logged key without its flags.
_KEY = RUN - 1
#: Bit offsets: a position key's level code, a context id's depth.
CODE = 32
DEPTH = 40
_LOW = (1 << CODE) - 1
_ORDINAL = (1 << DEPTH) - 1
#: Flag of a logged context id: the event's context is a fresh child
#: of that node (a leaf write: one iteration of the innermost loop,
#: whose own node no other event shares).
LEAF = 1 << 62

#: Sentinel evict-window cut for "the whole loop context" (the
#: ``BuffetModel._window_of`` scan falls off the end of ``ctx`` without
#: meeting ``evict_on``).
WHOLE_CTX = 1 << 30


def log_rows(log, base: int, positions, x: int) -> None:
    """One read record per position of ``positions`` (an int array),
    keyed ``base + position``, under context ``x``."""
    rows = np.empty((len(positions), 2), dtype=np.int64)
    rows[:, 0] = positions
    rows[:, 0] += base
    rows[:, 1] = x
    log.frombytes(rows.tobytes())


def log_paths(machine, of: str, base: tuple, coords, positions, off: int,
              x: int, repeats: int = 0) -> None:
    """One read record per position of a path-keyed tensor (one with a
    projected level): the key is the interned path ``base + (c,)``;
    ``repeats`` of them are read twice in a row."""
    ap = machine.log.append
    for q in positions:
        c = coords[q]
        if off:
            c = c + off
        ap(machine.intern((0, of, base + (c,))))
        ap(x)
    if repeats:
        ap(SPAN)  # an empty span carrying the repeats
        ap(x)
        ap(0)
        ap(repeats)


def _decode(log):
    """A log as events in order: ``(keys, writes, x, repeats)`` — per
    event its key (``RICH`` kept), write flag and context id, spans and
    runs expanded — and the count of reads that repeat the key just
    touched (the second read of each pair)."""
    rec = np.frombuffer(log, dtype=np.int64).reshape(-1, 2)
    k, x = rec[:, 0], rec[:, 1]
    flags = k & _FLAGS
    repeats = int(np.count_nonzero(flags & PAIR))
    multi = np.flatnonzero(flags & (SPAN | RUN))
    if not multi.size:
        return k & (_KEY | RICH), (flags & WRITE) != 0, x, repeats
    span = (flags[multi] & SPAN) != 0
    repeats += int(x[multi[span] + 1].sum())
    rep = np.ones(len(k), dtype=np.int64)
    rep[multi] = np.maximum(
        k[multi + 1] - np.where(span, k[multi] & _LOW, 0), 0)
    rep[multi + 1] = 0
    at = np.repeat(np.arange(len(k)), rep)
    keys = (k & (_KEY | RICH))[at]
    if span.any():
        # A span's i-th element reads key ``base + lo + i``.
        step = np.zeros(len(k), dtype=np.int64)
        step[multi[span]] = 1
        keys += (np.arange(at.size)
                 - np.repeat(np.cumsum(rep) - rep, rep)) * step[at]
    return keys, (flags[at] & WRITE) != 0, x[at], repeats


def _ancestor(segs, level: int, pos, to: int):
    """Positions at level ``to`` of the ancestors of ``pos`` (at
    ``level``), walking the arena's segment arrays up."""
    for lvl in range(level, to, -1):
        pos = np.searchsorted(segs[lvl], pos, side="right") - 1
    return pos


def _canonical(keys, writes, key_depth, levels, rich, radix):
    """Keys as the model compares them: ``(rank, path)`` when
    ``key_depth`` is None, else ``path[:key_depth]``.  ``levels`` maps a
    level code to its ``(segs, level)``; ``rich`` is the machine's
    intern table.  A write's key is its output point in the mixed radix
    ``radix`` (:meth:`~repro.model.evaluate.FusedMachines.radix`), so its
    prefix of ``key_depth`` coordinates is the quotient by the
    multiplier of coordinate ``key_depth - 1``.  Write keys are flagged
    ``WRITE``, a key space of their own: an Einsum never reads its own
    output, so no read names a written point."""
    if key_depth == 0:
        return np.zeros_like(keys)  # every path truncates to ()
    out = keys.copy()
    reads = ~writes
    is_rich = reads & ((keys & RICH) != 0)
    if key_depth is not None:
        plain = reads & ~is_rich
        codes = keys >> CODE
        for code in np.unique(codes[plain]).tolist():
            sel = plain & (codes == code)
            segs, level = levels[code]
            pos = keys[sel] & _LOW
            at = min(level, key_depth - 1)
            out[sel] = (at << CODE) | _ancestor(segs, level, pos, at)
        if key_depth < len(radix):
            out[writes] //= radix[key_depth - 1]
    out[writes] |= WRITE
    if rich:
        table = np.empty(len(rich), dtype=np.int64)
        forms: dict = {}
        for key, i in rich.items():
            form = _rich_form(key, key_depth, levels)
            if isinstance(form, int):
                table[i] = form
            else:
                table[i] = RICH | forms.setdefault(form, len(forms))
        out[is_rich] = table[keys[is_rich] & _KEY]
    return out


def _rich_form(key, key_depth, levels):
    """The canonical form of an interned key: a path tuple (a tensor
    keyed by paths), a miss tuple, or the position key of the real node
    a truncated miss lands on."""
    if key[0] == 0:  # (0, rank, path)
        _, of, path = key
        return (of, path) if key_depth is None else (path[:key_depth],)
    _, code, parent, coord = key  # (1, code, parent position, coord)
    if key_depth is None:
        return ("miss", code, parent, coord)
    segs, level = levels[code]
    if key_depth > level:
        return ("miss", level, parent, coord)
    at = key_depth - 1
    return (at << CODE) | int(_ancestor(segs, level - 1, parent, at))


def _run_starts(x, cut: int, frames):
    """Positions of the events that open a run: whose evict window — the
    depth-``cut`` ancestor of the event's context node, or the node
    itself when shallower — differs from the previous event's.

    A ``LEAF`` context whose fresh node lies within the first ``cut``
    levels is a window of its own (the next event opens a run too); any
    other resolves as the node it hangs from.
    """
    leaf = (x & LEAF) != 0
    if not leaf.any():
        return _window_changes(x, cut, frames)
    x = x & ~LEAF
    fresh = leaf & ((x >> DEPTH) < cut)
    rest = np.flatnonzero(~fresh)
    opens = fresh.copy()
    opens[rest[_window_changes(x[rest], cut, frames)]] = True
    opens[1:] |= fresh[:-1]  # the event after a fresh window
    return np.flatnonzero(opens)


def _window_changes(x, cut: int, frames):
    """:func:`_run_starts` over plain context ids.  Only where the
    context changes can the window change, and equal neighbours stay
    equal as they walk up, so each step up a level works on the
    contexts left distinct from their predecessor."""
    pos = np.flatnonzero(np.concatenate(([x.size > 0], x[1:] != x[:-1])))
    v = x[pos]
    depth = v >> DEPTH
    ordinal = v & _ORDINAL
    for d in range(int(depth.max(initial=0)), cut, -1):
        sel = depth == d
        if sel.any():
            ordinal[sel] = 0 if d == 1 else \
                np.searchsorted(frames[d], ordinal[sel], side="left")
            depth[sel] = d - 1
            keep = np.ones(pos.size, dtype=bool)
            np.logical_or(depth[1:] != depth[:-1],
                          ordinal[1:] != ordinal[:-1], out=keep[1:])
            pos, depth, ordinal = pos[keep], depth[keep], ordinal[keep]
    return pos


class FusedBuffet:
    """Explicitly-managed buffer: the event log of one
    :class:`repro.model.components.BuffetModel`, priced at settle.

    ``key_depth`` truncates coordinate paths for subtree/eager coverage,
    ``cut`` is the static evict-window prefix length of the loop context
    (``0`` when the binding has no ``evict-on`` rank, :data:`WHOLE_CTX`
    when the rank never appears in this Einsum's loop order).
    """

    __slots__ = ("key_depth", "cut", "log", "rich", "radix")

    def __init__(self, key_depth: Optional[int], cut: int):
        self.key_depth = key_depth
        self.cut = cut
        self.log = array("q")
        self.rich: dict = {}
        self.radix: tuple = ()  # the output point multipliers, if written

    def intern(self, key) -> int:
        """The ``RICH`` key of a key that is no arena position."""
        i = self.rich.get(key)
        if i is None:
            i = self.rich[key] = len(self.rich)
        return RICH | i

    def settle(self, levels, frames) -> dict:
        """Price the log as ``BuffetModel`` would, event by event.

        Consecutive events under one window form a run (the model drains
        at every window change and at the end).  Each (run, key) group is
        one fill; a group holding a write is one drain; a group whose
        first event is a write is a partial-output fill when its key was
        written in an earlier run.  Fills that read DRAM are the
        read-first groups plus the partial ones.
        """
        keys, writes, x, repeats = _decode(self.log)
        n_writes = int(np.count_nonzero(writes))
        out = {"reads": keys.size - n_writes + repeats, "writes": n_writes,
               "fills": 0, "drains": 0, "partial_output_fills": 0,
               "fill_reads": 0}
        if not keys.size:
            return out
        keys = _canonical(keys, writes, self.key_depth, levels, self.rich,
                          self.radix)
        first = np.zeros(keys.size, dtype=bool)
        first[_run_starts(x, self.cut, frames)] = True
        run = np.cumsum(first)
        # By key, then run; a stable sort keeps each group's events in
        # sequence order.
        order = np.lexsort((run, keys))
        keys, run, writes = keys[order], run[order], writes[order]
        starts = np.ones(keys.size, dtype=bool)
        starts[1:] = (keys[1:] != keys[:-1]) | (run[1:] != run[:-1])
        group = np.flatnonzero(starts)
        wrote = np.logical_or.reduceat(writes, group)
        write_first = writes[group]
        # Writes in the key's earlier groups (groups of a key are in run
        # order): a running count, less its value at the key's first group.
        new_key = np.ones(group.size, dtype=bool)
        new_key[1:] = keys[group[1:]] != keys[group[:-1]]
        before = np.cumsum(wrote) - wrote
        before -= np.maximum.accumulate(np.where(new_key, before, 0))
        partial = int(np.count_nonzero(write_first & (before > 0)))
        out["fills"] = int(group.size)
        out["drains"] = int(np.count_nonzero(wrote))
        out["partial_output_fills"] = partial
        out["fill_reads"] = int(group.size - np.count_nonzero(write_first)) \
            + partial
        return out


class FusedCache:
    """Fully-associative LRU cache: the event log of one
    :class:`repro.model.components.CacheModel`, replayed at settle with
    the model's exact decisions, including the float-accumulated
    ``occupied`` bits (repeated ``+=``/``-=`` in the same sequence, so
    capacity-edge eviction decisions are bit-identical).
    """

    __slots__ = ("key_depth", "capacity_bits", "fill_bits", "log", "rich",
                 "radix")

    def __init__(self, key_depth: Optional[int], capacity_bits: float,
                 fill_bits: float):
        self.key_depth = key_depth
        self.capacity_bits = capacity_bits
        self.fill_bits = fill_bits
        self.log = array("q")
        self.rich: dict = {}
        self.radix: tuple = ()

    intern = FusedBuffet.intern

    def settle(self, levels, frames) -> dict:
        """Replay the log through the LRU in one loop.  A touch of the
        key touched just before hits at MRU and changes nothing unless
        it dirties a clean line, so such repeats (the second read of a
        pair included) are counted in bulk."""
        keys, writes, _, repeats = _decode(self.log)
        keys = _canonical(keys, writes, self.key_depth, levels, self.rich,
                          self.radix)
        repeat = np.zeros(keys.size, dtype=bool)
        repeat[1:] = (keys[1:] == keys[:-1]) & (~writes[1:] | writes[:-1])
        hits = repeats + int(np.count_nonzero(repeat))
        misses = writebacks = fill_reads = 0
        lru: "OrderedDict" = OrderedDict()
        touch, evict = lru.move_to_end, lru.popitem
        occupied, fill, cap = 0.0, self.fill_bits, self.capacity_bits
        for key, dirty in zip(keys[~repeat].tolist(),
                              writes[~repeat].tolist()):
            if key in lru:
                hits += 1
                touch(key)
                if dirty:
                    lru[key] = True
                continue
            misses += 1
            if not dirty:
                fill_reads += 1
            while occupied + fill > cap and lru:
                if evict(last=False)[1]:
                    writebacks += 1
                occupied -= fill
            lru[key] = dirty
            occupied += fill
        writebacks += sum(lru.values())
        n_writes = int(np.count_nonzero(writes))
        return {
            # Every touch either hits or misses, so reads fall out.
            "reads": hits + misses - n_writes,
            "writes": n_writes,
            "hits": hits,
            "misses": misses,
            "writebacks": writebacks,
            "fill_reads": fill_reads,
        }
