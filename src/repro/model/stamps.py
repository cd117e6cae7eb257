"""Distinct spacetime stamps, counted without expanding vector spans.

A compute unit's serial step count is the number of distinct time stamps
its compute events carried (:class:`~repro.model.components.ComputeModel`).
Scalar events contribute one stamp tuple each.  A vector kernel span
contributes a whole run of stamps that agree everywhere but in one slot —
the innermost loop rank's — so it records them as one *span entry*
``((pre, post), inner)``: the fixed part around the varying slot, and the
slot's values — a unit-step ``range`` of loop positions (``pos``-style
stamps) or an ``int64`` column of coordinates (``coord``-style stamps);
a ``range``'s ``start`` and ``stop`` fit ``int64`` too.
The span entry stands for the tuples ``pre + (c,) + post`` for ``c`` in
``inner``; they are never built on the counting path, and a ``range`` is
never expanded at all.
"""

from __future__ import annotations

from itertools import compress, repeat
from operator import attrgetter, itemgetter
from typing import List, Optional, Set, Tuple, Union

import numpy as np

#: One span entry: ``((pre, post), inner)``.
Span = Tuple[Tuple[tuple, tuple], Union[range, np.ndarray]]


class StampSet:
    """A set of stamp tuples held as scalar tuples plus span entries.

    ``len()`` is the exact number of distinct tuples, as
    ``len(self.tuples())`` would give, counted as a union of integer
    intervals of the varying slot under each fixed part:

    1. each distinct fixed part ``(pre, post)`` is interned to a dense id
       (once per span, not per element);
    2. a ``range`` entry is one interval; each element of a column entry
       is a unit interval (a *point*), and so is each scalar tuple whose
       fixed part a span shares, split at the spans' varying slot — a
       scalar whose fixed part no span shares cannot collide with
       anything and is counted directly;
    3. one stable sort orders the intervals' start points, the points
       and the end points by ``(id, value)``, starts before points before
       ends at a tie.  A running sum of +1 per start and -1 per end is
       the number of intervals covering each event, so merged intervals
       are the runs it spends above zero, and a point adds one when no
       interval covers it and it is not the point just before it.  The
       running sum returns to zero at the end of every fixed part's
       events, so nothing carries over from one fixed part to the next.

    Position spans so cost O(spans), not O(elements).  Endpoints are
    only compared, never packed or offset, so any ``int64`` value is
    exact, and the merged intervals' widths are summed as Python ints.

    The count is memoized on the sizes of both stores: both only grow, so
    unchanged sizes mean unchanged contents.
    """

    __slots__ = ("scalars", "spans", "_memo")

    def __init__(self, scalars: Optional[Set[tuple]] = None,
                 spans: Optional[List[Span]] = None):
        self.scalars: Set[tuple] = set() if scalars is None else scalars
        self.spans: List[Span] = [] if spans is None else spans
        self._memo: Optional[Tuple[int, int, int]] = None

    def add(self, stamp: tuple) -> None:
        self.scalars.add(stamp)

    def update(self, other: "StampSet") -> None:
        """Union ``other`` into this set (``other`` is left unchanged)."""
        self.scalars |= other.scalars
        self.spans += other.spans

    def __len__(self) -> int:
        memo = self._memo
        if memo is not None and memo[0] == len(self.scalars) \
                and memo[1] == len(self.spans):
            return memo[2]
        n = self._count()
        self._memo = (len(self.scalars), len(self.spans), n)
        return n

    def tuples(self) -> Set[tuple]:
        """Every stamp as a tuple (spans expanded) — for checks, not for
        counting."""
        out = set(self.scalars)
        for (pre, post), inner in self.spans:
            if not isinstance(inner, range):
                inner = inner.tolist()
            out.update(pre + (c,) + post for c in inner)
        return out

    def _count(self) -> int:
        if not self.spans:
            return len(self.scalars)
        ids = {}
        span_ids = [ids.setdefault(fixed, len(ids)) for fixed, _ in self.spans]
        slots = {len(pre) for pre, _ in ids}
        if len(slots) != 1:
            raise ValueError(
                f"stamp spans vary different slots {sorted(slots)}; one "
                "StampSet holds the stamps of one loop nest"
            )
        (k,) = slots
        lone = 0  # scalars no span can equal
        shared_ids: List[int] = []
        shared_inner: List[int] = []
        for stamp in self.scalars:
            i = None
            if len(stamp) > k and isinstance(stamp[k], (int, np.integer)):
                i = ids.get((stamp[:k], stamp[k + 1:]))
            if i is None:
                lone += 1
            else:
                shared_ids.append(i)
                shared_inner.append(stamp[k])
        inners = list(map(itemgetter(1), self.spans))
        is_range = np.fromiter(map(isinstance, inners, repeat(range)), bool,
                               len(inners))
        ranges = list(compress(inners, is_range.tolist()))
        columns = list(compress(inners, (~is_range).tolist()))
        start, stop, stride = (
            np.fromiter(map(attrgetter(a), ranges), np.int64, len(ranges))
            for a in ("start", "stop", "step"))
        if (stride != 1).any():
            raise ValueError("a stamp span's range must have step 1")
        nonempty = start < stop
        starts = start[nonempty]
        ends = stop[nonempty] - 1
        span_ids = np.array(span_ids, dtype=np.int64)
        range_ids = span_ids[is_range][nonempty]
        lengths = np.fromiter(map(len, columns), np.int64, len(columns))
        # Events in the order the stable sort keeps at a tie: interval
        # starts, points, interval ends.
        id_col = np.concatenate((
            range_ids, np.repeat(span_ids[~is_range], lengths),
            np.asarray(shared_ids, dtype=np.int64), range_ids))
        value = np.concatenate(
            [starts] + columns
            + [np.asarray(shared_inner, dtype=np.int64), ends]
        ).astype(np.int64, copy=False)
        if not value.size:
            return lone
        n = len(starts)
        step = np.zeros(value.size, np.int64)
        step[:n] = 1
        step[value.size - n:] = -1
        order = np.lexsort((value, id_col))
        id_col = id_col[order]
        value = value[order]
        step = step[order]
        depth = np.cumsum(step)  # intervals covering each event, after it
        opens = value[(depth == 1) & (step == 1)]
        closes = value[(depth == 0) & (step == -1)]
        points = (depth == 0) & (step == 0)
        points[1:] &= (id_col[1:] != id_col[:-1]) | (value[1:] != value[:-1])
        # Each merged interval adds ``close - open + 1``; summed as Python
        # ints, so no width or total can overflow.
        return (lone + int(np.count_nonzero(points)) + len(opens)
                + sum(closes.tolist()) - sum(opens.tolist()))
