"""Distinct spacetime stamps, counted without expanding vector spans.

A compute unit's serial step count is the number of distinct time stamps
its compute events carried (:class:`~repro.model.components.ComputeModel`).
Scalar events contribute one stamp tuple each.  A vector kernel span
contributes a whole run of stamps that agree everywhere but in one slot —
the innermost loop rank's — so it records them as one *span entry*
``((pre, post), column)``: the fixed part around the varying slot, and an
``int64`` column of the slot's values (loop positions or coordinates).
The span entry stands for the tuples ``pre + (c,) + post`` for ``c`` in
``column``; they are never built on the counting path.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

import numpy as np

#: One span entry: ``((pre, post), column)``.
Span = Tuple[Tuple[tuple, tuple], np.ndarray]


class StampSet:
    """A set of stamp tuples held as scalar tuples plus span entries.

    ``len()`` is the exact number of distinct tuples, as
    ``len(self.tuples())`` would give, computed with one sort:

    1. each distinct fixed part ``(pre, post)`` is interned to a dense id
       (once per span, not per element);
    2. each scalar tuple is split at the spans' varying slot, so a scalar
       ``pre + (c,) + post`` lands on the same ``(id, c)`` pair as a span
       element — scalars whose fixed part no span shares cannot collide
       with anything and are counted directly;
    3. the distinct ``(id, c)`` pairs are counted with one ``np.lexsort``
       over two ``int64`` columns.

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
        for (pre, post), column in self.spans:
            out.update(pre + (c,) + post for c in column.tolist())
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
        columns = [column for _, column in self.spans]
        lengths = np.fromiter(map(len, columns), np.int64, len(columns))
        id_col = np.concatenate((
            np.repeat(np.asarray(span_ids, dtype=np.int64), lengths),
            np.asarray(shared_ids, dtype=np.int64)))
        inner = np.concatenate(
            columns + [np.asarray(shared_inner, dtype=np.int64)]
        ).astype(np.int64, copy=False)
        if not inner.size:
            return lone
        order = np.lexsort((inner, id_col))
        id_col = id_col[order]
        inner = inner[order]
        changed = (id_col[1:] != id_col[:-1]) | (inner[1:] != inner[:-1])
        return lone + 1 + int(np.count_nonzero(changed))
