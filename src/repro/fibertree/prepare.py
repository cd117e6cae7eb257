"""Columnar tensor preparation: prep steps applied straight to arena levels.

:func:`prepare_arena` produces the :class:`~repro.fibertree.arena.FlatArena`
of a prepared tensor without building the prepared fibertree.  It flattens
the source tree once into per-level buffers and applies TeAAL's
content-preserving transformations (paper section 3.2) as column
operations on them:

* a **swizzle** expands the levels to leaf-aligned coordinate columns
  (sorted COO), re-sorts them under the new rank order — one numpy
  ``lexsort`` for integer coordinates, a Python sort otherwise — and
  re-derives every level from the run boundaries of the sorted columns;
* a **shape split** groups each fiber's elements by ``c // step * step``;
* an **occupancy split** cuts each fiber every ``size`` elements;
* a **flatten** zips the coordinates of adjacent levels into tuples and
  composes their segment pointers.

The result is field-for-field the arena of the boxed route,
``arena_from_tensor(prepare_tensor(tensor, rank_order, prep))`` —
coordinate and value buffer types, segments, and the per-fiber
``coord_range`` windows splits record (and that later steps drop, exactly
as the boxed transforms do).  The differential suite
(``tests/fibertree/test_prepare_arena.py``) holds the two routes equal.
"""

from __future__ import annotations

from itertools import chain
from operator import ne
from typing import Any, List, Optional, Sequence

import numpy as np

from .arena import COORD_DTYPE, FlatArena, _as_list, _coord_buffer, \
    _value_buffer
from .rankid import flatten_name, split_names
from .tensor import Tensor


def prepare_arena(tensor: Tensor, rank_order: Sequence[str],
                  prep_steps) -> FlatArena:
    """The arena of ``tensor`` after the rank-order swizzle to
    ``rank_order`` and the IR's ``prep_steps`` (objects with ``kind``,
    ``rank``, ``ranks`` and ``sizes``, as :class:`repro.ir.nodes.PrepStep`).
    """
    levels = _Levels(tensor)
    if list(rank_order) != levels.rank_ids:
        levels.swizzle(rank_order)
    for step in prep_steps:
        if step.kind == "swizzle":
            levels.swizzle(step.ranks)
        elif step.kind == "flatten":
            levels.flatten(step.ranks)
        elif step.kind == "partition_shape":
            levels.split(step.rank, step.sizes, levels.split_shape)
        elif step.kind == "partition_occupancy":
            levels.split(step.rank, step.sizes, levels.split_occupancy)
        else:
            raise ValueError(f"unknown prep step {step.kind!r}")
    return levels.arena()


def _gather(buf, idx: np.ndarray):
    """``buf`` gathered at positions ``idx`` (ndarray or list, kept)."""
    if isinstance(buf, np.ndarray):
        return buf[idx]
    return list(map(buf.__getitem__, idx.tolist()))


def _changes(col) -> np.ndarray:
    """Bool mask: position ``i`` differs from position ``i - 1`` (the
    first position always counts as a change)."""
    out = np.ones(len(col), dtype=bool)
    if len(col) > 1:
        if isinstance(col, np.ndarray):
            np.not_equal(col[1:], col[:-1], out=out[1:])
        else:
            out[1:] = list(map(ne, col[1:], col[:-1]))
    return out


def _seg_array(values) -> np.ndarray:
    return np.asarray(values, dtype=COORD_DTYPE)


class _Levels:
    """A tensor's arena buffers under transformation, plus its rank ids
    and shape (the bookkeeping :class:`Tensor` does for the boxed
    transforms)."""

    def __init__(self, tensor: Tensor):
        arena = FlatArena.from_tensor(tensor)
        self.rank_ids: List[str] = list(tensor.rank_ids)
        self.shape: List[Optional[int]] = list(tensor.shape)
        self.coords: List[Any] = list(arena.coords)
        self.segs: List[np.ndarray] = list(arena.segs)
        self.ranges: List[list] = list(arena.ranges)
        self.vals = arena.vals

    def arena(self) -> FlatArena:
        coords = [c if isinstance(c, np.ndarray) else _coord_buffer(c)
                  for c in self.coords]
        vals = self.vals if isinstance(self.vals, np.ndarray) \
            else _value_buffer(self.vals)
        return FlatArena(len(coords), coords, self.segs, vals, self.ranges)

    # ------------------------------------------------------------------
    def _owners(self, level: int) -> np.ndarray:
        """Per element of ``level``, the position of its parent element
        in ``level - 1``."""
        parents = len(self.coords[level - 1])
        return np.repeat(np.arange(parents), np.diff(self.segs[level]))

    def _columns(self, top: int, bottom: int) -> list:
        """Coordinate columns of levels ``top..bottom`` aligned with the
        elements of ``bottom`` (a sorted COO of that slice of the tree)."""
        cols = [self.coords[bottom]]
        anc = None
        for level in range(bottom, top, -1):
            owners = self._owners(level)
            anc = owners if anc is None else owners[anc]
            cols.append(_gather(self.coords[level - 1], anc))
        cols.reverse()
        return cols

    # ------------------------------------------------------------------
    def swizzle(self, new_rank_ids: Sequence[str]) -> None:
        new = list(new_rank_ids)
        if sorted(new) != sorted(self.rank_ids):
            raise ValueError(
                f"swizzle target {new} is not a permutation of "
                f"{self.rank_ids}"
            )
        if new == self.rank_ids:
            return  # the boxed swizzle copies: content and windows kept
        perm = [self.rank_ids.index(r) for r in new]
        cols = self._columns(0, len(self.coords) - 1)
        keys = [cols[i] for i in perm]
        if all(isinstance(k, np.ndarray) for k in keys):
            order = np.lexsort(keys[::-1])
        else:
            rows = list(zip(*map(_as_list, keys)))
            order = np.array(sorted(range(len(rows)), key=rows.__getitem__),
                             dtype=np.intp)
        self._from_sorted([_gather(k, order) for k in keys],
                          _gather(self.vals, order))
        self.rank_ids = new
        self.shape = [self.shape[i] for i in perm]

    def _from_sorted(self, cols: list, vals) -> None:
        """Rebuild every level from sorted, unique leaf-aligned columns:
        an element of level ``d`` starts wherever any of columns
        ``0..d`` changes.  Swizzled trees carry no windows."""
        self.coords, self.segs, self.ranges = [], [], []
        starts = changed = None
        for col in cols:
            change = _changes(col)
            changed = change if changed is None else changed | change
            below = np.flatnonzero(changed)
            if starts is None:
                seg = _seg_array([0, len(below)])
            else:
                seg = _seg_array(np.searchsorted(below, np.append(
                    starts, len(col))))
            self.ranges.append([None] * (len(seg) - 1))
            self.coords.append(_gather(col, below))
            self.segs.append(seg)
            starts = below
        self.vals = vals

    # ------------------------------------------------------------------
    def split(self, rank: str, sizes: Sequence[int], split_level) -> None:
        """Split ``rank`` once per entry of ``sizes`` (top-down), each
        split adding the level above the one it cuts."""
        names = split_names(rank, len(sizes))
        depth = self._index(rank)
        shape = self.shape[depth]
        for level, size in enumerate(sizes):
            split_level(depth + level, size, shape)
        self.rank_ids[depth:depth + 1] = names
        self.shape[depth:depth + 1] = [shape] * len(names)

    def _insert_upper(self, level: int, starts: np.ndarray, upper_coords,
                      upper_range, chunk_ranges: list) -> None:
        """Cut ``level``'s fibers into chunks beginning at element
        positions ``starts``; a new upper level above it holds one
        element per chunk."""
        seg = self.segs[level]
        n = len(self.coords[level])
        self.segs[level:level + 1] = [
            _seg_array(np.searchsorted(starts, seg)),
            _seg_array(np.append(starts, n)),
        ]
        self.coords.insert(level, upper_coords)
        self.ranges[level:level + 1] = [[upper_range] * (len(seg) - 1),
                                        chunk_ranges]

    def _fiber_starts(self, level: int) -> np.ndarray:
        """Mask of ``level``'s positions that open a (non-empty) fiber."""
        seg = self.segs[level]
        mask = np.zeros(len(self.coords[level]), dtype=bool)
        mask[seg[:-1][np.diff(seg) > 0]] = True
        return mask

    def split_shape(self, level: int, step: int, shape) -> None:
        """Coordinate-based split (``Fiber.split_uniform_shape``)."""
        if step <= 0:
            raise ValueError(f"split step must be positive, got {step}")
        cs = self.coords[level]
        if isinstance(cs, np.ndarray):
            base = cs // step * step
        else:
            base = [c // step * step for c in cs]
        starts = np.flatnonzero(self._fiber_starts(level) | _changes(base))
        upper = _gather(base, starts)
        self._insert_upper(
            level, starts, upper, None if shape is None else (0, shape),
            [(b, b + step) for b in _as_list(upper)],
        )

    def split_occupancy(self, level: int, size: int, shape) -> None:
        """Occupancy-based split (``Fiber.split_equal``): chunk ranges run
        from a chunk's first coordinate to the next chunk's, or ``None``
        for a fiber's last chunk."""
        if size <= 0:
            raise ValueError(f"split size must be positive, got {size}")
        cs = self.coords[level]
        seg = self.segs[level]
        lens = np.diff(seg)
        rel = np.arange(len(cs)) - np.repeat(seg[:-1], lens)
        starts = np.flatnonzero(rel % size == 0)
        upper = _gather(cs, starts)
        nxt = starts + size
        inside = nxt < np.repeat(seg[1:], lens)[starts]
        his: List[Any] = [None] * len(starts)
        for k, hi in zip(np.flatnonzero(inside).tolist(),
                         _as_list(_gather(cs, nxt[inside]))):
            his[k] = hi
        self._insert_upper(level, starts, upper, None,
                           list(zip(_as_list(upper), his)))

    # ------------------------------------------------------------------
    def flatten(self, ranks: Sequence[str]) -> None:
        """Fuse adjacent levels into one tuple-coordinate level
        (``Fiber.flatten``): nested tuple components concatenate."""
        ranks = list(ranks)
        new_name = flatten_name(ranks)
        top = self._index(ranks[0])
        bottom = top + len(ranks) - 1
        if self.rank_ids[top:bottom + 1] != ranks:
            raise ValueError(
                f"ranks {ranks} are not adjacent (in order) in "
                f"{self.rank_ids}"
            )
        cols = self._columns(top, bottom)
        # Only list-stored levels can hold tuples (earlier flattens).
        nested = any(isinstance(c, tuple) for col in cols
                     if not isinstance(col, np.ndarray) for c in col)
        cols = [_as_list(c) for c in cols]
        if nested:
            flat = [
                tuple(chain.from_iterable(
                    c if isinstance(c, tuple) else (c,) for c in row))
                for row in zip(*cols)
            ]
        else:
            flat = list(zip(*cols))
        seg = self.segs[top]
        for level in range(top + 1, bottom + 1):
            seg = self.segs[level][seg]
        self.coords[top:bottom + 1] = [flat]
        self.segs[top:bottom + 1] = [seg]
        self.ranges[top:bottom + 1] = [[None] * (len(seg) - 1)]
        self.rank_ids[top:bottom + 1] = [new_name]
        self.shape[top:bottom + 1] = [None]

    def _index(self, rank: str) -> int:
        try:
            return self.rank_ids.index(rank)
        except ValueError:
            raise KeyError(f"tensor has no rank {rank!r}") from None
