"""Flat, arena-style fibertree storage (structure-of-arrays).

A :class:`FlatArena` stores one fibertree as per-level flat buffers in the
style of a generalized CSF/CSR encoding (the layout the Sparse Abstract
Machine streams fastest):

* ``coords[d]`` — every coordinate of level ``d``, fiber-major.  Stored as
  an ``int64`` numpy array when the level's coordinates are plain
  integers, or a Python list when they are tuples (flattened ranks) or
  otherwise non-numeric.
* ``segs[d]`` — segment pointers (``int64`` numpy arrays): fiber ``f`` of
  level ``d`` owns the span ``coords[d][segs[d][f] : segs[d][f + 1]]``.
  Level 0 holds exactly one fiber (the root); level ``d + 1`` holds one
  fiber per element of level ``d`` — the child fiber of the element at
  position ``p`` is fiber ``p``.
* ``vals`` — the leaf scalars, aligned with ``coords[depth - 1]``.  A
  ``float64`` numpy array when every payload is a float, a Python list
  otherwise (ints are deliberately *not* coerced: int64 arithmetic wraps
  where Python ints do not).
* ``ranges[d]`` — per fiber of level ``d``, the optional half-open
  ``coord_range`` carried over from :class:`~repro.fibertree.fiber.Fiber`
  (split chunks record their partition windows here so occupancy followers
  can adopt a leader's boundaries).

The numpy buffers are what the priced kernel flavors (``counted`` and
``vector``, :mod:`repro.ir.codegen_flat`) consume on their batched
branches: whole leaf spans price through ``searchsorted``-style ops.
Every element-at-a-time loop (the whole ``flat`` kernel, and the priced
kernels' scalar fallback) instead binds the memoized
:meth:`scalar_buffers` views — plain Python lists, which CPython indexes
faster than any array type — so arena storage being numpy never slows
those loops.
:class:`FlatFiberView` offers a cheap, read-only fiber-shaped view over an
arena span for inspection and interop.

The kernels receive their operands already prepared:
:func:`repro.fibertree.prepare.prepare_arena` flattens a source tensor
once and applies the rank-order swizzle and every prep step (swizzle,
splits, flatten) as column operations on these buffers, so no prepared
fibertree is ever built on the arena path.
"""

from __future__ import annotations

import bisect
from array import array
from itertools import repeat
from typing import Any, Iterator, List, Optional, Tuple

import numpy as np

from .fiber import Fiber
from .tensor import Tensor

#: dtype of integer coordinate and segment buffers.
COORD_DTYPE = np.int64
#: dtype of numeric leaf-value buffers.
VALUE_DTYPE = np.float64


def _coord_buffer(coords: List[Any]):
    """Pack a level's coordinates: ``int64`` ndarray for plain ints
    (bools excluded — they are ints to ``isinstance`` but not to the
    fibertree), a Python list otherwise (tuples, floats, big ints)."""
    if not coords or set(map(type, coords)) == {int}:
        try:
            return np.array(coords, dtype=COORD_DTYPE)
        except OverflowError:
            return list(coords)
    return list(coords)


def _value_buffer(vals: List[Any]):
    """Pack leaf values: ``float64`` ndarray when every payload is a
    float (``np.float64`` included — it subclasses ``float``), a Python
    list otherwise.  Ints keep the list form on purpose: int64 numpy
    arithmetic wraps silently where Python ints are unbounded."""
    if all(map(isinstance, vals, repeat(float))):
        return np.array(vals, dtype=VALUE_DTYPE) if vals else \
            np.empty(0, dtype=VALUE_DTYPE)
    return list(vals)


def _seg_buffer(segs: array) -> np.ndarray:
    """Zero-copy int64 view of an ``array('q')`` segment buffer."""
    if len(segs) == 0:
        return np.empty(0, dtype=COORD_DTYPE)
    return np.frombuffer(segs, dtype=COORD_DTYPE)


def _as_list(buf) -> list:
    """A Python-list copy of a level buffer (ndarray or list)."""
    if isinstance(buf, np.ndarray):
        return buf.tolist()
    return list(buf)


class FlatArena:
    """Structure-of-arrays encoding of one fibertree (see module docs)."""

    __slots__ = ("depth", "coords", "segs", "vals", "ranges", "_scalar")

    def __init__(self, depth: int, coords, segs, vals, ranges):
        self.depth = depth
        self.coords = coords
        self.segs = segs
        self.vals = vals
        self.ranges = ranges
        self._scalar = None  # memoized list views for the scalar kernels

    # ------------------------------------------------------------------
    # Pickling (__slots__ classes need explicit state; the memoized list
    # views are derived data and deliberately dropped — arenas pickle as
    # compact numpy arrays, which is what makes process-pool evaluation
    # workers affordable).
    # ------------------------------------------------------------------
    def __getstate__(self):
        return (self.depth, self.coords, self.segs, self.vals, self.ranges)

    def __setstate__(self, state):
        self.depth, self.coords, self.segs, self.vals, self.ranges = state
        self._scalar = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_fiber(cls, root: Fiber, depth: int) -> "FlatArena":
        """Flatten a fibertree with ``depth`` levels below ``root``."""
        if depth < 1:
            raise ValueError("an arena needs at least one level")
        coords: List[Any] = []
        segs: List[np.ndarray] = []
        vals: List[Any] = []
        ranges: List[List[Optional[tuple]]] = []
        frontier: List[Fiber] = [root]
        for d in range(depth):
            level_coords: List[Any] = []
            level_segs = array("q", [0])
            level_ranges: List[Optional[tuple]] = []
            next_frontier: List[Fiber] = []
            last = d == depth - 1
            for fiber in frontier:
                if not isinstance(fiber, Fiber):
                    raise TypeError(
                        f"expected a fiber at level {d}, got "
                        f"{type(fiber).__name__}: the tree is shallower than "
                        f"depth {depth}"
                    )
                level_ranges.append(fiber.coord_range)
                level_coords.extend(fiber.coords)
                level_segs.append(len(level_coords))
                if last:
                    for payload in fiber.payloads:
                        if isinstance(payload, Fiber):
                            raise TypeError(
                                f"fiber payload at leaf level {d}: the tree "
                                f"is deeper than depth {depth}"
                            )
                        vals.append(payload)
                else:
                    next_frontier.extend(fiber.payloads)
            coords.append(_coord_buffer(level_coords))
            segs.append(_seg_buffer(level_segs))
            ranges.append(level_ranges)
            frontier = next_frontier
        return cls(depth, coords, segs, _value_buffer(vals), ranges)

    @classmethod
    def from_tensor(cls, tensor: Tensor) -> "FlatArena":
        return cls.from_fiber(tensor.root, tensor.num_ranks)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        return len(self.vals)

    def num_fibers(self, level: int) -> int:
        return len(self.segs[level]) - 1

    def span(self, level: int, fiber: int) -> Tuple[int, int]:
        """The [lo, hi) positions fiber ``fiber`` owns within level ``level``."""
        seg = self.segs[level]
        return int(seg[fiber]), int(seg[fiber + 1])

    def __repr__(self) -> str:
        return f"FlatArena(depth={self.depth}, nnz={self.nnz})"

    # ------------------------------------------------------------------
    # Buffer views
    # ------------------------------------------------------------------
    def scalar_buffers(self):
        """Memoized ``(coords_lists, segs_lists, vals_list)`` views.

        The element-at-a-time kernel flavors bind these instead of the
        raw numpy buffers: CPython list indexing returns interned small
        ints / existing float objects with no boxing, which is both
        faster than ndarray item access and — more importantly —
        value-identical to the pre-numpy behavior (coordinates stay
        Python ints in every stamp tuple, key path, and output fiber).
        """
        if self._scalar is None:
            self._scalar = (
                [_as_list(c) for c in self.coords],
                [_as_list(s) for s in self.segs],
                _as_list(self.vals),
            )
        return self._scalar

    def np_coords(self, level: int) -> Optional[np.ndarray]:
        """Level ``level``'s coordinates as an int64 ndarray, or ``None``
        when the level fell back to list storage (non-integer coords)."""
        buf = self.coords[level]
        return buf if isinstance(buf, np.ndarray) else None

    def np_vals(self) -> Optional[np.ndarray]:
        """Leaf values as a float64 ndarray, or ``None`` on fallback."""
        return self.vals if isinstance(self.vals, np.ndarray) else None

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants; raises ``ValueError`` on violation.

        Enforced: segment monotonicity and coverage, strictly increasing
        coordinates within each fiber span (duplicates are rejected, just
        as :class:`Fiber` rejects them), and buffer length consistency.
        Numpy-backed levels check monotonicity with one vectorized pass.
        """
        expected_fibers = 1
        for d in range(self.depth):
            seg = self.segs[d]
            if len(seg) != expected_fibers + 1:
                raise ValueError(
                    f"level {d}: {len(seg) - 1} fibers, expected "
                    f"{expected_fibers}"
                )
            if seg[0] != 0 or seg[-1] != len(self.coords[d]):
                raise ValueError(f"level {d}: segments do not cover coords")
            if len(self.ranges[d]) != expected_fibers:
                raise ValueError(f"level {d}: ranges misaligned with fibers")
            cs = self.coords[d]
            if isinstance(cs, np.ndarray) and isinstance(seg, np.ndarray):
                if len(seg) > 1 and np.any(np.diff(seg) < 0):
                    raise ValueError(f"level {d}: fiber with negative span")
                if len(cs) > 1:
                    # Strictly increasing within fibers: every adjacent
                    # pair must increase except across a fiber boundary.
                    ok = cs[1:] > cs[:-1]
                    boundaries = seg[1:-1] - 1  # last position per fiber
                    boundaries = boundaries[
                        (boundaries >= 0) & (boundaries < len(ok))
                    ]
                    ok[boundaries] = True
                    if not bool(np.all(ok)):
                        p = int(np.nonzero(~ok)[0][0]) + 1
                        raise ValueError(
                            f"level {d}: coordinates not strictly "
                            f"increasing at position {p} "
                            f"({cs[p - 1]!r} then {cs[p]!r})"
                        )
            else:
                for f in range(len(seg) - 1):
                    lo, hi = int(seg[f]), int(seg[f + 1])
                    if lo > hi:
                        raise ValueError(
                            f"level {d}: fiber {f} has negative span"
                        )
                    for p in range(lo + 1, hi):
                        if not cs[p - 1] < cs[p]:
                            raise ValueError(
                                f"level {d}: fiber {f} coordinates not "
                                f"strictly increasing at position {p} "
                                f"({cs[p - 1]!r} then {cs[p]!r})"
                            )
            expected_fibers = len(cs)
        if len(self.vals) != len(self.coords[self.depth - 1]):
            raise ValueError("leaf values misaligned with leaf coordinates")

    # ------------------------------------------------------------------
    # Conversion back to boxed fibers
    # ------------------------------------------------------------------
    def to_fiber(self) -> Fiber:
        """Rebuild the boxed :class:`Fiber` tree (inverse of ``from_fiber``)."""
        self.validate()
        coords_l, segs_l, vals_l = self.scalar_buffers()

        def build(level: int, fiber: int) -> Fiber:
            seg = segs_l[level]
            lo, hi = seg[fiber], seg[fiber + 1]
            cs = coords_l[level][lo:hi]
            if level == self.depth - 1:
                ps: List[Any] = vals_l[lo:hi]
            else:
                ps = [build(level + 1, p) for p in range(lo, hi)]
            return Fiber(cs, ps, coord_range=self.ranges[level][fiber])

        return build(0, 0)

    def to_tensor(self, name: str, rank_ids, shape=None) -> Tensor:
        return Tensor(name, list(rank_ids), self.to_fiber(), shape)

    def root_view(self) -> "FlatFiberView":
        return FlatFiberView(self, 0, 0)


class FlatFiberView:
    """A cheap, read-only fiber-shaped view over one arena fiber.

    Iteration yields ``(coord, payload)`` where intermediate payloads are
    themselves views and leaf payloads are the stored scalars — the same
    protocol as :class:`Fiber`, without materializing any of it.
    """

    __slots__ = ("arena", "level", "fiber")

    def __init__(self, arena: FlatArena, level: int, fiber: int):
        self.arena = arena
        self.level = level
        self.fiber = fiber

    @property
    def _span(self) -> Tuple[int, int]:
        return self.arena.span(self.level, self.fiber)

    @property
    def coords(self) -> list:
        lo, hi = self._span
        return _as_list(self.arena.coords[self.level][lo:hi])

    @property
    def coord_range(self) -> Optional[tuple]:
        return self.arena.ranges[self.level][self.fiber]

    def _payload_at(self, pos: int) -> Any:
        if self.level == self.arena.depth - 1:
            val = self.arena.vals[pos]
            return float(val) if isinstance(val, np.floating) else val
        return FlatFiberView(self.arena, self.level + 1, pos)

    @property
    def payloads(self) -> list:
        lo, hi = self._span
        return [self._payload_at(p) for p in range(lo, hi)]

    def __len__(self) -> int:
        lo, hi = self._span
        return hi - lo

    def __bool__(self) -> bool:
        return len(self) > 0

    def __iter__(self) -> Iterator[Tuple[Any, Any]]:
        lo, hi = self._span
        cs = self.arena.coords[self.level]
        np_level = isinstance(cs, np.ndarray)
        for p in range(lo, hi):
            c = int(cs[p]) if np_level else cs[p]
            yield c, self._payload_at(p)

    def get_payload(self, coord: Any, default: Any = None) -> Any:
        lo, hi = self._span
        cs = self.arena.coords[self.level]
        p = bisect.bisect_left(cs, coord, lo, hi)
        if p < hi and cs[p] == coord:
            return self._payload_at(p)
        return default

    def to_fiber(self) -> Fiber:
        """Materialize this view (and everything below it) as a Fiber."""
        ps = [
            p.to_fiber() if isinstance(p, FlatFiberView) else p
            for p in self.payloads
        ]
        return Fiber(self.coords, ps, coord_range=self.coord_range)

    def __repr__(self) -> str:
        return (
            f"FlatFiberView(level={self.level}, fiber={self.fiber}, "
            f"len={len(self)})"
        )


# ----------------------------------------------------------------------
# Module-level conveniences (the names the rest of the codebase imports)
# ----------------------------------------------------------------------
def arena_from_tensor(tensor: Tensor) -> FlatArena:
    """Flatten a tensor's fibertree into a :class:`FlatArena`."""
    return FlatArena.from_tensor(tensor)


def arena_from_fiber(root: Fiber, depth: int) -> FlatArena:
    return FlatArena.from_fiber(root, depth)


def tensor_from_arena(
    arena: FlatArena, name: str, rank_ids, shape=None
) -> Tensor:
    """Rebuild a boxed tensor from an arena (inverse of ``arena_from_tensor``)."""
    return arena.to_tensor(name, rank_ids, shape)
