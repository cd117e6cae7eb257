"""Tensors represented as named fibertrees (paper section 2.1).

A :class:`Tensor` couples a fibertree with a rank order (list of rank
names, top to bottom of the tree) and a per-rank shape.  All of TeAAL's
content-preserving transformations — rank swizzling, partitioning, and
flattening — are methods here; each returns a new tensor and leaves the
receiver unchanged.

The fibertree is an abstraction; its storage is one of two layouts:

* **Columns.**  :meth:`Tensor.from_points` (and so :meth:`Tensor.from_coo`,
  every workload generator and every arena-kernel output) stores a
  :class:`~repro.fibertree.arena.FlatArena` built with one numpy
  ``lexsort`` over the coordinate columns (one column is sorted only
  when it arrives out of order), whenever every coordinate is a plain
  ``int`` that fits int64 and every value a plain ``float``.
  ``nnz``, :meth:`~Tensor.leaves`, :meth:`~Tensor.points` and
  :meth:`~Tensor.copy` read the columns (a copy shares the arena), and
  :meth:`FlatArena.from_tensor <repro.fibertree.arena.FlatArena.from_tensor>`
  hands the arena to the kernels with no tree walk.
* **A boxed tree.**  Any other points (tuple coordinates; int, bool or
  ``np.float64`` values; none at all), and every tensor constructed from
  a root :class:`~repro.fibertree.fiber.Fiber`, store the tree itself.

:attr:`Tensor.root` is the boxed view either way.  On a column-backed
tensor the first access builds the tree
(:meth:`~repro.fibertree.arena.FlatArena.to_fiber`) and drops the
columns, so from then on the tree is authoritative and a caller who
mutates it is never shadowed by stale columns.  The build is
thread-safe: a caller's own threads may share input tensors.  Readers
that only need a tree to walk or transform — the content-preserving
transformations below and the interpreter — build a private one from
the columns instead, so the tensor keeps its columns.
"""

from __future__ import annotations

import threading
from itertools import chain
from operator import itemgetter
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .arena import COORD_DTYPE, VALUE_DTYPE, FlatArena, levels_from_sorted
from .fiber import Fiber
from .rankid import flatten_name, split_names

#: Serializes the one-time tree builds of column-backed tensors.
_ROOT_LOCK = threading.Lock()


class Tensor:
    """A named fibertree with labeled ranks and per-rank shapes.

    ``shape[r]`` is the integer extent of rank ``rank_ids[r]`` (coordinates
    live in ``[0, shape[r])``) or ``None`` when unknown / not meaningful
    (tuple-coordinate ranks created by flattening).
    """

    def __init__(
        self,
        name: str,
        rank_ids: Sequence[str],
        root: Optional[Fiber] = None,
        shape: Optional[Sequence[Optional[int]]] = None,
    ):
        if len(set(rank_ids)) != len(rank_ids):
            raise ValueError(f"duplicate rank ids in {list(rank_ids)}")
        self.name = name
        self.rank_ids = list(rank_ids)
        self._root: Optional[Fiber] = root if root is not None else Fiber()
        self._arena: Optional[FlatArena] = None
        if shape is None:
            self.shape: List[Optional[int]] = [None] * len(self.rank_ids)
        else:
            self.shape = list(shape)
        if len(self.shape) != len(self.rank_ids):
            raise ValueError(
                f"shape length {len(self.shape)} does not match "
                f"rank count {len(self.rank_ids)}"
            )

    @classmethod
    def _columnar(cls, name, rank_ids, arena: FlatArena, shape) -> "Tensor":
        """A tensor stored as ``arena`` (never mutated: copies share it)."""
        tensor = cls(name, rank_ids, None, shape)
        tensor._root = None
        tensor._arena = arena
        return tensor

    def __setstate__(self, state: dict) -> None:
        if "root" in state:  # pickled before tensors stored columns
            state["_root"] = state.pop("root")
            state["_arena"] = None
        self.__dict__.update(state)

    # ------------------------------------------------------------------
    # Storage
    # ------------------------------------------------------------------
    @property
    def root(self) -> Fiber:
        """The boxed fibertree, built on first access from the columns."""
        root = self._root
        if root is None:
            with _ROOT_LOCK:
                root = self._root
                if root is None:
                    root = self._arena.to_fiber()
                    self._root = root  # published before the columns go
                    self._arena = None
        return root

    @root.setter
    def root(self, root: Fiber) -> None:
        with _ROOT_LOCK:
            self._root = root
            self._arena = None

    @property
    def stored_arena(self) -> Optional[FlatArena]:
        """The arena the tensor is stored as, or ``None`` once (or
        whenever) its boxed tree is authoritative."""
        return self._arena

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_coo(
        cls,
        name: str,
        rank_ids: Sequence[str],
        points: Iterable[Tuple[tuple, Any]],
        shape: Optional[Sequence[Optional[int]]] = None,
    ) -> "Tensor":
        """Build a tensor from (coordinate tuple, value) pairs.

        Later duplicates overwrite earlier ones.  Zero values are kept out of
        the tree (a sparse fibertree omits empty payloads).
        """
        dedup: Dict[tuple, Any] = {}
        for point, value in points:
            if len(point) != len(rank_ids):
                raise ValueError(
                    f"point {point} does not match rank count {len(rank_ids)}"
                )
            dedup[tuple(point)] = value
        return cls.from_points(name, rank_ids, dedup, shape)

    @classmethod
    def from_points(
        cls,
        name: str,
        rank_ids: Sequence[str],
        points: Dict[tuple, Any],
        shape: Optional[Sequence[Optional[int]]] = None,
    ) -> "Tensor":
        """Build a tensor from a ``{point: value}`` mapping in one pass.

        The points are sorted once and zero values dropped; each point
        must have one coordinate per rank.  Plain-int coordinates and
        plain-float values are stored as columns, anything else as a
        boxed tree (see the module docs).
        """
        arena = _arena_from_points(points, len(rank_ids))
        if arena is not None:
            return cls._columnar(name, rank_ids, arena, shape)
        if 0 in points.values():  # rare: filter only when a zero is present
            points = {p: v for p, v in points.items() if v != 0}
        root = _build_from_sorted(sorted(points.items()), len(rank_ids))
        return cls(name, rank_ids, root, shape)

    @classmethod
    def empty(
        cls,
        name: str,
        rank_ids: Sequence[str],
        shape: Optional[Sequence[Optional[int]]] = None,
    ) -> "Tensor":
        """An output tensor with no elements yet."""
        return cls(name, rank_ids, Fiber(), shape)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_ranks(self) -> int:
        return len(self.rank_ids)

    def rank_index(self, rank: str) -> int:
        try:
            return self.rank_ids.index(rank)
        except ValueError:
            raise KeyError(f"tensor {self.name} has no rank {rank!r}") from None

    def shape_of(self, rank: str) -> Optional[int]:
        return self.shape[self.rank_index(rank)]

    @property
    def nnz(self) -> int:
        """Number of stored scalar values."""
        arena = self._arena
        if arena is not None:
            return arena.nnz
        return self.root.count_leaves()

    def leaves(self) -> Iterator[Tuple[tuple, Any]]:
        """Yield (point, value) for every stored scalar."""
        if self.num_ranks == 0:
            return iter(())
        arena = self._arena
        if arena is None:
            return self.root.leaves()
        cols = [c.tolist() for c in arena.columns()]
        return zip(zip(*cols), arena.vals.tolist())

    def points(self) -> Dict[tuple, Any]:
        """All stored scalars as a {point: value} dict (flattened coords kept)."""
        return dict(self.leaves())

    def fibers_at_rank(self, rank: str) -> Iterator[Fiber]:
        """Yield every fiber in the level labeled by ``rank``."""
        depth = self.rank_index(rank)
        frontier = [self.root]
        for _ in range(depth):
            frontier = [p for f in frontier for p in f.payloads if isinstance(p, Fiber)]
        return iter(frontier)

    def get(self, point: Sequence[Any], default: Any = 0) -> Any:
        """Scalar value at a fully specified point (``default`` when absent)."""
        node: Any = self.root
        for coord in point:
            if not isinstance(node, Fiber):
                raise KeyError(f"point {tuple(point)} is too deep for {self.name}")
            node = node.get_payload(coord)
            if node is None:
                return default
        return node

    def _tree(self) -> Fiber:
        """The boxed tree, built without changing the storage."""
        arena = self._arena
        return self.root if arena is None else arena.to_fiber()

    def _fresh_tree(self) -> Fiber:
        """A private copy of the boxed tree, built without changing the
        storage (the columns' tree is fresh already)."""
        arena = self._arena
        return self.root.copy() if arena is None else arena.to_fiber()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tensor):
            return NotImplemented
        return self.rank_ids == other.rank_ids and \
            self._tree() == other._tree()

    def __repr__(self) -> str:
        return f"Tensor({self.name!r}, rank_ids={self.rank_ids}, nnz={self.nnz})"

    def copy(self, name: Optional[str] = None) -> "Tensor":
        arena = self._arena
        if arena is not None:
            return Tensor._columnar(name or self.name, list(self.rank_ids),
                                    arena, list(self.shape))
        return Tensor(
            name or self.name, list(self.rank_ids), self.root.copy(), list(self.shape)
        )

    # ------------------------------------------------------------------
    # Content-preserving transformations (paper section 3.2)
    # ------------------------------------------------------------------
    def swizzle(self, new_rank_ids: Sequence[str]) -> "Tensor":
        """Reorder the ranks of the fibertree (a rank swizzle).

        The set of values at the leaves is unchanged; only the coordinate
        system (level order) changes.  This models offline transposition and
        online sort/merge operations (paper section 3.2.2).
        """
        new_rank_ids = list(new_rank_ids)
        if sorted(new_rank_ids) != sorted(self.rank_ids):
            raise ValueError(
                f"swizzle target {new_rank_ids} is not a permutation of "
                f"{self.rank_ids}"
            )
        if new_rank_ids == self.rank_ids:
            return self.copy()
        perm = [self.rank_index(r) for r in new_rank_ids]
        # Two or more ranks here (a one-rank swizzle is the identity), so
        # the itemgetter returns a tuple.
        permute = itemgetter(*perm)
        items = sorted(
            (permute(point), value) for point, value in self.leaves()
        )
        root = _build_from_sorted(items, len(new_rank_ids))
        new_shape = [self.shape[i] for i in perm]
        return Tensor(self.name, new_rank_ids, root, new_shape)

    def partition_uniform_shape(self, rank: str, steps: Sequence[int]) -> "Tensor":
        """Coordinate-based (shape) partitioning of ``rank``.

        ``steps`` lists the chunk shapes top-down; ``n`` steps create ranks
        ``rank{n} .. rank1 rank0``.  Chunks keep original coordinates; the new
        upper coordinates are the first legal coordinate of each chunk.
        """
        names = split_names(rank, len(steps))
        depth = self.rank_index(rank)
        shape = self.shape_of(rank)
        root = self._fresh_tree()
        for level, step in enumerate(steps):
            root = _split_at_depth(
                root, depth + level, lambda f, s=step: f.split_uniform_shape(s, shape)
            )
        new_ranks = self.rank_ids[:depth] + names + self.rank_ids[depth + 1 :]
        new_shape = (
            self.shape[:depth] + [shape] * len(names) + self.shape[depth + 1 :]
        )
        return Tensor(self.name, new_ranks, root, new_shape)

    def partition_uniform_occupancy(self, rank: str, sizes: Sequence[int]) -> "Tensor":
        """Occupancy-based partitioning of ``rank`` (leader side).

        Each fiber at the rank's level is split into chunks of equal occupancy
        (modulo remainders).  ``sizes`` lists the chunk occupancies top-down.
        Chunk fibers record their coordinate ranges so follower tensors can
        adopt the leader's boundaries.
        """
        names = split_names(rank, len(sizes))
        depth = self.rank_index(rank)
        root = self._fresh_tree()
        for level, size in enumerate(sizes):
            root = _split_at_depth(
                root, depth + level, lambda f, s=size: f.split_equal(s)
            )
        new_ranks = self.rank_ids[:depth] + names + self.rank_ids[depth + 1 :]
        shape = self.shape_of(rank)
        new_shape = (
            self.shape[:depth] + [shape] * len(names) + self.shape[depth + 1 :]
        )
        return Tensor(self.name, new_ranks, root, new_shape)

    def partition_by_boundaries(
        self, rank: str, names: Sequence[str], boundaries: Sequence[Any]
    ) -> "Tensor":
        """Split ``rank`` at explicit boundaries (follower side of a split)."""
        if len(names) != 2:
            raise ValueError("boundary partitioning adds exactly one level")
        depth = self.rank_index(rank)
        root = _split_at_depth(
            self._fresh_tree(),
            depth,
            lambda f: f.split_by_boundaries(boundaries),
        )
        new_ranks = self.rank_ids[:depth] + list(names) + self.rank_ids[depth + 1 :]
        shape = self.shape_of(rank)
        new_shape = self.shape[:depth] + [shape, shape] + self.shape[depth + 1 :]
        return Tensor(self.name, new_ranks, root, new_shape)

    def flatten_ranks(self, ranks: Sequence[str]) -> "Tensor":
        """Flatten adjacent ranks into one tuple-coordinate rank (Figure 2)."""
        ranks = list(ranks)
        start = self.rank_index(ranks[0])
        if self.rank_ids[start : start + len(ranks)] != ranks:
            raise ValueError(
                f"ranks {ranks} are not adjacent (in order) in {self.rank_ids}"
            )
        new_name = flatten_name(ranks)
        root = _split_at_depth(
            self._fresh_tree(), start, lambda f: f.flatten(len(ranks) - 1)
        )
        new_ranks = (
            self.rank_ids[:start] + [new_name] + self.rank_ids[start + len(ranks) :]
        )
        new_shape = self.shape[:start] + [None] + self.shape[start + len(ranks) :]
        return Tensor(self.name, new_ranks, root, new_shape)

    def unpartition(self, upper: str, lower: str, merged: str) -> "Tensor":
        """Merge adjacent split ranks back into one (inverse of partitioning)."""
        depth = self.rank_index(upper)
        if self.rank_ids[depth + 1 : depth + 2] != [lower]:
            raise ValueError(f"{lower} is not directly below {upper}")

        def merge(fiber: Fiber) -> Fiber:
            out = Fiber()
            for _, chunk in fiber:
                for c, p in chunk:
                    out.set_payload(c, p)
            return out

        root = _split_at_depth(self._fresh_tree(), depth, merge)
        new_ranks = self.rank_ids[:depth] + [merged] + self.rank_ids[depth + 2 :]
        new_shape = self.shape[:depth] + [self.shape[depth]] + self.shape[depth + 2 :]
        return Tensor(self.name, new_ranks, root, new_shape)

    def prune_empty(self) -> "Tensor":
        """Copy with zero leaves and empty fibers removed."""
        return Tensor(self.name, list(self.rank_ids),
                      self._tree().prune_empty(), list(self.shape))


# ----------------------------------------------------------------------
# Internal helpers
# ----------------------------------------------------------------------
def _arena_from_points(points: Dict[tuple, Any],
                       num_ranks: int) -> Optional[FlatArena]:
    """The arena of ``from_points``'s tree, or ``None`` unless every
    point has ``num_ranks`` plain-int coordinates that fit int64 and
    every value is a plain float (the types the arena's columns hold
    without changing what ``leaves()`` yields)."""
    if not points or num_ranks == 0:
        return None
    if set(map(type, points.values())) != {float}:
        return None
    if num_ranks == 1:
        return _arena_from_points1(points)
    return _arena_from_rows(points, num_ranks)


def _arena_from_points1(points: Dict[tuple, Any]) -> Optional[FlatArena]:
    """:func:`_arena_from_points` for one rank, whose values are known to
    be plain floats: a key type check, one unpack and one type pass over
    the coordinates, and a sort only when they arrive out of order."""
    keys = list(points)
    # Hashable non-tuples that unpack to one item (bytes, ranges, tuple
    # subclasses) must still take the boxed route.
    if set(map(type, keys)) != {tuple}:
        return None
    try:
        coords = [k for (k,) in keys]
    except ValueError:  # a key of another length
        return None
    if set(map(type, coords)) != {int}:
        return None
    try:
        col = np.array(coords, dtype=COORD_DTYPE)
    except OverflowError:
        return None
    vals = np.fromiter(points.values(), dtype=VALUE_DTYPE, count=len(keys))
    keep = vals != 0  # drops 0.0 and -0.0, as the boxed route does
    if not keep.all():
        col, vals = col[keep], vals[keep]
    if len(col) > 1 and (col[1:] < col[:-1]).any():
        order = np.argsort(col, kind="stable")
        col, vals = col[order], vals[order]
    return FlatArena(1, [col], [np.array([0, len(col)], dtype=COORD_DTYPE)],
                     vals, [[None]])


def _arena_from_rows(points: Dict[tuple, Any],
                     num_ranks: int) -> Optional[FlatArena]:
    """:func:`_arena_from_points` for any rank count, whose values are
    known to be plain floats."""
    keys = list(points)
    if set(map(type, keys)) != {tuple} or \
            set(map(len, keys)) != {num_ranks} or \
            set(map(type, chain.from_iterable(keys))) != {int}:
        return None
    try:
        flat = np.fromiter(chain.from_iterable(keys), dtype=COORD_DTYPE,
                           count=len(keys) * num_ranks)
    except OverflowError:
        return None
    vals = np.fromiter(points.values(), dtype=VALUE_DTYPE, count=len(keys))
    rows = flat.reshape(len(keys), num_ranks)
    keep = vals != 0  # drops 0.0 and -0.0, as the boxed route does
    if not keep.all():
        rows, vals = rows[keep], vals[keep]
    cols = [rows[:, d] for d in range(num_ranks)]
    order = np.lexsort(cols[::-1])
    coords, segs, ranges = levels_from_sorted([c[order] for c in cols])
    return FlatArena(num_ranks, coords, segs, vals[order], ranges)


def _build_from_sorted(items: List[Tuple[tuple, Any]], num_ranks: int) -> Fiber:
    """Build a fibertree from sorted, de-duplicated (point, value) pairs.

    One pass: ``path[d]`` is the open fiber of level ``d``; a point opens
    fresh fibers below the first level where it departs from its
    predecessor, then appends its leaf.
    """
    if num_ranks == 0:
        raise ValueError("cannot build a fibertree with zero ranks")
    root = Fiber()
    path = [root] * num_ranks
    last = num_ranks - 1
    prev: Optional[tuple] = None
    for point, value in items:
        d = 0
        if prev is not None:
            while d < last and point[d] == prev[d]:
                d += 1
        for level in range(d, last):
            child = Fiber()
            node = path[level]
            node.coords.append(point[level])
            node.payloads.append(child)
            path[level + 1] = child
        leaf = path[last]
        leaf.coords.append(point[last])
        leaf.payloads.append(value)
        prev = point
    return root


def _split_at_depth(root: Fiber, depth: int, op) -> Fiber:
    """Apply ``op`` to every fiber at ``depth`` levels below ``root``."""
    if depth == 0:
        return op(root)
    return Fiber(
        list(root.coords),
        [
            _split_at_depth(p, depth - 1, op) if isinstance(p, Fiber) else p
            for p in root.payloads
        ],
        coord_range=root.coord_range,
    )
