"""Conversions between fibertree tensors and numpy / scipy representations.

These are the bridges used by tests (to validate kernel outputs against dense
references) and by workload loaders (to ingest scipy sparse matrices).
``scipy.sparse`` is imported by the converters that need it, not at module
import: most of the library never touches it.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .arena import COORD_DTYPE, VALUE_DTYPE, FlatArena
from .tensor import Tensor


def tensor_from_dense(
    name: str, rank_ids: Sequence[str], array: np.ndarray
) -> Tensor:
    """Build a (sparse) fibertree from a dense numpy array, omitting zeros."""
    array = np.asarray(array)
    if array.ndim != len(rank_ids):
        raise ValueError(
            f"array has {array.ndim} dims but {len(rank_ids)} rank ids given"
        )
    points = (
        (tuple(int(c) for c in idx), array[idx].item())
        for idx in zip(*np.nonzero(array))
    )
    return Tensor.from_coo(name, rank_ids, points, shape=list(array.shape))


def tensor_to_dense(tensor: Tensor, shape: Optional[Sequence[int]] = None) -> np.ndarray:
    """Materialize a fibertree tensor as a dense numpy array.

    Requires integer coordinates (i.e. no flattened tuple ranks).  ``shape``
    overrides the tensor's recorded shape; missing extents are inferred from
    the maximum coordinate present.
    """
    if shape is None:
        shape = list(tensor.shape)
    shape = list(shape)
    points = list(tensor.leaves())
    for axis in range(len(shape)):
        if shape[axis] is None:
            extent = 0
            for point, _ in points:
                coord = point[axis]
                if isinstance(coord, tuple):
                    raise TypeError(
                        f"tensor {tensor.name} has tuple coordinates at rank "
                        f"{tensor.rank_ids[axis]}; densify before flattening"
                    )
                extent = max(extent, coord + 1)
            shape[axis] = extent
    out = np.zeros(shape)
    for point, value in points:
        out[point] = value
    return out


def tensor_from_scipy(name: str, rank_ids: Sequence[str], matrix) -> Tensor:
    """Build a 2-rank fibertree from any scipy sparse matrix.

    Ingestion routes through :func:`arena_from_scipy`: CSR buffers repack
    directly into flat arena levels (no per-point sorting), and the boxed
    fibertree is rebuilt from the arena.
    """
    import scipy.sparse as sp

    if len(rank_ids) != 2:
        raise ValueError("scipy sparse matrices are 2-dimensional")
    csr = sp.csr_matrix(matrix)
    return arena_from_scipy(csr).to_tensor(name, rank_ids,
                                           shape=list(csr.shape))


def arena_from_scipy(matrix) -> FlatArena:
    """Build a 2-level :class:`FlatArena` straight from a scipy matrix.

    A CSR matrix *is* already a flat structure-of-arrays fibertree — row
    pointers are segment pointers, column indices are leaf coordinates —
    so this conversion never materializes boxed fibers: it drops empty
    rows, splits explicit zeros out, and repacks the CSR buffers as
    arena levels.
    """
    import scipy.sparse as sp

    csr = sp.csr_matrix(matrix)
    csr.sum_duplicates()
    csr.eliminate_zeros()
    indptr = np.asarray(csr.indptr, dtype=COORD_DTYPE)
    occupied = np.nonzero(indptr[1:] > indptr[:-1])[0]
    row_coords = occupied.astype(COORD_DTYPE)
    segs1 = np.empty(len(row_coords) + 1, dtype=COORD_DTYPE)
    segs1[0] = 0
    segs1[1:] = indptr[occupied + 1]
    arena = FlatArena(
        depth=2,
        coords=[row_coords,
                np.asarray(csr.indices, dtype=COORD_DTYPE).copy()],
        segs=[np.array([0, len(row_coords)], dtype=COORD_DTYPE), segs1],
        vals=np.asarray(csr.data, dtype=VALUE_DTYPE).copy(),
        ranges=[[None], [None] * len(row_coords)],
    )
    arena.validate()
    return arena


def arena_to_scipy(arena: FlatArena, shape: Optional[Sequence[int]] = None):
    """Materialize a 2-level arena as a scipy CSR matrix."""
    import scipy.sparse as sp

    if arena.depth != 2:
        raise ValueError("only 2-level arenas convert to scipy matrices")
    row_coords = np.asarray(arena.coords[0], dtype=COORD_DTYPE)
    segs1 = np.asarray(arena.segs[1], dtype=COORD_DTYPE)
    rows = np.repeat(row_coords, np.diff(segs1))
    cols = np.asarray(arena.coords[1], dtype=COORD_DTYPE)
    if shape is None:
        shape = (
            (int(rows.max()) + 1) if rows.size else 0,
            (int(cols.max()) + 1) if cols.size else 0,
        )
    vals = np.asarray(arena.vals, dtype=VALUE_DTYPE)
    return sp.csr_matrix((vals, (rows, cols)), shape=tuple(shape))


def tensor_to_scipy(tensor: Tensor):
    """Materialize a 2-rank fibertree as a scipy CSR matrix."""
    import scipy.sparse as sp

    if tensor.num_ranks != 2:
        raise ValueError("only 2-rank tensors convert to scipy matrices")
    rows, cols, data = [], [], []
    for (r, c), v in tensor.leaves():
        rows.append(r)
        cols.append(c)
        data.append(v)
    shape = tuple(
        s if s is not None else (max(axis) + 1 if axis else 0)
        for s, axis in zip(tensor.shape, (rows, cols))
    )
    return sp.csr_matrix((data, (rows, cols)), shape=shape)
