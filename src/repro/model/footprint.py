"""Footprint accounting: format-aware sizes of tensor data (section 4.1.1).

Translates format specifications into bits moved per access and aggregate
tensor footprints.  The *algorithmic minimum* traffic of a kernel — each
input read once, the output written once — normalizes Figure 9's traffic
plots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..fibertree.fiber import Fiber
from ..fibertree.tensor import Tensor
from ..spec.format import FormatSpec, RankFormat


@dataclass
class RankStats:
    """Element/fiber counts of one rank of a stored tensor."""

    elements: int = 0
    fibers: int = 0
    shape_slots: int = 0  # fibers x rank shape (for U formats)


def tensor_rank_stats(tensor: Tensor) -> Dict[str, RankStats]:
    """Count elements and fibers per rank of a stored tensor (from the
    level sizes of a column-backed tensor's arena, with no tree)."""
    stats = {rank: RankStats() for rank in tensor.rank_ids}
    arena = tensor.stored_arena
    if arena is not None:
        for depth, (rank, shape) in enumerate(zip(tensor.rank_ids,
                                                  tensor.shape)):
            s = stats[rank]
            s.fibers = arena.num_fibers(depth)
            s.elements = len(arena.coords[depth])
            s.shape_slots = s.elements if shape is None else \
                s.fibers * shape
        return stats

    def walk(fiber: Fiber, depth: int) -> None:
        rank = tensor.rank_ids[depth]
        s = stats[rank]
        s.fibers += 1
        s.elements += len(fiber)
        shape = tensor.shape[depth]
        s.shape_slots += shape if shape is not None else len(fiber)
        for _, p in fiber:
            if isinstance(p, Fiber):
                walk(p, depth + 1)

    if tensor.num_ranks:
        walk(tensor.root, 0)
    return stats


class FootprintOracle:
    """Per-access and per-tensor footprints under a format specification.

    ``config_of`` optionally pins a format configuration name per tensor
    (from the binding spec); otherwise the tensor's sole configuration (or
    an all-default format) is used.
    """

    def __init__(self, formats: FormatSpec,
                 config_of: Optional[Dict[str, str]] = None):
        self.formats = formats
        self.config_of = config_of or {}
        self._stats_cache: Dict[int, Dict[str, RankStats]] = {}
        # Formats are fixed at construction, so both lookups below are
        # pure — and they sit on the per-event traced path, where the
        # uncached spec walk (allocating a default RankFormat per miss)
        # dominated sink time.
        self._fmt_cache: Dict[tuple, RankFormat] = {}
        self._bits_cache: Dict[tuple, int] = {}

    def rank_format(self, tensor: str, rank: str) -> RankFormat:
        key = (tensor, rank)
        fmt = self._fmt_cache.get(key)
        if fmt is None:
            fmt = self.formats.rank_format(tensor, rank,
                                           self.config_of.get(tensor))
            self._fmt_cache[key] = fmt
        return fmt

    def access_bits(self, tensor: str, rank: str, kind: str) -> int:
        """Bits moved by one coordinate/payload access at a rank."""
        key = (tensor, rank, kind)
        bits = self._bits_cache.get(key)
        if bits is not None:
            return bits
        fmt = self.rank_format(tensor, rank)
        if kind == "coord":
            bits = fmt.coord_footprint_bits()
        elif kind == "payload":
            bits = fmt.payload_footprint_bits()
        elif kind == "elem":
            bits = fmt.element_footprint_bits()
        elif kind == "fheader":
            bits = fmt.fhbits
        else:
            raise ValueError(f"unknown access kind {kind!r}")
        self._bits_cache[key] = bits
        return bits

    # ------------------------------------------------------------------
    def stats_of(self, tensor: Tensor) -> Dict[str, RankStats]:
        key = id(tensor)
        if key not in self._stats_cache:
            self._stats_cache[key] = tensor_rank_stats(tensor)
        return self._stats_cache[key]

    def rank_bits(self, tensor: Tensor, rank: str) -> int:
        """Total stored bits of one rank of a tensor under its format."""
        fmt = self.rank_format(tensor.name, rank)
        s = self.stats_of(tensor)[rank]
        slots = s.shape_slots if fmt.format == "U" else s.elements
        coord_slots = 0 if fmt.format in ("U", "B") else slots
        if fmt.format == "B":
            # Uncompressed coordinates (e.g. a bitmap), compressed payloads.
            coord_slots = s.shape_slots
            slots = s.elements
        return (
            coord_slots * fmt.cbits
            + slots * fmt.pbits
            + s.fibers * fmt.fhbits
        )

    def tensor_bits(self, tensor: Tensor) -> int:
        """Total stored footprint of a tensor (all ranks)."""
        return sum(self.rank_bits(tensor, r) for r in tensor.rank_ids)

    def subtree_bits_per_element(self, tensor: Tensor, rank: str) -> float:
        """Average bits below one element of ``rank`` (for eager loads)."""
        ranks = tensor.rank_ids
        if rank not in ranks:
            return float(self.access_bits(tensor.name, rank, "elem"))
        below = ranks[ranks.index(rank) + 1:]
        elements = max(1, self.stats_of(tensor)[rank].elements)
        below_bits = sum(self.rank_bits(tensor, r) for r in below)
        own = self.access_bits(tensor.name, rank, "elem")
        return own + below_bits / elements


def algorithmic_minimum_bits(
    oracle: FootprintOracle,
    inputs: Dict[str, Tensor],
    outputs: Dict[str, Tensor],
) -> int:
    """Minimum possible traffic: read each input once, write outputs once."""
    total = 0
    for t in inputs.values():
        total += oracle.tensor_bits(t)
    for t in outputs.values():
        total += oracle.tensor_bits(t)
    return total
