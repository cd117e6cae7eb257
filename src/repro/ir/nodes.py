"""Loop-nest IR: the imperative-style intermediate representation TeAAL
lowers mapped Einsums onto (paper section 4.3, Figure 6).

One :class:`LoopNestIR` describes how a single Einsum executes:

* ``loop_ranks`` — the serialized iteration order (after partitioning);
* ``binds`` — which index variables each loop rank's coordinate binds
  (split upper ranks bind nothing; flattened ranks bind several);
* ``accesses`` — per tensor access, the transformed fibertree level
  structure plus the preprocessing (prep) steps that produce it;
* ``output`` — where results are inserted and which swizzles are inferred;
* ``modes`` — per-rank co-iteration mode (intersect / union / single);
* spacetime — which ranks map to space (parallel PEs) vs time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..einsum.ast import Access, Einsum, IndexExpr

if TYPE_CHECKING:
    from ..spec.mapping import PartitionReplay

# Level kinds
PLAIN = "plain"  # a physical level carrying an index expression
UPPER = "upper"  # a physical chunk level created by a split
FLAT = "flat"  # a physical level with tuple coordinates (flattened)
FLAT_UPPER = "flat_upper"  # chunk level above a flattened rank
VIRTUAL = "virtual"  # a follower's placeholder at a split-upper rank


@dataclass(frozen=True)
class Level:
    """One fibertree level of a transformed tensor, aligned to a loop rank."""

    rank: str  # loop-rank name this level corresponds to
    kind: str = PLAIN
    exprs: Tuple[IndexExpr, ...] = ()  # PLAIN: 1 expr; FLAT: one per component
    of: Optional[str] = None  # original rank for UPPER/VIRTUAL levels

    @property
    def is_physical(self) -> bool:
        return self.kind != VIRTUAL


@dataclass(frozen=True)
class PrepStep:
    """A content-preserving transformation applied before the loop nest."""

    kind: str  # 'swizzle' | 'partition_shape' | 'partition_occupancy' | 'flatten'
    rank: Optional[str] = None  # target rank (splits) or None
    ranks: Tuple[str, ...] = ()  # swizzle order / flatten group
    sizes: Tuple[int, ...] = ()  # split sizes, top-down

    def describe(self) -> str:
        if self.kind == "swizzle":
            return f"swizzle to [{', '.join(self.ranks)}]"
        if self.kind == "flatten":
            return f"flatten ({', '.join(self.ranks)})"
        sizes = ", ".join(str(s) for s in self.sizes)
        style = "shape" if self.kind == "partition_shape" else "occupancy"
        return f"partition {self.rank} by {style} [{sizes}]"


@dataclass
class AccessPlan:
    """Execution plan for one tensor access within the loop nest."""

    access: Access
    levels: List[Level]
    prep: List[PrepStep] = field(default_factory=list)
    conjunctive: bool = True  # empty access kills the point (Mul/Take context)
    is_intermediate: bool = False  # produced by an earlier Einsum in the cascade

    @property
    def tensor(self) -> str:
        return self.access.tensor

    def physical_rank_order(self) -> List[str]:
        return [lvl.rank for lvl in self.levels if lvl.is_physical]


@dataclass
class OutputPlan:
    """How the Einsum's output is assembled and stored."""

    tensor: str
    indices: Tuple[IndexExpr, ...]  # per declared output rank, in storage order
    storage_ranks: List[str]  # the mapping's rank-order for the tensor
    build_ranks: List[str] = field(default_factory=list)  # order produced by loop
    needs_producer_swizzle: bool = False  # build order != storage order


@dataclass
class LoopNestIR:
    """The lowered form of one mapped Einsum."""

    einsum: Einsum
    loop_ranks: List[str]
    binds: Dict[str, Tuple[str, ...]]
    accesses: List[AccessPlan]
    output: OutputPlan
    modes: Dict[str, str]  # loop rank -> 'intersect' | 'union' | 'single'
    space_ranks: List[str] = field(default_factory=list)
    time_ranks: List[str] = field(default_factory=list)
    time_styles: Dict[str, str] = field(default_factory=dict)  # rank -> pos|coord
    rank_shapes: Dict[str, Optional[int]] = field(default_factory=dict)
    # Map loop rank -> original (declared) rank it derives from, used for
    # follower windows and shape lookups (derived from ``replay``).
    origin: Dict[str, str] = field(default_factory=dict)
    # The mapping's partitioning replayed over the Einsum's iteration
    # ranks: what the loop ranks derive from, kept for the pricing tiers.
    replay: Optional[PartitionReplay] = None

    @property
    def name(self) -> str:
        return self.einsum.name

    def plan_for(self, tensor: str) -> AccessPlan:
        for plan in self.accesses:
            if plan.tensor == tensor:
                return plan
        raise KeyError(f"no access plan for tensor {tensor!r}")
