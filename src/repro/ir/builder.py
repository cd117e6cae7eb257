"""Build loop-nest IR from a mapped Einsum (paper Figure 6, left half).

The builder combines one Einsum of the cascade with its mapping to produce a
:class:`~repro.ir.nodes.LoopNestIR`:

* it replays the partitioning directives
  (:meth:`~repro.spec.mapping.EinsumMapping.replay`, the replay the
  linter checks) over the iteration space to derive the loop ranks and
  which index variables each rank binds, and over each tensor's ranks;
* per tensor access, it derives the preprocessing steps — flattening (with
  adjacency swizzles), shape splits (eager for every tensor holding the
  rank), occupancy splits (eager for the leader, runtime window-following
  for the others) and the final *inferred concordant swizzle* (paper
  section 3.2.2);
* it computes each rank's co-iteration mode (intersect/union/single) from
  the expression tree;
* it records the output assembly plan, including whether the producer-side
  build order differs from the storage rank order (an inferred swizzle on
  the intermediate tensor).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..einsum.ast import Access, Add, Einsum, Expr, IndexExpr, Mul, Take, accesses
from ..fibertree.rankid import rank_of_var, split_names
from ..spec.errors import SpecError
from ..spec.loader import AcceleratorSpec
from ..spec.mapping import EinsumMapping, PartitionReplay, PartitionStep
from .nodes import (
    FLAT,
    FLAT_UPPER,
    PLAIN,
    UPPER,
    VIRTUAL,
    AccessPlan,
    Level,
    LoopNestIR,
    OutputPlan,
    PrepStep,
)


class BuildError(SpecError):
    def __init__(self, message: str):
        super().__init__("build", message)


# ----------------------------------------------------------------------
# Iteration-space derivation
# ----------------------------------------------------------------------
@dataclass
class _SpaceInfo:
    loop_ranks: List[str]
    binds: Dict[str, Tuple[str, ...]]
    origin: Dict[str, Optional[str]]
    var_rank: Dict[str, str]  # index var -> loop rank binding it
    replay: PartitionReplay


def _origins(replay: PartitionReplay, base: Sequence[str]
             ) -> Dict[str, str]:
    """Every rank name of a replay over ``base`` -> the declared (or
    flattened) rank whose coordinates it walks."""
    origin = {r: r for r in base}
    for step in replay.steps:
        if step.flatten:
            origin[step.target] = step.target
        for name in step.names:
            origin[name] = origin[step.target]
    return origin


def _derive_iteration_space(einsum: Einsum,
                            mapping: EinsumMapping) -> _SpaceInfo:
    base = [rank_of_var(v) for v in einsum.all_vars]
    replay = mapping.replay(base)
    for step in replay.steps:
        if step.problem:
            raise BuildError(step.problem)
    origin = _origins(replay, base)
    binds = {r: tuple(b.lower() for b in bs)
             for r, bs in replay.binds.items()}
    ranks = replay.ranks

    loop_ranks = list(mapping.loop_order) if mapping.loop_order else ranks
    if sorted(loop_ranks) != sorted(ranks):
        raise BuildError(
            f"loop-order {loop_ranks} does not cover the partitioned "
            f"iteration ranks {sorted(ranks)}"
        )
    var_rank = {}
    for rank in loop_ranks:
        for v in binds.get(rank, ()):
            var_rank[v] = rank
    return _SpaceInfo(loop_ranks, {r: binds.get(r, ()) for r in loop_ranks},
                      origin, var_rank, replay)


# ----------------------------------------------------------------------
# Expression analysis
# ----------------------------------------------------------------------
def _conjunctive_flags(expr: Expr) -> List[bool]:
    """For each access (in `accesses` order): does its absence kill the point?"""
    flags: List[bool] = []

    def walk(node: Expr, conj: bool) -> None:
        if isinstance(node, Access):
            flags.append(conj)
        elif isinstance(node, (Mul,)):
            for f in node.factors:
                walk(f, conj)
        elif isinstance(node, Take):
            for a in node.args:
                flags.append(conj)
        elif isinstance(node, Add):
            walk(node.left, False)
            walk(node.right, False)
        else:
            raise TypeError(f"unknown expression node {node!r}")

    walk(expr, True)
    return flags


def _rank_mode(expr: Expr, rank_vars: Sequence[str]) -> str:
    """Co-iteration mode at a rank: 'intersect', 'union' or 'single'."""
    vars_set = set(rank_vars)

    def walk(node: Expr) -> Tuple[bool, Optional[str]]:
        if isinstance(node, Access):
            uses = bool(vars_set & set(node.index_vars))
            return uses, ("single" if uses else None)
        if isinstance(node, (Mul, Take)):
            children = node.factors if isinstance(node, Mul) else node.args
            results = [walk(c) for c in children]
            users = [m for uses, m in results if uses]
            if len(users) >= 2:
                return True, "intersect"
            if len(users) == 1:
                return True, users[0]
            return False, None
        if isinstance(node, Add):
            lu, lm = walk(node.left)
            ru, rm = walk(node.right)
            if lu and ru:
                return True, "union"
            if lu:
                return True, lm
            if ru:
                return True, rm
            return False, None
        raise TypeError(f"unknown expression node {node!r}")

    _, mode = walk(expr)
    return mode or "single"


# ----------------------------------------------------------------------
# Per-access planning
# ----------------------------------------------------------------------
@dataclass
class _LevelBuild:
    """Mutable level under construction: loop-rank name + tensor-side name."""

    name: str  # transformed rank name (aligned with loop ranks)
    tname: str  # rank name on the actual Tensor object after prep
    kind: str = PLAIN
    exprs: Tuple[IndexExpr, ...] = ()
    of: Optional[str] = None


def _level_rank(exprs: Tuple[IndexExpr, ...], space: _SpaceInfo,
                fallback: str) -> str:
    """Loop rank at which a level with these exprs can participate: the
    latest-bound variable's rank."""
    positions = []
    for e in exprs:
        for v in e.vars:
            rank = space.var_rank.get(v)
            if rank is not None:
                positions.append(space.loop_ranks.index(rank))
    if not positions:
        return fallback
    return space.loop_ranks[max(positions)]


def _plan_access(
    access: Access,
    spec: AcceleratorSpec,
    mapping: EinsumMapping,
    space: _SpaceInfo,
    conjunctive: bool,
    intermediates: set,
) -> AccessPlan:
    decl = spec.einsum.ranks_of(access.tensor)
    if access.indices is None:
        exprs = [IndexExpr.var(r.lower()) for r in decl]
    else:
        exprs = list(access.indices)
    for e in exprs:
        if len(set(e.vars)) != len(e.vars):
            raise BuildError(
                f"access {access}: index expression {e} repeats a variable; "
                "affine indices must use distinct variables"
            )
    expr_of = dict(zip(decl, exprs))
    order = spec.mapping.rank_order_of(access.tensor, decl)

    levels = [
        _LevelBuild(name=r, tname=r, kind=PLAIN, exprs=(expr_of[r],), of=r)
        for r in order
    ]
    prep: List[PrepStep] = []

    for step in mapping.replay(order).steps:
        if not step.applied:
            continue  # names ranks this tensor does not carry
        if step.flatten:
            _apply_flatten(levels, prep, step)
        if not step.splits:
            continue
        target, splits = step.target, step.splits
        sizes = tuple(d.resolve_size(spec.params) for d in splits)
        occupancy = splits[0].kind == "uniform_occupancy"
        leader = splits[0].leader if occupancy else None
        if occupancy and any(
            d.leader != leader or d.kind != "uniform_occupancy" for d in splits
        ):
            raise BuildError(
                f"mixed split directives on {target}: {list(map(str, splits))}"
            )
        if occupancy and access.tensor != leader:
            _apply_follower_split(levels, step)
        else:
            _apply_eager_split(levels, prep, step, sizes, occupancy)

    # Levels untouched by partitioning take the loop rank at which they can
    # participate (the rank binding their latest-bound variable): a level
    # accessed purely by lookup is scheduled at the rank that binds it.
    # Levels indexed by pure literals (the FFT cascade's P[0, k0, n1, 0])
    # bind to no loop rank at all; they advance by lookup and keep their
    # position relative to the preceding variable level.
    loop_pos = {r: i for i, r in enumerate(space.loop_ranks)}
    literal = set()
    for l in levels:
        if l.name in loop_pos:
            continue
        if l.exprs and all(e.is_literal for e in l.exprs):
            literal.add(id(l))
            continue
        l.name = _level_rank(l.exprs, space, fallback=l.name)

    unknown = [l.name for l in levels
               if l.name not in loop_pos and id(l) not in literal]
    if unknown:
        raise BuildError(
            f"access {access} has levels {unknown} outside the loop ranks "
            f"{space.loop_ranks}"
        )

    # Inferred concordant swizzle (paper section 3.2.2): order the physical
    # levels to match the loop order; literal levels inherit the sort key
    # of the preceding variable level (stable sort keeps them in place).
    keys = []
    prev_key = -1
    for l in levels:
        if id(l) in literal:
            keys.append(prev_key)
        else:
            prev_key = loop_pos[l.name]
            keys.append(prev_key)
    wanted = [l for _, l in sorted(zip(keys, levels), key=lambda p: p[0])]
    if [l.name for l in wanted if l.kind != VIRTUAL] != [
        l.name for l in levels if l.kind != VIRTUAL
    ]:
        prep.append(
            PrepStep(
                "swizzle",
                ranks=tuple(l.tname for l in wanted if l.kind != VIRTUAL),
            )
        )
    levels = wanted

    return AccessPlan(
        access=access,
        levels=[
            Level(rank=l.name, kind=l.kind, exprs=l.exprs, of=l.of) for l in levels
        ],
        prep=prep,
        conjunctive=conjunctive,
        is_intermediate=access.tensor in intermediates,
    )


def _apply_flatten(levels: List[_LevelBuild], prep: List[PrepStep],
                   step: PartitionStep) -> None:
    key = step.key
    key_levels = {l.name: l for l in levels if l.name in key}
    if any(l.kind not in (PLAIN, FLAT) for l in key_levels.values()):
        raise BuildError(f"cannot flatten split ranks {key}")
    # Adjacency swizzle: bring key ranks together, in key order, at the
    # position of the earliest one.
    current = [l.name for l in levels]
    wanted: List[str] = []
    inserted = False
    for n in current:
        if n in key:
            if not inserted:
                wanted.extend(key)
                inserted = True
            continue
        wanted.append(n)
    if wanted != current:
        order = [key_levels[n] if n in key_levels else
                 next(l for l in levels if l.name == n) for n in wanted]
        prep.append(PrepStep("swizzle", ranks=tuple(l.tname for l in order)))
        levels[:] = order
    # Merge the key levels into one FLAT level.
    first = levels.index(key_levels[key[0]])
    merged_exprs = tuple(
        e for k in key for e in key_levels[k].exprs
    )
    name = step.target
    flat = _LevelBuild(name=name, tname=name, kind=FLAT, exprs=merged_exprs,
                       of=name)
    prep.append(PrepStep("flatten", ranks=tuple(key_levels[k].tname for k in key)))
    levels[first : first + len(key)] = [flat]


def _apply_eager_split(levels, prep, step, sizes, occupancy) -> None:
    idx = next(i for i, l in enumerate(levels) if l.name == step.target)
    base = levels[idx]
    kind = "partition_occupancy" if occupancy else "partition_shape"
    prep.append(PrepStep(kind, rank=base.tname, sizes=sizes))
    new_names = step.names
    tensor_names = split_names(base.tname, len(sizes))
    upper_kind = FLAT_UPPER if base.kind == FLAT else UPPER
    uppers = [
        _LevelBuild(name=n, tname=tn, kind=upper_kind, of=base.of)
        for n, tn in zip(new_names[:-1], tensor_names[:-1])
    ]
    lower = _LevelBuild(
        name=new_names[-1],
        tname=tensor_names[-1],
        kind=base.kind,
        exprs=base.exprs,
        of=base.of,
    )
    levels[idx : idx + 1] = uppers + [lower]


def _apply_follower_split(levels, step) -> None:
    idx = next(i for i, l in enumerate(levels) if l.name == step.target)
    base = levels[idx]
    if base.kind != PLAIN or len(base.exprs) != 1 or not base.exprs[0].is_var:
        raise BuildError(
            f"follower split of {step.target} requires a plain "
            "single-variable level"
        )
    new_names = step.names
    uppers = [
        _LevelBuild(name=n, tname=base.tname, kind=VIRTUAL, of=base.of)
        for n in new_names[:-1]
    ]
    lower = _LevelBuild(
        name=new_names[-1],
        tname=base.tname,
        kind=PLAIN,
        exprs=base.exprs,
        of=base.of,
    )
    levels[idx : idx + 1] = uppers + [lower]


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def build_ir(spec: AcceleratorSpec, einsum_name: str) -> LoopNestIR:
    """Lower one mapped Einsum of a spec into loop-nest IR."""
    einsum = spec.einsum.cascade[einsum_name]
    mapping = spec.mapping.for_einsum(einsum_name)
    space = _derive_iteration_space(einsum, mapping)

    flags = _conjunctive_flags(einsum.expr)
    intermediates = set(spec.einsum.cascade.intermediates)
    plans = [
        _plan_access(acc, spec, mapping, space, conj, intermediates)
        for acc, conj in zip(accesses(einsum.expr), flags)
    ]

    modes = {
        rank: _rank_mode(einsum.expr, space.binds[rank])
        for rank in space.loop_ranks
    }

    # Output plan -------------------------------------------------------
    out_decl = spec.einsum.ranks_of(einsum.output.tensor)
    if einsum.output.indices is None:
        out_exprs = [IndexExpr.var(r.lower()) for r in out_decl]
    else:
        out_exprs = list(einsum.output.indices)
    out_expr_of = dict(zip(out_decl, out_exprs))
    storage = spec.mapping.rank_order_of(einsum.output.tensor, out_decl)
    storage_exprs = tuple(out_expr_of[r] for r in storage)

    # Order in which loop execution binds the output's variables.
    out_vars = [v for e in out_exprs for v in e.vars]
    build_vars: List[str] = []
    for rank in space.loop_ranks:
        for v in space.binds[rank]:
            if v in out_vars and v not in build_vars:
                build_vars.append(v)
    storage_vars = [v for e in storage_exprs for v in e.vars]
    output = OutputPlan(
        tensor=einsum.output.tensor,
        indices=storage_exprs,
        storage_ranks=list(storage),
        build_ranks=build_vars,
        needs_producer_swizzle=(build_vars != storage_vars),
    )

    # Rank shapes from explicit spec shapes (by origin rank name).
    rank_shapes: Dict[str, Optional[int]] = {}
    for rank in space.loop_ranks:
        origin = space.origin.get(rank)
        rank_shapes[rank] = spec.einsum.shapes.get(origin or rank)

    st = mapping
    time_styles = {t.rank: t.style for t in st.time}
    return LoopNestIR(
        einsum=einsum,
        loop_ranks=space.loop_ranks,
        binds=space.binds,
        accesses=plans,
        output=output,
        modes=modes,
        space_ranks=list(st.space_ranks),
        time_ranks=list(st.time_ranks) if st.time_ranks else list(space.loop_ranks),
        time_styles=time_styles,
        rank_shapes=rank_shapes,
        origin={r: (space.origin.get(r) or r) for r in space.loop_ranks},
        replay=space.replay,
    )


def build_cascade_ir(spec: AcceleratorSpec) -> List[LoopNestIR]:
    """Lower every Einsum of a spec, in cascade order."""
    return [build_ir(spec, e.name) for e in spec.einsum.cascade]
