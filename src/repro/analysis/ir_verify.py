"""Structural verification of :class:`~repro.ir.nodes.LoopNestIR`.

The IR builder establishes invariants the code generators silently rely
on (stamp variables exist for every space/time rank, every index
variable is bound by exactly one loop rank, levels are concordant with
the loop order, ...).  ``verify_ir`` re-checks them between
``ir/builder.py`` and ``codegen_flat.py`` as a lowering gate on every
:class:`~repro.model.backend.CompiledCascade` (cheap — pure structural
walks, no tensor data), so a malformed IR fails loudly instead of
driving codegen into nonsense.

Every check is type-tolerant: a malformed IR may hold the wrong type
at any field, and the verifier must report that as a violation rather
than raise ``AttributeError`` mid-check.
"""

from __future__ import annotations

from typing import Iterable, List

from ..einsum.ast import Access, Einsum, IndexExpr, accesses
from ..ir import nodes
from ..ir.builder import _conjunctive_flags
from ..ir.nodes import AccessPlan, Level, LoopNestIR, OutputPlan
from ..spec.errors import SpecError

__all__ = ["IRVerificationError", "ir_violations", "verify_ir",
           "verify_cascade_irs"]

_LEVEL_KINDS = (nodes.PLAIN, nodes.UPPER, nodes.FLAT, nodes.FLAT_UPPER,
                nodes.VIRTUAL)
_MODES = ("intersect", "union", "single")
_STAMP_STYLES = ("pos", "coord")


class IRVerificationError(SpecError):
    """A LoopNestIR violates a structural invariant codegen relies on."""

    def __init__(self, violations: List[str], *, name: str = ""):
        self.violations = list(violations)
        self.ir_name = name
        head = f"IR of {name!r} " if name else "IR "
        shown = "; ".join(self.violations[:5])
        more = (f" (+{len(self.violations) - 5} more)"
                if len(self.violations) > 5 else "")
        super().__init__(
            "ir-verify",
            f"{head}violates {len(self.violations)} structural "
            f"invariant(s): {shown}{more}",
        )

    def __reduce__(self):
        return (_rebuild_ir_error,
                (type(self), self.violations, self.ir_name))


def _rebuild_ir_error(cls, violations, name):
    err = IRVerificationError.__new__(cls)
    IRVerificationError.__init__(err, violations, name=name)
    return err


def _is_str_list(value) -> bool:
    return (isinstance(value, list)
            and all(isinstance(v, str) and v for v in value))


def _literal_level(level: Level) -> bool:
    """Levels indexed purely by literals (FFT's ``P[0, k0, n1, 0]``)
    bind no loop rank; they advance by lookup and are exempt from the
    rank-membership and position checks."""
    return bool(level.exprs) and all(
        isinstance(e, IndexExpr) and e.is_literal for e in level.exprs)


def ir_violations(ir) -> List[str]:
    """Every structural invariant ``ir`` violates, as human-readable
    strings (empty when the IR is well-formed)."""
    out: List[str] = []

    # -- the object itself ---------------------------------------------
    if not isinstance(ir, LoopNestIR):
        return [f"not a LoopNestIR: {type(ir).__name__}"]
    if not isinstance(ir.einsum, Einsum):
        return [f"einsum field is {type(ir.einsum).__name__}, not Einsum"]

    # -- loop ranks ----------------------------------------------------
    if not _is_str_list(ir.loop_ranks):
        return [f"loop_ranks must be a list of rank names, got "
                f"{ir.loop_ranks!r}"]
    if len(set(ir.loop_ranks)) != len(ir.loop_ranks):
        out.append(f"loop_ranks contains duplicates: {ir.loop_ranks}")
    pos = {r: i for i, r in enumerate(ir.loop_ranks)}

    # -- binds: every variable introduced by exactly one rank ----------
    if not isinstance(ir.binds, dict):
        out.append(f"binds must be a dict, got {type(ir.binds).__name__}")
    else:
        if set(ir.binds) != set(ir.loop_ranks):
            out.append(
                f"binds keys {sorted(ir.binds)} != loop ranks "
                f"{sorted(ir.loop_ranks)}")
        seen = {}
        for rank, bound in ir.binds.items():
            if not isinstance(bound, tuple) or not all(
                    isinstance(v, str) for v in bound):
                out.append(f"binds[{rank!r}] must be a tuple of variable "
                           f"names, got {bound!r}")
                continue
            for v in bound:
                if v in seen:
                    out.append(
                        f"variable {v!r} introduced by both rank "
                        f"{seen[v]} and rank {rank}; each variable must "
                        f"be bound exactly once")
                seen[v] = rank
        expected_vars = set(ir.einsum.all_vars)
        if set(seen) != expected_vars:
            missing = sorted(expected_vars - set(seen))
            extra = sorted(set(seen) - expected_vars)
            if missing:
                out.append(f"variable(s) {missing} are never bound by "
                           f"any loop rank")
            if extra:
                out.append(f"bound variable(s) {extra} do not occur in "
                           f"the Einsum")

    # -- co-iteration modes --------------------------------------------
    if not isinstance(ir.modes, dict):
        out.append(f"modes must be a dict, got {type(ir.modes).__name__}")
    else:
        if set(ir.modes) != set(ir.loop_ranks):
            out.append(f"modes keys {sorted(ir.modes)} != loop ranks "
                       f"{sorted(ir.loop_ranks)}")
        for rank, mode in ir.modes.items():
            if mode not in _MODES:
                out.append(f"modes[{rank!r}] is {mode!r}, not one of "
                           f"{_MODES}")

    # -- spacetime: codegen emits a stamp variable per space/time rank -
    for field_name in ("space_ranks", "time_ranks"):
        value = getattr(ir, field_name)
        if not _is_str_list(value):
            out.append(f"{field_name} must be a list of rank names, got "
                       f"{value!r}")
            continue
        unknown = [r for r in value if r not in pos]
        if unknown:
            out.append(f"{field_name} {unknown} are not loop ranks; "
                       f"codegen would reference undefined stamps")
    if _is_str_list(ir.space_ranks) and _is_str_list(ir.time_ranks):
        overlap = sorted(set(ir.space_ranks) & set(ir.time_ranks))
        if overlap:
            out.append(f"rank(s) {overlap} appear in both space_ranks "
                       f"and time_ranks")
    if not isinstance(ir.time_styles, dict):
        out.append(f"time_styles must be a dict, got "
                   f"{type(ir.time_styles).__name__}")
    else:
        for rank, style in ir.time_styles.items():
            if style not in _STAMP_STYLES:
                out.append(f"time_styles[{rank!r}] is {style!r}, not one "
                           f"of {_STAMP_STYLES}")
            if _is_str_list(ir.time_ranks) and rank not in ir.time_ranks:
                out.append(f"time_styles names rank {rank!r} outside "
                           f"time_ranks {ir.time_ranks}")

    # -- per-rank metadata ---------------------------------------------
    for field_name in ("origin", "rank_shapes"):
        value = getattr(ir, field_name)
        if not isinstance(value, dict):
            out.append(f"{field_name} must be a dict, got "
                       f"{type(value).__name__}")
        elif set(value) != set(ir.loop_ranks):
            out.append(f"{field_name} keys {sorted(value)} != loop ranks "
                       f"{sorted(ir.loop_ranks)}")
    if isinstance(ir.origin, dict):
        for rank, orig in ir.origin.items():
            if not isinstance(orig, str) or not orig:
                out.append(f"origin[{rank!r}] must be a rank name, got "
                           f"{orig!r}")
    if isinstance(ir.rank_shapes, dict):
        for rank, shape in ir.rank_shapes.items():
            if shape is not None and not isinstance(shape, int):
                out.append(f"rank_shapes[{rank!r}] must be an int or "
                           f"None, got {shape!r}")

    # -- output plan ---------------------------------------------------
    if not isinstance(ir.output, OutputPlan):
        out.append(f"output must be an OutputPlan, got "
                   f"{type(ir.output).__name__}")
    else:
        out.extend(_output_violations(ir))

    # -- access plans --------------------------------------------------
    if not isinstance(ir.accesses, list) or not all(
            isinstance(p, AccessPlan) for p in ir.accesses):
        out.append("accesses must be a list of AccessPlans")
    else:
        out.extend(_access_violations(ir, pos))

    return out


def _output_violations(ir: LoopNestIR) -> Iterable[str]:
    plan = ir.output
    if not isinstance(plan.tensor, str) or \
            plan.tensor != ir.einsum.output.tensor:
        yield (f"output plan stores tensor {plan.tensor!r} but the "
               f"Einsum produces {ir.einsum.output.tensor!r}")
    if not isinstance(plan.indices, tuple) or not all(
            isinstance(e, IndexExpr) for e in plan.indices):
        yield f"output.indices must be a tuple of IndexExprs"
        return
    if not _is_str_list(plan.storage_ranks):
        yield (f"output.storage_ranks must be a list of rank names, got "
               f"{plan.storage_ranks!r}")
        return
    if len(plan.indices) != len(plan.storage_ranks):
        yield (f"output has {len(plan.indices)} index expression(s) for "
               f"{len(plan.storage_ranks)} storage rank(s)")
    if not _is_str_list(plan.build_ranks):
        yield (f"output.build_ranks must be a list of variable names, "
               f"got {plan.build_ranks!r}")
        return
    storage_vars = [v for e in plan.indices for v in e.vars]
    if isinstance(ir.binds, dict):
        unbound = [v for v in storage_vars
                   if not any(v in (b or ()) for b in ir.binds.values())]
        if unbound:
            yield (f"output variable(s) {unbound} are never bound by a "
                   f"loop rank; the insertion point is unreachable")
    expected_swizzle = plan.build_ranks != storage_vars
    if bool(plan.needs_producer_swizzle) != expected_swizzle:
        yield (f"needs_producer_swizzle is {plan.needs_producer_swizzle} "
               f"but build order {plan.build_ranks} vs storage order "
               f"{storage_vars} implies {expected_swizzle}")


def _access_violations(ir: LoopNestIR, pos) -> Iterable[str]:
    expected = list(accesses(ir.einsum.expr))
    got = [p.access for p in ir.accesses]
    if [a.tensor if isinstance(a, Access) else None for a in got] != \
            [a.tensor for a in expected]:
        yield (f"access plans cover tensors "
               f"{[getattr(a, 'tensor', '?') for a in got]} but the "
               f"expression reads {[a.tensor for a in expected]}")
        return
    flags = _conjunctive_flags(ir.einsum.expr)
    for plan, flag in zip(ir.accesses, flags):
        if bool(plan.conjunctive) != flag:
            yield (f"access {plan.access}: conjunctive flag is "
                   f"{plan.conjunctive} but the expression context "
                   f"implies {flag}")
    bound_vars = set()
    if isinstance(ir.binds, dict):
        for b in ir.binds.values():
            bound_vars.update(b or ())
    for plan in ir.accesses:
        label = f"access {plan.access}"
        if not isinstance(plan.levels, list) or not all(
                isinstance(l, Level) for l in plan.levels):
            yield f"{label}: levels must be a list of Levels"
            continue
        prev_pos = -1
        for level in plan.levels:
            if level.kind not in _LEVEL_KINDS:
                yield (f"{label}: level {level.rank!r} has unknown kind "
                       f"{level.kind!r}")
                continue
            if not isinstance(level.exprs, tuple) or not all(
                    isinstance(e, IndexExpr) for e in level.exprs):
                yield (f"{label}: level {level.rank!r} exprs must be a "
                       f"tuple of IndexExprs")
                continue
            n = len(level.exprs)
            if level.kind == nodes.PLAIN and n != 1:
                yield (f"{label}: plain level {level.rank!r} carries "
                       f"{n} index expression(s), not 1")
            if level.kind == nodes.FLAT and n < 2:
                yield (f"{label}: flat level {level.rank!r} carries "
                       f"{n} component(s); flattening needs at least 2")
            if level.kind in (nodes.UPPER, nodes.FLAT_UPPER,
                              nodes.VIRTUAL) and n != 0:
                yield (f"{label}: {level.kind} level {level.rank!r} "
                       f"must carry no index expressions, has {n}")
            if level.of is None:
                yield (f"{label}: level {level.rank!r} has no origin "
                       f"rank (of=None)")
            for e in level.exprs:
                loose = [v for v in e.vars if v not in bound_vars]
                if loose:
                    yield (f"{label}: level {level.rank!r} indexes with "
                           f"unbound variable(s) {loose}")
            if _literal_level(level):
                continue  # keeps its position relative to the prev level
            if level.rank not in pos:
                yield (f"{label}: level {level.rank!r} is outside the "
                       f"loop ranks {ir.loop_ranks}")
                continue
            here = pos[level.rank]
            if here < prev_pos:
                yield (f"{label}: level {level.rank!r} appears after a "
                       f"deeper loop rank; levels must be concordant "
                       f"with the loop order {ir.loop_ranks}")
            prev_pos = here


def verify_ir(ir) -> None:
    """Raise :class:`IRVerificationError` if ``ir`` is malformed."""
    violations = ir_violations(ir)
    if violations:
        name = ""
        try:
            name = ir.einsum.output.tensor
        except Exception:
            pass
        raise IRVerificationError(violations, name=name)


def verify_cascade_irs(irs) -> None:
    """Verify a whole cascade's IRs (what ``build_cascade_ir`` returns)."""
    if not isinstance(irs, (list, tuple)):
        raise IRVerificationError(
            [f"cascade IRs must be a list, got {type(irs).__name__}"])
    for ir in irs:
        verify_ir(ir)
