"""Code generation: lower loop-nest IR to standalone Python source.

This is the "simulator generator" output stage in the spirit of the paper's
HiFiber backend (section 4.3): the IR becomes a plain Python function whose
nested loops walk :class:`~repro.fibertree.arena.FlatArena` spans through a
small runtime (:mod:`repro.ir.codegen_runtime`).  The generator itself
lives in :mod:`repro.ir.codegen_flat`; this module holds the pieces every
kernel flavor shares — the :class:`CodegenError` a rejected mapping
raises, the source emitter, the IR-walking helpers, the module prelude —
and the :func:`compile_ir` entry point.  Generated kernels produce exactly
the same outputs and metrics as the interpreting executor, which is also
the only engine that emits per-event trace streams (the differential
suite in ``tests/ir/test_codegen_differential`` enforces this over every
registered accelerator).

Supported: plain/flat/upper levels, eager shape and occupancy splits,
occupancy *followers* (virtual levels with runtime partition windows),
flattening, inferred swizzles, lookups (including chunk search), affine
projection, intersect/union/single co-iteration, take()/Mul/Add leaves,
dense iteration for undriven ranks.  An Einsum that reads the same tensor
twice with *different* preprocessing is rejected (the generated kernel
receives one prepared tensor per name); such a spec runs on the
interpreter.

Backend selection lives in :mod:`repro.model.backend`: ``evaluate(...,
backend="compiled"|"interpreter"|"auto")`` and ``evaluate_many(spec,
workloads, ...)`` pick kernels out of a process-wide compile cache.  A
priced run picks, per Einsum, the port-free ``counted`` kernel when the
binding routes nothing to a buffer or cache and the ported ``vector``
kernel otherwise (see :data:`KERNEL_FLAVORS`).
"""

from __future__ import annotations

from typing import Dict, List, Set

from .nodes import FLAT, FLAT_UPPER, PLAIN, UPPER, VIRTUAL, LoopNestIR


class CodegenError(NotImplementedError):
    pass


class _Emitter:
    def __init__(self):
        self.lines: List[str] = []
        self.indent = 0

    def emit(self, text: str = "") -> None:
        self.lines.append("    " * self.indent + text if text else "")


def _expr_code(e) -> str:
    """Python expression computing an IndexExpr from bound loop variables."""
    parts = [f"v_{v}" for v in e.vars]
    if e.const or not parts:
        parts.append(str(e.const))
    return " + ".join(parts)


def _coord_code(lvl) -> str:
    if lvl.kind == FLAT or len(lvl.exprs) > 1:
        return "(" + ", ".join(_expr_code(e) for e in lvl.exprs) + ")"
    return _expr_code(lvl.exprs[0])


def _point_code(exprs) -> str:
    parts = [_expr_code(e) for e in exprs]
    if not parts:
        return "()"
    return "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"


def _physical_below(plan, depth, of):
    for lvl in plan.levels[depth + 1:]:
        if lvl.of == of and lvl.kind in (PLAIN, FLAT):
            return lvl
    return None


def _drivable(lvl, binds) -> bool:
    if lvl.kind == VIRTUAL:
        return False
    if lvl.kind in (UPPER, FLAT_UPPER):
        return True
    if lvl.kind == FLAT:
        return tuple(v for e in lvl.exprs for v in e.vars) == binds
    expr = lvl.exprs[0]
    if expr.is_var:
        return binds == expr.vars
    return len(binds) == 1 and binds[0] in expr.vars and expr.vars


def _statically_driven(ir) -> set:
    out = set()
    for plan in ir.accesses:
        for lvl in plan.levels:
            if lvl.kind != VIRTUAL and _drivable(
                lvl, ir.binds.get(lvl.rank, ())
            ):
                out.add(lvl.rank)
    return out


def _existential_ranks(ir: LoopNestIR) -> Set[str]:
    """Ranks that only gate a take() output: the first match suffices."""
    out: Set[str] = set()
    if ir.einsum.is_take:
        out_vars = set(ir.einsum.output.index_vars)
        kept = set(ir.einsum.expr.args[ir.einsum.expr.which].index_vars)
        for rank in ir.loop_ranks:
            binds = set(ir.binds.get(rank, ()))
            if binds and not (binds & (out_vars | kept)):
                out.add(rank)
    return out


_PRELUDE = '''"""TeAAL-generated simulator module."""

from bisect import bisect_left as _bl

from repro.fibertree.tensor import Tensor
import repro.ir.codegen_runtime as rt


'''


#: Kernel flavors, all generated by :mod:`repro.ir.codegen_flat` over
#: FlatArena spans: "flat" computes outputs only; "counted" is the priced
#: kernel (fused event counters plus batched numpy spans) without machine
#: ports, for an Einsum whose binding routes nothing to a buffer or
#: cache; "vector" is the same priced kernel behind per-touch ports,
#: whose buffet/cache touches are appended to the machines' int logs
#: and priced once the kernel returns.
KERNEL_FLAVORS = ("flat", "counted", "vector")


def compile_ir(ir: LoopNestIR, flavor: str, func_name: str = "kernel"):
    """Compile one Einsum's generated source for one kernel flavor (see
    :data:`KERNEL_FLAVORS`); returns ``(function, source)``."""
    if flavor not in KERNEL_FLAVORS:
        raise ValueError(
            f"unknown kernel flavor {flavor!r}; known: {KERNEL_FLAVORS}"
        )
    from .codegen_flat import generate_flat_source

    body = generate_flat_source(ir, func_name,
                                priced=(flavor != "flat"),
                                ports=(flavor == "vector"))
    source = _PRELUDE + body
    namespace: Dict[str, object] = {}
    exec(compile(source, f"<teaal:{ir.name}:{flavor}>", "exec"), namespace)
    return namespace[func_name], source
