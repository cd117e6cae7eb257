"""Code generation: lower loop-nest IR to standalone Python source.

This is the "simulator generator" output stage in the spirit of the paper's
HiFiber backend (section 4.3): the IR becomes a plain Python function whose
nested loops co-iterate fibertrees through a small runtime
(:mod:`repro.ir.codegen_runtime`).  The generated source is readable,
importable, and produces exactly the same outputs as the interpreting
executor (the differential suite in ``tests/ir/test_codegen_differential``
enforces this over every registered accelerator).

Supported: plain/flat/upper levels, eager shape and occupancy splits,
occupancy *followers* (virtual levels with runtime partition windows),
flattening, inferred swizzles, lookups (including chunk search), affine
projection, intersect/union/single co-iteration, take()/Mul/Add leaves,
dense iteration for undriven ranks.  Every mapping the interpreter
supports also compiles; the one remaining restriction is an Einsum that
reads the same tensor twice with *different* preprocessing (the generated
kernel receives one prepared tensor per name).

The kernel this module generates is the **traced** object-cursor kernel
``kernel(tensors, opset, shapes, sink)``: it emits the exact trace-event
stream (reads, writes, intersections, computes, in the same order) as
the interpreter, so the component models price both backends
identically.  Run with a no-op :class:`~repro.model.traces.TraceSink`,
it is also the untraced fallback for the rare Einsum the arena
generator (:mod:`repro.ir.codegen_flat`) rejects.  The arena flavors
(``flat``, ``counted``, ``vector``) reuse this module's helpers and
:func:`compile_ir` entry point.

Backend selection lives in :mod:`repro.model.backend`: ``evaluate(...,
backend="compiled"|"interpreter"|"auto")`` and ``evaluate_many(spec,
workloads, ...)`` pick kernels out of a process-wide compile cache.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ..einsum.ast import Access, Add, Expr, Mul, Take
from .nodes import FLAT, FLAT_UPPER, PLAIN, UPPER, VIRTUAL, LoopNestIR


class CodegenError(NotImplementedError):
    pass


class _Emitter:
    def __init__(self):
        self.lines: List[str] = []
        self.indent = 0

    def emit(self, text: str = "") -> None:
        self.lines.append("    " * self.indent + text if text else "")

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


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


class _Generator:
    """Emits the traced kernel for one lowered Einsum."""

    def __init__(self, ir: LoopNestIR, func_name: str):
        self.ir = ir
        self.func_name = func_name
        self.em = _Emitter()
        self.existential = _existential_ranks(ir)
        self.stamp_ranks = set(ir.time_ranks) | set(ir.space_ranks)
        self.n_ranks = len(ir.loop_ranks)
        self._tmp_count = 0

    # ------------------------------------------------------------------
    def generate(self) -> str:
        ir, em = self.ir, self.em
        preps: Dict[str, tuple] = {}
        for plan in ir.accesses:
            prep = tuple(plan.prep)
            if preps.setdefault(plan.tensor, prep) != prep:
                raise CodegenError(
                    f"tensor {plan.tensor} is accessed twice with different "
                    "preprocessing; use the interpreter"
                )

        em.emit(f"def {self.func_name}(tensors, opset, shapes, sink):")
        em.indent += 1
        em.emit(f'"""Generated (traced) from: {ir.einsum}"""')
        # Cursor roots, one per access (duplicate tensors share a root).
        for i, plan in enumerate(ir.accesses):
            em.emit(f"n{i}_0 = tensors[{plan.tensor!r}].root")
            em.emit(f"h{i}_0 = ()")
        em.emit("out = Fiber()")
        em.emit("ctx = []")
        for rank in sorted(self.stamp_ranks):
            em.emit(f"st_{rank} = 0")
        if self.existential:
            em.emit("wr_0 = False")
        depths = {i: 0 for i in range(len(ir.accesses))}
        # Literal-index levels (e.g. the FFT's P[0, k0, n1, 0]) are bound
        # before any loop runs; advance those cursors up front.
        self._lookups(level=-1, depths=depths)
        self._rank(0, depths, wins={}, guarded=set())
        em.emit(
            "return Tensor("
            f"{ir.output.tensor!r}, {ir.output.storage_ranks!r}, out, "
            f"[shapes.get(r) for r in {ir.output.storage_ranks!r}])"
        )
        em.indent -= 1
        return em.source()

    # ------------------------------------------------------------------
    def _dead_guard(self, depths: Dict[int, int], guarded: Set[str]) -> int:
        """Prune subtrees where a conjunctive access has gone empty.

        Mirrors the interpreter's participant check: an empty conjunctive
        cursor makes the whole subtree ineffectual, so neither outputs nor
        trace events are produced below it.  Returns the indent to close.
        """
        names = []
        for i, plan in enumerate(self.ir.accesses):
            name = f"n{i}_{depths[i]}"
            if plan.conjunctive and depths[i] > 0 and name not in guarded:
                names.append(name)
                guarded.add(name)
        if not names:
            return 0
        cond = " or ".join(f"{n} is None" for n in names)
        self.em.emit(f"if not ({cond}):")
        self.em.indent += 1
        return 1

    # ------------------------------------------------------------------
    def _rank(self, level: int, depths: Dict[int, int],
              wins: Dict[str, str], guarded: Set[str]) -> None:
        ir, em = self.ir, self.em
        if level == self.n_ranks:
            self._leaf(depths)
            return
        rank = ir.loop_ranks[level]
        binds = ir.binds.get(rank, ())

        guarded = set(guarded)
        close = self._dead_guard(depths, guarded)

        drivers: List[Tuple[int, object]] = []
        virtual: List[int] = []
        for i, plan in enumerate(ir.accesses):
            d = depths[i]
            if d < len(plan.levels) and plan.levels[d].rank == rank:
                lvl = plan.levels[d]
                if lvl.kind == VIRTUAL:
                    virtual.append(i)
                elif _drivable(lvl, binds):
                    drivers.append((i, lvl))

        new_depths = dict(depths)
        if not drivers:
            if virtual or rank in _statically_driven(ir):
                raise CodegenError(
                    f"rank {rank} is driven only dynamically; unsupported"
                )
            self._dense(level, rank, binds, new_depths, wins, guarded)
            em.indent -= close
            return

        fiber_exprs = []
        for i, lvl in drivers:
            base = f"n{i}_{depths[i]}"
            if lvl.kind == PLAIN and not lvl.exprs[0].is_var:
                e = lvl.exprs[0]
                bound = [f"v_{v}" for v in e.vars if v != binds[0]]
                offset = " + ".join(bound + [str(e.const)]) or "0"
                origin = ir.origin.get(rank, rank)
                fiber_exprs.append(
                    f"rt.project({base}, -({offset}), shapes[{origin!r}])"
                )
            elif lvl.kind == PLAIN and lvl.exprs[0].is_var and lvl.of in wins:
                # Occupancy follower: restrict to the leader's partition
                # window established at the enclosing split-upper rank.
                fiber_exprs.append(f"rt.window({base}, {wins[lvl.of]})")
            else:
                fiber_exprs.append(base)
            new_depths[i] = depths[i] + 1
        for i in virtual:
            new_depths[i] = depths[i] + 1

        mode = ir.modes.get(rank, "single")
        if len(drivers) == 1:
            i, lvl = drivers[0]
            of = lvl.of or lvl.rank
            trace_arg = (
                f", trace=(sink, {ir.accesses[i].tensor!r}, {of!r}, "
                f"h{i}_{depths[i]}, ctx)"
            )
        else:
            infos = ", ".join(
                f"({ir.accesses[i].tensor!r}, {(lvl.of or lvl.rank)!r}, "
                f"h{i}_{depths[i]})"
                for i, lvl in drivers
            )
            trace_arg = f", trace=(sink, {rank!r}, [{infos}], ctx)"
        if len(drivers) == 1:
            call = f"rt.iterate({fiber_exprs[0]}{trace_arg})"
        elif mode == "union":
            call = f"rt.coiterate_union({', '.join(fiber_exprs)}{trace_arg})"
        else:
            call = (
                f"rt.coiterate_intersect({', '.join(fiber_exprs)}{trace_arg})"
            )

        payloads = ", ".join(f"p{i}" for i, _ in drivers)
        if rank in self.stamp_ranks:
            em.emit(f"for po_{rank}, (c_{rank}, [{payloads}]) "
                    f"in enumerate({call}):")
        else:
            em.emit(f"for c_{rank}, [{payloads}] in {call}:")
        em.indent += 1
        if len(binds) == 1:
            em.emit(f"v_{binds[0]} = c_{rank}")
        elif len(binds) > 1:
            em.emit(f"{', '.join('v_' + v for v in binds)} = c_{rank}")
        if self.existential:
            em.emit(f"wr_{level + 1} = False")

        wins2 = dict(wins)
        for i, lvl in drivers:
            d = depths[i]
            of = lvl.of or lvl.rank
            em.emit(f"if p{i} is not None:")
            em.indent += 1
            em.emit(
                f"sink.read({ir.accesses[i].tensor!r}, {of!r}, "
                f"'payload', h{i}_{d} + (c_{rank},), ctx)"
            )
            em.indent -= 1
            em.emit(f"n{i}_{d + 1} = p{i}")
            em.emit(f"h{i}_{d + 1} = h{i}_{d} + (c_{rank},)")
            if lvl.kind in (UPPER, FLAT_UPPER):
                prev = wins2.get(lvl.of, "None")
                em.emit(f"w_{lvl.of} = rt.window_of(p{i}, {prev})")
                wins2[lvl.of] = f"w_{lvl.of}"
        for i in virtual:
            d = depths[i]
            em.emit(f"n{i}_{d + 1} = n{i}_{d}")
            em.emit(f"h{i}_{d + 1} = h{i}_{d}")
        if rank in self.stamp_ranks:
            style = ir.time_styles.get(rank, "pos")
            src = f"c_{rank}" if style == "coord" else f"po_{rank}"
            em.emit(f"st_{rank} = {src}")
        em.emit(f"ctx.append(({rank!r}, c_{rank}))")
        self._lookups(level, new_depths)
        self._rank(level + 1, new_depths, wins2, guarded)
        em.emit("ctx.pop()")
        self._propagate_wrote(level, rank)
        em.indent -= 1
        em.indent -= close

    # ------------------------------------------------------------------
    def _propagate_wrote(self, level: int, rank: str) -> None:
        if not self.existential:
            return
        em = self.em
        em.emit(f"if wr_{level + 1}:")
        em.indent += 1
        em.emit(f"wr_{level} = True")
        if rank in self.existential:
            em.emit("break")
        em.indent -= 1

    # ------------------------------------------------------------------
    def _dense(self, level: int, rank: str, binds, depths: Dict[int, int],
               wins: Dict[str, str], guarded: Set[str]) -> None:
        ir, em = self.ir, self.em
        if len(binds) != 1:
            raise CodegenError(f"cannot iterate rank {rank} densely")
        origin = ir.origin.get(rank, rank)
        var = binds[0]
        em.emit(f"for v_{var} in range(shapes[{origin!r}]):")
        em.indent += 1
        if self.existential:
            em.emit(f"wr_{level + 1} = False")
        if rank in self.stamp_ranks:
            em.emit(f"st_{rank} = v_{var}")
        em.emit(f"ctx.append(({rank!r}, v_{var}))")
        self._lookups(level, depths)
        self._rank(level + 1, depths, wins, guarded)
        em.emit("ctx.pop()")
        self._propagate_wrote(level, rank)
        em.indent -= 1

    # ------------------------------------------------------------------
    def _lookups(self, level: int, depths: Dict[int, int]) -> None:
        """Advance cursors through levels fully bound after this rank."""
        ir, em = self.ir, self.em
        bound_vars = set()
        for r in ir.loop_ranks[: level + 1]:
            bound_vars.update(ir.binds.get(r, ()))
        for i, plan in enumerate(ir.accesses):
            d = depths[i]
            while d < len(plan.levels):
                lvl = plan.levels[d]
                if lvl.kind == VIRTUAL:
                    break  # virtual levels advance only at their loop rank
                later_rank = lvl.rank in ir.loop_ranks[level + 1:]
                of = lvl.of or lvl.rank
                if lvl.kind in (UPPER, FLAT_UPPER):
                    below = _physical_below(plan, d, lvl.of)
                    if below is None or any(
                        set(e.vars) - bound_vars for e in below.exprs
                    ) or later_rank and _drivable(
                        lvl, ir.binds.get(lvl.rank, ())
                    ):
                        break
                    em.emit(
                        f"n{i}_{d + 1}, h{i}_{d + 1} = rt.lookup_chunk_t("
                        f"n{i}_{d}, {_coord_code(below)}, h{i}_{d}, sink, "
                        f"{plan.tensor!r}, {of!r}, ctx)"
                    )
                    d += 1
                    depths[i] = d
                    continue
                unbound = any(set(e.vars) - bound_vars for e in lvl.exprs)
                if unbound:
                    break
                if later_rank and _drivable(lvl, ir.binds.get(lvl.rank, ())):
                    break  # it will drive its own loop
                em.emit(
                    f"n{i}_{d + 1}, h{i}_{d + 1} = rt.lookup_t("
                    f"n{i}_{d}, {_coord_code(lvl)}, h{i}_{d}, sink, "
                    f"{plan.tensor!r}, {of!r}, ctx)"
                )
                d += 1
                depths[i] = d

    # ------------------------------------------------------------------
    def _leaf(self, depths: Dict[int, int]) -> None:
        ir, em = self.ir, self.em
        em.emit("mu = 0")
        em.emit("ad = 0")
        counter = [0]
        value = self._traced_expr(ir.einsum.expr, depths, counter)
        point = _point_code(ir.output.indices)
        overwrite = "True" if ir.einsum.is_take else "False"
        em.emit(f"if {value} is not None:")
        em.indent += 1
        em.emit(
            f"ad += rt.reduce_into(out, {point}, {value}, opset, {overwrite})"
        )
        ts = "(" + "".join(f"st_{r}, " for r in ir.time_ranks) + ")"
        ss = "(" + "".join(f"st_{r}, " for r in ir.space_ranks) + ")"
        em.emit("if mu:")
        em.indent += 1
        em.emit(f"sink.compute('mul', mu, {ts}, {ss})")
        em.indent -= 1
        em.emit("if ad:")
        em.indent += 1
        em.emit(f"sink.compute('add', ad, {ts}, {ss})")
        em.indent -= 1
        em.emit("if not mu and not ad:")
        em.indent += 1
        em.emit(f"sink.compute('copy', 1, {ts}, {ss})")
        em.indent -= 1
        out_rank = (ir.output.storage_ranks[-1]
                    if ir.output.storage_ranks else "root")
        em.emit(
            f"sink.write({ir.output.tensor!r}, {out_rank!r}, 'elem', "
            f"{point}, ctx)"
        )
        if self.existential:
            em.emit(f"wr_{self.n_ranks} = True")
        em.indent -= 1

    # ------------------------------------------------------------------
    def _tmp(self) -> str:
        self._tmp_count += 1
        return f"t{self._tmp_count}"

    def _traced_expr(self, expr: Expr, depths, counter) -> str:
        """Emit statements computing the leaf value with exact op counts.

        Mirrors the interpreter's ``_evaluate``: sub-expressions are always
        evaluated (their op counts accumulate into ``mu``/``ad``), but a
        combining operation is only counted when it actually executes.
        """
        em = self.em
        if isinstance(expr, Access):
            i = counter[0]
            counter[0] += 1
            v = self._tmp()
            em.emit(f"{v} = rt.scalar(n{i}_{depths[i]})")
            return v
        if isinstance(expr, Mul):
            parts = [self._traced_expr(f, depths, counter)
                     for f in expr.factors]
            v = self._tmp()
            cond = " or ".join(f"{p} is None" for p in parts)
            em.emit(f"if {cond}:")
            em.indent += 1
            em.emit(f"{v} = None")
            em.indent -= 1
            em.emit("else:")
            em.indent += 1
            folded = parts[0]
            for p in parts[1:]:
                folded = f"opset.mul({folded}, {p})"
            em.emit(f"{v} = {folded}")
            em.emit(f"mu += {len(parts) - 1}")
            em.indent -= 1
            return v
        if isinstance(expr, Add):
            left = self._traced_expr(expr.left, depths, counter)
            right = self._traced_expr(expr.right, depths, counter)
            v = self._tmp()
            em.emit(f"if {left} is None and {right} is None:")
            em.indent += 1
            em.emit(f"{v} = None")
            em.indent -= 1
            em.emit(f"elif {right} is None:")
            em.indent += 1
            em.emit(f"{v} = {left}")
            em.indent -= 1
            em.emit(f"elif {left} is None:")
            em.indent += 1
            em.emit(f"{v} = {'None' if expr.negate else right}")
            em.indent -= 1
            em.emit("else:")
            em.indent += 1
            op = "sub" if expr.negate else "add"
            em.emit(f"{v} = opset.{op}({left}, {right})")
            em.emit("ad += 1")
            em.indent -= 1
            return v
        if isinstance(expr, Take):
            args = []
            for _ in expr.args:
                i = counter[0]
                counter[0] += 1
                a = self._tmp()
                em.emit(f"{a} = rt.scalar(n{i}_{depths[i]})")
                args.append(a)
            v = self._tmp()
            cond = " or ".join(f"{a} is None" for a in args)
            em.emit(f"if {cond}:")
            em.indent += 1
            em.emit(f"{v} = None")
            em.indent -= 1
            em.emit("else:")
            em.indent += 1
            em.emit(f"{v} = {args[expr.which]}")
            em.indent -= 1
            return v
        raise CodegenError(f"cannot generate code for {expr!r}")


def generate_source(ir: LoopNestIR, func_name: str = "kernel") -> str:
    """Generate the traced kernel's Python source for one lowered Einsum.

    The generated function has the signature ``kernel(tensors, opset,
    shapes, sink)`` where ``tensors`` maps names to *prepared* tensors
    (rank-order swizzle and prep steps already applied, e.g. via
    :func:`repro.model.executor.prepare_tensor`) and ``sink`` is a
    :class:`~repro.model.traces.TraceSink`; it returns the output
    :class:`~repro.fibertree.tensor.Tensor`.
    """
    return _Generator(ir, func_name).generate()


_PRELUDE = '''"""TeAAL-generated simulator module."""

from bisect import bisect_left as _bl

from repro.fibertree.fiber import Fiber
from repro.fibertree.tensor import Tensor
import repro.ir.codegen_runtime as rt


def _mul(opset, a, b):
    if a is None or b is None:
        return None
    return opset.mul(a, b)


def _add(opset, a, b):
    if a is None:
        return b
    if b is None:
        return a
    return opset.add(a, b)


def _sub(opset, a, b):
    if a is None:
        return None
    if b is None:
        return a
    return opset.sub(a, b)


def _take(args, which):
    if any(a is None for a in args):
        return None
    return args[which]


'''


#: Kernel flavors: the object-cursor "traced" kernel walks boxed fibers;
#: the arena-native kernels ("flat"/"counted"/"vector") walk FlatArena
#: spans (see :mod:`repro.ir.codegen_flat`).  "vector" inlines the
#: buffet/cache component state machines into the arena loops.
KERNEL_FLAVORS = ("traced", "flat", "counted", "vector")


def compile_ir(ir: LoopNestIR, flavor: str, func_name: str = "kernel"):
    """Compile one Einsum's generated source for one kernel flavor (see
    :data:`KERNEL_FLAVORS`); returns ``(function, source)``."""
    if flavor == "traced":
        body = generate_source(ir, func_name)
    elif flavor in ("flat", "counted", "vector"):
        from .codegen_flat import generate_flat_source

        body = generate_flat_source(ir, func_name,
                                    counted=(flavor == "counted"),
                                    vector=(flavor == "vector"))
    else:
        raise ValueError(
            f"unknown kernel flavor {flavor!r}; known: {KERNEL_FLAVORS}"
        )
    source = _PRELUDE + body
    namespace: Dict[str, object] = {}
    exec(compile(source, f"<teaal:{ir.name}:{flavor}>", "exec"), namespace)
    return namespace[func_name], source
