"""Flat code generation: loop nests over arena spans instead of fibers.

The interpreter (:mod:`repro.model.executor`) walks boxed
:class:`~repro.fibertree.fiber.Fiber` objects.  This module lowers the
*same* IR to generated kernels that operate natively on
:class:`~repro.fibertree.arena.FlatArena` buffers: every cursor is a
half-open position span ``[lo, hi)`` into one level's flat coordinate
array, iteration is ``for p in range(lo, hi)``, descent is two segment
loads, and two-way intersection is an inlined galloping merge on the raw
coordinate buffers — no generators, no per-element payload lists, no
``Fiber`` allocation for windows, slices, or projections.  Outputs skip
boxed fibers too: every leaf reduces into ``_acc``, a dict keyed by the
output point, and the kernel returns one
:class:`~repro.fibertree.tensor.Tensor` built from its sorted points with
zero sums dropped (:meth:`~repro.fibertree.tensor.Tensor.from_points`).
The priced flavors record the point count, zeros included, as
``kc.out_points`` — what a producer-side swizzle sorts.

One generator emits three flavors, specialized at generation time on two
facts — is the kernel priced, and does it carry machine ports:

* **flat** ``kernel(arenas, opset, shapes)`` — the untraced fast path.
  With no visit counts to keep, it has two loop forms of its own.  An
  innermost two-way intersection whose one driver is fixed across the
  enclosing loop has a position-map branch
  (:meth:`_FlatGenerator._pmap_plan`): a ``{coordinate: position}`` map
  of the fixed span, built once per distinct span, is probed by each
  element of the moving span, in place of a gallop through the fixed
  span on every iteration of the enclosing loop.  A per-span guard takes
  it when the moving span is at most ``PMAP_RATIO`` times as long as the
  fixed one, and keeps the merge otherwise.  A two-way union merges
  inline (:meth:`_FlatGenerator._open_union2`) rather than through the
  :func:`~repro.ir.codegen_runtime.flat_union` generator, which stays
  for three or more inputs and for the priced flavors.  Both yield the
  merge's matches in the merge's order, so outputs are unchanged;
* **counted** ``kernel(arenas, opset, shapes, kc)`` — the priced kernel
  without machine ports, for an Einsum whose binding routes nothing to a
  buffer or cache.  Instead of one
  :class:`~repro.model.traces.TraceSink` method call per touched
  element, the kernel bumps local integer tallies (per (tensor, rank,
  kind) reads/writes, per-rank intersection statistics, per-op compute
  counts with their time stamps) and flushes them into a
  :class:`~repro.model.traces.KernelCounters` once at the end.  The
  tallies equal, exactly, the aggregates of the interpreter's event
  stream — including the subtle cases: lookup misses still count a
  coordinate read, abandoned co-iterations (existential ``take()``
  short-circuits) keep their partial visit counts but drop the final
  ``isect`` event, and ineffectual leaves price nothing.  Eligible
  innermost-rank spans are priced through batched numpy primitives and
  record their time stamps as one span entry — the fixed part plus the
  innermost slot's values, a ``range`` of loop positions or a numpy
  column of coordinates (see :mod:`repro.model.stamps`);
  per-span runtime guards fall back to the inline scalar loop, so
  results never depend on which path ran.  A merge leaf whose one
  input is fixed across the enclosing loop intersects it with all of
  that loop's sibling spans at once (:meth:`_FlatGenerator._sibling_plan`).
* **vector** ``kernel(arenas, opset, shapes, kc, fm)`` — the same priced
  kernel plus machine ports: the buffet/cache component state machines
  inlined into the loops.  The kernel tracks coordinate paths (``h``
  vars) and loop-context prefixes (``cx`` vars) exactly as the
  interpreter does, and at every touch site consults a *port* bound once
  at entry from ``fm`` (a :class:`repro.model.evaluate.FusedMachines`
  routing plan built from the binding spec at run time — the generated
  code itself stays binding-independent, so vector kernels share the
  same compile-cache entry across binding variations).  A ``None`` port
  means the touch falls through to DRAM and bumps the counter; a live
  port is a :class:`~repro.ir.codegen_runtime.FusedBuffet` /
  :class:`~repro.ir.codegen_runtime.FusedCache` state machine receiving
  the same (key, evict-window) sequence the interpreter's
  :class:`~repro.model.evaluate.ModelSink` would deliver.  Only this
  flavor pays for the port checks, path and context tuples.

  An innermost loop of this flavor has up to three branches.  The
  numpy branch prices a long enough reduction span as the counted
  flavor does, feeding each machine one span call.  The batched leaf
  (:meth:`_FlatGenerator._batch_leaf_plan`) runs the counted flavor's
  port-free loop, with a count of the output writes (or, when the output
  point varies with the loop, the written points), and then makes one
  span call per port: ``read_span``/``pair_extra`` for each driver and
  ``write_run``/``write_keys`` for the output.  It runs when a guard bound
  once at kernel entry (:func:`~repro.ir.codegen_runtime.batch_ok`) says
  each machine sees one access and the output window is fixed across
  the loop, so that every machine still receives its own exact event
  sequence.  Otherwise the per-event loop runs, one machine call per
  touch.

The walk order, the guard structure, and every membership decision
follow the interpreter's, so the differential suite can hold every
kernel (flat, counted and vector) to the interpreter's outputs and
metrics.  All three flavors share one leaf emitter: the leaf value
inlines the interpreter's None-semantics (an absent operand makes a
product absent; a sum keeps the present side), and only priced kernels
add the op tallies and the output-write counter around it.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ..einsum.ast import Access, Add, Expr, Mul, Take
from .nodes import FLAT_UPPER, PLAIN, UPPER, VIRTUAL, LoopNestIR
from .codegen import (
    CodegenError,
    _coord_code,
    _drivable,
    _Emitter,
    _existential_ranks,
    _physical_below,
    _point_code,
    _statically_driven,
)


class _FlatGenerator:
    """Emits one arena-native kernel (flat, counted, or vector)
    for one Einsum."""

    def __init__(self, ir: LoopNestIR, func_name: str, priced: bool,
                 ports: bool):
        self.ir = ir
        self.func_name = func_name
        self.ported = ports
        self.priced = priced = priced or ports
        self.em = _Emitter()  # body emitter (swapped in during generate)
        self.existential = _existential_ranks(ir)
        self.stamp_ranks = set(ir.time_ranks) if priced else set()
        self.n_ranks = len(ir.loop_ranks)
        self._tmp_count = 0
        # Arena geometry per access: number of physical levels, and the
        # arena level each plan depth sits on (virtual levels add no
        # arena level).
        self.n_phys: List[int] = []
        self.level_at: List[List[int]] = []
        for plan in ir.accesses:
            at = [0]
            for lvl in plan.levels:
                at.append(at[-1] + (1 if lvl.is_physical else 0))
            self.level_at.append(at)
            self.n_phys.append(at[-1])
        # Counter bookkeeping (priced kernels only).
        self.read_ctrs: Dict[Tuple[str, str, str], str] = {}
        self.write_ctrs: Dict[Tuple[str, str, str], str] = {}
        self.isect_ranks: List[str] = []
        # Component-machine ports (ported kernels): one per touched
        # (tensor, rank, kind) triple, bound from ``fm`` at kernel entry.
        self.ports: Dict[Tuple[str, str, str], str] = {}
        # Pair dispatchers: the bound ``read2`` of a machine that claims
        # both the coord and the payload port of one (tensor, rank) —
        # the back-to-back event pair every present element emits.
        self.pairs: Dict[Tuple[str, str], str] = {}
        # Numpy leaf buffers the vector branches consume (populated
        # during body generation; the head binds them afterwards).
        self.vec_coords: Set[Tuple[int, int]] = set()
        self.vec_vals: Set[int] = set()
        # Loop-invariant halves of the vector-leaf guards, evaluated
        # once at kernel entry: (var, condition).
        self.vec_guards: List[Tuple[str, str]] = []
        # Per sibling-batched leaf, its SiblingMap constructor (bound
        # once at kernel entry as ``_sm<g>``).
        self.sib_maps: List[str] = []
        # Per batched leaf (vector flavor), its machine guard, bound once
        # at kernel entry after the ports: (var, condition).
        self.batch_guards: List[Tuple[str, str]] = []
        # The plan of the batched leaf whose loop is being emitted: its
        # driver reads are accounted after the loop, not per element.
        self.batching = None
        # Position-map leaves (flat flavor): how many, each memoizing its
        # map on the fixed span as ``pk<g>``/``pm<g>``.
        self.pmaps = 0

    # ------------------------------------------------------------------
    # Cursor helpers
    # ------------------------------------------------------------------
    def _al(self, i: int, d: int) -> int:
        """Arena level of access ``i``'s cursor at plan depth ``d``."""
        return self.level_at[i][d]

    def _is_scalar(self, i: int, d: int) -> bool:
        return self._al(i, d) == self.n_phys[i]

    def _cur_none_check(self, i: int, d: int) -> str:
        if self._is_scalar(i, d):
            return f"n{i}_{d}"
        return f"n{i}_{d}a"

    def _absent(self, i: int, d: int) -> None:
        """Set access ``i``'s cursor at depth ``d`` to absent."""
        if self._is_scalar(i, d):
            self.em.emit(f"n{i}_{d} = None")
        else:
            self.em.emit(f"n{i}_{d}a = None")
            self.em.emit(f"n{i}_{d}b = None")
        if self.ported:
            # Keep the path var defined along absent branches; no event
            # below an absent cursor ever reads it, so the value is moot.
            self.em.emit(f"h{i}_{d} = ()")

    def _descend(self, i: int, d: int, pos: str) -> None:
        """Descend access ``i`` from depth ``d`` via element position ``pos``."""
        child = self._al(i, d) + 1
        if child == self.n_phys[i]:
            self.em.emit(f"n{i}_{d + 1} = t{i}_v[{pos}]")
        else:
            self.em.emit(f"n{i}_{d + 1}a = t{i}_s{child}[{pos}]")
            self.em.emit(f"n{i}_{d + 1}b = t{i}_s{child}[{pos} + 1]")

    def _copy(self, i: int, d: int) -> None:
        """Copy the cursor past a virtual level (depth d -> d+1)."""
        if self._is_scalar(i, d):
            self.em.emit(f"n{i}_{d + 1} = n{i}_{d}")
        else:
            self.em.emit(f"n{i}_{d + 1}a = n{i}_{d}a")
            self.em.emit(f"n{i}_{d + 1}b = n{i}_{d}b")
        if self.ported:
            self.em.emit(f"h{i}_{d + 1} = h{i}_{d}")

    # ------------------------------------------------------------------
    # Counter/port helpers (priced kernels; no-ops for flat)
    # ------------------------------------------------------------------
    def _rctr(self, tensor: str, of: str, kind: str) -> str:
        key = (tensor, of, kind)
        var = self.read_ctrs.get(key)
        if var is None:
            var = f"cr{len(self.read_ctrs)}"
            self.read_ctrs[key] = var
        return var

    def _wctr(self, tensor: str, of: str, kind: str) -> str:
        key = (tensor, of, kind)
        var = self.write_ctrs.get(key)
        if var is None:
            var = f"cw{len(self.write_ctrs)}"
            self.write_ctrs[key] = var
        return var

    def _port(self, tensor: str, of: str, kind: str) -> str:
        key = (tensor, of, kind)
        var = self.ports.get(key)
        if var is None:
            var = f"mp{len(self.ports)}"
            self.ports[key] = var
        return var

    def _pair(self, tensor: str, of: str) -> str:
        key = (tensor, of)
        var = self.pairs.get(key)
        if var is None:
            self._port(tensor, of, "coord")
            self._port(tensor, of, "payload")
            var = f"pp{len(self.pairs)}"
            self.pairs[key] = var
        return var

    def _deferrable(self, i: int) -> bool:
        """Can access ``i``'s driver coord read defer to the payload site?

        Safe when no other access shares the tensor: with one access,
        nothing can slip between the coord and payload events of one
        element on their shared machine, so dispatching the pair together
        preserves the machine's exact event order.  (Lookup sites are
        straight-line and always safe — they don't consult this.)
        """
        tensor = self.ir.accesses[i].tensor
        return sum(1 for p in self.ir.accesses if p.tensor == tensor) == 1

    def _emit_pair_read(self, i: int, of: str, key: str, cx: str) -> None:
        """The coord+payload event pair of one present element.

        One ``read2`` call when a single machine claims both ports, the
        exact two-dispatch sequence otherwise.  The coord *counter* case
        is handled at the original coord site (counters are
        order-insensitive), so here a ``None`` coord port means no-op.
        The port-free kernel bumps the payload counter alone.
        """
        if not self.ported:
            self._bump_read(i, of, "payload")
            return
        em = self.em
        tensor = self.ir.accesses[i].tensor
        pc = self._port(tensor, of, "coord")
        pair = self._pair(tensor, of)
        em.emit(f"if {pair} is not None:")
        em.indent += 1
        em.emit(f"{pair}({of!r}, {key}, {cx})")
        em.indent -= 1
        em.emit("else:")
        em.indent += 1
        em.emit(f"if {pc}r is not None:")
        em.indent += 1
        em.emit(f"{pc}r({of!r}, {key}, {cx})")
        em.indent -= 1
        self._emit_read(i, of, "payload", key, cx)
        em.indent -= 1

    def _routed(self, key: Tuple[str, str, str], bump: str,
                dispatch=None) -> None:
        """One touch site: the counter ``bump`` when the touch routes to
        DRAM, else ``dispatch(port)`` emits the machine call (nothing
        when ``dispatch`` is None — the machine side fires elsewhere).
        The port-free kernel emits the bump alone."""
        em = self.em
        if not self.ported:
            em.emit(bump)
            return
        port = self._port(*key)
        em.emit(f"if {port} is None:")
        em.indent += 1
        em.emit(bump)
        em.indent -= 1
        if dispatch is not None:
            em.emit("else:")
            em.indent += 1
            dispatch(port)
            em.indent -= 1

    def _bump_read(self, i: int, of: str, kind: str, amount: str = "1",
                   dispatch=None) -> None:
        """Tally ``amount`` DRAM-routed read events of access ``i``; see
        :meth:`_routed` for ``dispatch``."""
        if self.priced and self.batching is None:
            key = (self.ir.accesses[i].tensor, of, kind)
            self._routed(key, f"{self._rctr(*key)} += {amount}", dispatch)

    def _emit_read(self, i: int, of: str, kind: str, key: str = None,
                   cx: str = None) -> None:
        """One read event: counter bump, or machine dispatch when ported.

        ``key`` is the Python expression of the event's coordinate path
        (the interpreter's cursor path + coord), ``cx`` the loop-context
        prefix var; both are only evaluated on the machine branch.
        """
        self._bump_read(i, of, kind, dispatch=lambda port: self.em.emit(
            f"{port}r({of!r}, {key}, {cx})"))

    # ------------------------------------------------------------------
    def generate(self) -> str:
        ir = self.ir
        preps: Dict[str, tuple] = {}
        for plan in ir.accesses:
            prep = tuple(plan.prep)
            if preps.setdefault(plan.tensor, prep) != prep:
                raise CodegenError(
                    f"tensor {plan.tensor} is accessed twice with different "
                    "preprocessing; use the interpreter"
                )
        for i, n in enumerate(self.n_phys):
            if n == 0:
                raise CodegenError(
                    f"access {ir.accesses[i].tensor} has no physical levels; "
                    "flat kernels need at least one"
                )

        body = _Emitter()
        body.indent = 1
        self.em = body
        depths = {i: 0 for i in range(len(ir.accesses))}
        self._lookups(level=-1, depths=depths)
        self._rank(0, depths, wins={}, guarded=set())

        head = _Emitter()
        args = "arenas, opset, shapes"
        flavor = "flat"
        if self.priced:
            args += ", kc"
            flavor = "counted"
        if self.ported:
            args += ", fm"
            flavor = "vector"
        head.emit(f"def {self.func_name}({args}):")
        head.indent += 1
        head.emit(f'"""Generated ({flavor}, arena-native) from: {ir.einsum}"""')
        for i, plan in enumerate(ir.accesses):
            n = self.n_phys[i]
            head.emit(f"_a{i} = arenas[{plan.tensor!r}]")
            # Scalar loops bind the memoized Python-list views: CPython
            # indexes lists faster than any array type, and list items
            # are exactly the Python ints/floats the interpreter sees.
            head.emit(f"_ac{i}, _as{i}, _av{i} = _a{i}.scalar_buffers()")
            for L in range(n):
                head.emit(f"t{i}_c{L} = _ac{i}[{L}]")
            for L in range(1, n):
                head.emit(f"t{i}_s{L} = _as{i}[{L}]")
                head.emit(f"t{i}_r{L} = _a{i}.ranges[{L}]")
            head.emit(f"t{i}_v = _av{i}")
            # Vector leaves read the numpy buffers directly (None when a
            # level fell back to list storage — the generated guard then
            # keeps that leaf on the scalar path).
            for (j, L) in sorted(self.vec_coords):
                if j == i:
                    head.emit(f"t{i}_cn{L} = _a{i}.np_coords({L})")
            if i in self.vec_vals:
                head.emit(f"t{i}_vn = _a{i}.np_vals()")
            head.emit(f"n{i}_0a = 0")
            head.emit(f"n{i}_0b = len(t{i}_c0)")
            if self.ported:
                head.emit(f"h{i}_0 = ()")
        if self.pmaps:
            head.emit("_pmr = rt.PMAP_RATIO")
            for g in range(self.pmaps):
                head.emit(f"pk{g} = None")
        if self.vec_guards:
            head.emit("_vk = rt.vec_ok(opset)")
            head.emit("_vmin = rt.VLEAF_MIN")
            for var, cond in self.vec_guards:
                head.emit(f"{var} = {cond}")
            for g, make in enumerate(self.sib_maps):
                head.emit(f"_sm{g} = {make}")
                head.emit(f"vk{g} = None")
        head.emit("_acc = {}")
        if self.ported:
            head.emit("cx0 = ()")
            for (tensor, of, kind), var in self.ports.items():
                head.emit(f"{var} = fm.port({tensor!r}, {of!r}, {kind!r})")
                head.emit(f"{var}r = None if {var} is None else {var}.read")
                head.emit(f"{var}w = None if {var} is None else {var}.write")
            for (tensor, of), var in self.pairs.items():
                pc = self.ports[(tensor, of, "coord")]
                pp = self.ports[(tensor, of, "payload")]
                head.emit(
                    f"{var} = {pc}.read2 if ({pc} is not None and "
                    f"{pc} is {pp}) else None"
                )
            for var, cond in self.batch_guards:
                head.emit(f"{var} = {cond}")
        if self.priced:
            for var in self.read_ctrs.values():
                head.emit(f"{var} = 0")
            for var in self.write_ctrs.values():
                head.emit(f"{var} = 0")
            for rank in self.isect_ranks:
                head.emit(f"iv_{rank} = 0")
                head.emit(f"im_{rank} = 0")
            for op in ("mul", "add", "copy"):
                head.emit(f"cn_{op} = 0")
                head.emit(f"cs_{op} = set()")
                head.emit(f"cv_{op} = []")
            for rank in sorted(self.stamp_ranks):
                head.emit(f"st_{rank} = 0")
        if self.existential:
            head.emit("wr_0 = False")

        tail = _Emitter()
        tail.indent = 1
        if self.priced:
            for (tensor, of, kind), var in self.read_ctrs.items():
                tail.emit(
                    f"kc.add_read({tensor!r}, {of!r}, {kind!r}, {var})"
                )
            for (tensor, of, kind), var in self.write_ctrs.items():
                tail.emit(
                    f"kc.add_write({tensor!r}, {of!r}, {kind!r}, {var})"
                )
            for rank in self.isect_ranks:
                tail.emit(f"kc.add_isect({rank!r}, iv_{rank}, im_{rank})")
            for op in ("mul", "add", "copy"):
                tail.emit(
                    f"kc.add_compute({op!r}, cn_{op}, cs_{op}, cv_{op})"
                )
            tail.emit("kc.out_points = len(_acc)")
        tail.emit(
            "return Tensor.from_points("
            f"{ir.output.tensor!r}, {ir.output.storage_ranks!r}, _acc, "
            f"[shapes.get(r) for r in {ir.output.storage_ranks!r}])"
        )
        return "\n".join(head.lines + body.lines + tail.lines) + "\n"

    # ------------------------------------------------------------------
    def _dead_guard(self, depths: Dict[int, int], guarded: Set[str]) -> int:
        names = []
        for i, plan in enumerate(self.ir.accesses):
            if plan.conjunctive and depths[i] > 0:
                name = self._cur_none_check(i, depths[i])
                if name not in guarded:
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
              wins: Dict[str, str], guarded: Set[str],
              enc: dict = None) -> None:
        """Emit rank ``level`` and everything below it.  ``enc`` describes
        the enclosing loop, if any: the cursor depths and variables
        before it, and its ``spec`` when it has one PLAIN driver (see
        :meth:`_fixed_across` and :meth:`_sibling_plan`)."""
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

        # Narrow each driver's span (projection / follower window) into
        # fresh q-vars; record (i, lvl, arena level, depth, lo, hi, offset).
        specs = []
        for i, lvl in drivers:
            d = depths[i]
            L = self._al(i, d)
            a, b = f"n{i}_{d}a", f"n{i}_{d}b"
            off = None
            if lvl.kind == PLAIN and not lvl.exprs[0].is_var:
                e = lvl.exprs[0]
                bound = [f"v_{v}" for v in e.vars if v != binds[0]]
                offset = " + ".join(bound + [str(e.const)]) or "0"
                origin = ir.origin.get(rank, rank)
                em.emit(f"o{i}_{d} = -({offset})")
                em.emit(
                    f"q{i}_{d}a, q{i}_{d}b = rt.project_span(t{i}_c{L}, "
                    f"{a}, {b}, o{i}_{d}, shapes[{origin!r}])"
                )
                a, b, off = f"q{i}_{d}a", f"q{i}_{d}b", f"o{i}_{d}"
            elif lvl.kind == PLAIN and lvl.exprs[0].is_var and lvl.of in wins:
                em.emit(
                    f"q{i}_{d}a, q{i}_{d}b = rt.window_span(t{i}_c{L}, "
                    f"{a}, {b}, {wins[lvl.of]})"
                )
                a, b = f"q{i}_{d}a", f"q{i}_{d}b"
            specs.append((i, lvl, L, d, a, b, off))
            new_depths[i] = depths[i] + 1
        for i in virtual:
            new_depths[i] = depths[i] + 1

        mode = ir.modes.get(rank, "single")
        stamped = rank in self.stamp_ranks
        if stamped:
            em.emit(f"po_{rank} = -1")

        vec = self._vector_leaf_plan(rank, level, mode, specs, virtual,
                                     binds, new_depths, enc)
        if vec is not None:
            self._emit_vector_leaf(rank, level, vec)
        batch = self._batch_leaf_plan(level, mode, specs, virtual, binds,
                                      new_depths)
        if batch is not None:
            self._emit_batch_leaf(rank, level, mode, specs, binds, depths,
                                  new_depths, wins, guarded, batch,
                                  "elif" if vec is not None else "if")
        pmap = self._pmap_plan(level, mode, specs, enc)
        if pmap is not None:
            self._emit_pmap_leaf(rank, level, mode, specs, virtual, binds,
                                 depths, new_depths, wins, guarded, pmap)
        branched = vec is not None or batch is not None or pmap is not None
        if branched:
            em.emit("else:")
            em.indent += 1
        self._emit_loop(rank, level, mode, specs, virtual, binds, depths,
                        dict(new_depths), wins, guarded)
        if branched:
            em.indent -= 1
        em.indent -= close

    def _emit_loop(self, rank: str, level: int, mode: str, specs, virtual,
                   binds, depths: Dict[int, int], new_depths: Dict[int, int],
                   wins: Dict[str, str], guarded: Set[str],
                   pmap: dict = None) -> None:
        """One rank's loop: the opener, the shared loop body, everything
        below it, and the close.  ``new_depths`` is the cursor depths
        inside the loop (the in-loop lookups advance it in place).
        ``pmap`` swaps the merge opener for a position-map walk (see
        :meth:`_emit_pmap_leaf`)."""
        ir, em = self.ir, self.em
        stamped = rank in self.stamp_ranks
        if pmap is not None:
            opened = self._open_pmap(rank, specs, pmap)
        elif len(specs) == 1:
            opened = self._open_single(rank, level, specs[0])
        elif self._merges2(mode, specs):
            opened = self._open_merge2(rank, level, specs)
        else:
            opened = self._open_kway(rank, level, mode, specs)

        # ---- shared loop body -----------------------------------------
        if stamped:
            em.emit(f"po_{rank} += 1")
        if len(binds) == 1:
            em.emit(f"v_{binds[0]} = c_{rank}")
        elif len(binds) > 1:
            em.emit(f"{', '.join('v_' + v for v in binds)} = c_{rank}")
        if self.existential:
            em.emit(f"wr_{level + 1} = False")

        wins2 = dict(wins)
        for j, (i, lvl, L, d, a, b, off) in enumerate(specs):
            of = lvl.of or lvl.rank
            pos = f"p{i}_{d}"
            if self.ported:
                # The path extends unconditionally (the absent k-way
                # branch included); only present cursors ever read it,
                # so the value below absent cursors is irrelevant — but
                # it must be defined.
                em.emit(f"h{i}_{d + 1} = h{i}_{d} + (c_{rank},)")
            if opened["kway"]:
                if opened["kind"] == "kway":
                    em.emit(f"{pos} = ps_{rank}[{j}]")
                em.emit(f"if {pos} >= 0:")
                em.indent += 1
            if not opened["kway"] and self._deferrable(i):
                # The opener deferred this driver's machine coord read
                # to here; fire the coord+payload pair together.
                self._emit_pair_read(i, of, key=f"h{i}_{d + 1}",
                                     cx=f"cx{level}")
            else:
                self._emit_read(i, of, "payload", key=f"h{i}_{d + 1}",
                                cx=f"cx{level}")
            self._descend(i, d, pos)
            if lvl.kind in (UPPER, FLAT_UPPER):
                prev = wins2.get(lvl.of, "None")
                if opened["kway"]:
                    em.emit(f"w_{lvl.of} = t{i}_r{L + 1}[{pos}]")
                    em.indent -= 1
                    em.emit("else:")
                    em.indent += 1
                    self._absent(i, d + 1)
                    em.emit(f"w_{lvl.of} = {prev}")
                    em.indent -= 1
                else:
                    em.emit(f"w_{lvl.of} = t{i}_r{L + 1}[{pos}]")
                wins2[lvl.of] = f"w_{lvl.of}"
            elif opened["kway"]:
                em.indent -= 1
                em.emit("else:")
                em.indent += 1
                self._absent(i, d + 1)
                em.indent -= 1
        for i in virtual:
            self._copy(i, depths[i])
        if stamped:
            style = ir.time_styles.get(rank, "pos")
            src = f"c_{rank}" if style == "coord" else f"po_{rank}"
            em.emit(f"st_{rank} = {src}")
        if self.ported:
            # The loop-context prefix: what the interpreter's live
            # loop context holds once this rank binds ``c``.
            em.emit(f"cx{level + 1} = cx{level} + (({rank!r}, c_{rank}),)")
        self._lookups(level, new_depths)
        inner = {"depths": dict(depths), "binds": binds}
        if opened["kind"] == "single" and not virtual and \
                specs[0][1].kind == PLAIN:
            inner["spec"] = specs[0]
        self._rank(level + 1, new_depths, wins2, guarded, inner)
        self._propagate_wrote(level, rank)
        self._close_loop(rank, level, opened, specs)

    # ------------------------------------------------------------------
    # Loop openers: each returns a dict describing how to close the loop.
    # On return the emitter sits *inside* the loop body, right after the
    # ``c_<rank>`` coordinate has been bound, with ``p<i>_<d>`` position
    # vars bound for inline forms.
    # ------------------------------------------------------------------
    def _open_single(self, rank: str, level: int, spec) -> dict:
        em = self.em
        i, lvl, L, d, a, b, off = spec
        pos = f"p{i}_{d}"
        guard = 0
        if not self.ir.accesses[i].conjunctive:
            em.emit(f"if {a} is not None:")
            em.indent += 1
            guard = 1
        em.emit(f"for {pos} in range({a}, {b}):")
        em.indent += 1
        coord = f"t{i}_c{L}[{pos}]"
        if off:
            coord = f"{coord} + {off}"
        em.emit(f"c_{rank} = {coord}")
        if self._deferrable(i):
            self._bump_read(i, (lvl.of or lvl.rank), "coord")
        else:
            self._emit_read(i, (lvl.of or lvl.rank), "coord",
                            key=f"h{i}_{d} + (c_{rank},)", cx=f"cx{level}")
        return {"kind": "single", "kway": False, "guard": guard}

    def _merges2(self, mode: str, specs) -> bool:
        """Does a loop over ``specs`` open as an inline two-way
        intersection (:meth:`_open_merge2`)?"""
        return len(specs) == 2 and mode != "union" and all(
            self.ir.accesses[s[0]].conjunctive for s in specs)

    def _pmap_plan(self, level: int, mode: str, specs, enc: dict):
        """A position-map leaf for this rank (flat flavor), or ``None``.

        It applies to an innermost two-way intersection whose one driver
        is fixed across the enclosing loop (:meth:`_fixed_across`) while
        the other moves: a map of the fixed span's coordinates to their
        positions, built once per distinct fixed span, lets the moving
        driver's span find its matches by lookup instead of galloping
        through the fixed span on every iteration of the enclosing loop.
        The matches, and so the outputs and their order, are the merge's:
        flat kernels carry no visit counts that could tell them apart.
        """
        if self.priced or enc is None or level != self.n_ranks - 1 or \
                not self._merges2(mode, specs):
            return None
        fixed = [self._fixed_across(spec, enc) for spec in specs]
        if fixed[0] == fixed[1]:
            return None
        g = self.pmaps
        self.pmaps += 1
        f = fixed.index(True)
        return {"g": g, "fixed": f, "walk": 1 - f}

    def _emit_pmap_leaf(self, rank: str, level: int, mode: str, specs,
                        virtual, binds, depths: Dict[int, int],
                        new_depths: Dict[int, int], wins: Dict[str, str],
                        guarded: Set[str], pmap: dict) -> None:
        """The position-map branch: ``if <guard>:`` plus the loop walking
        the moving span.  The guard takes it when that span is at most
        ``PMAP_RATIO`` times as long as the fixed one; a much longer
        walk would visit elements the merge gallops over.  The caller
        emits the matching ``else:`` with the merge loop."""
        em = self.em
        w, f = specs[pmap["walk"]], specs[pmap["fixed"]]
        em.emit(f"if {w[5]} - {w[4]} <= _pmr * ({f[5]} - {f[4]}):")
        em.indent += 1
        self._emit_loop(rank, level, mode, specs, virtual, binds, depths,
                        dict(new_depths), wins, guarded, pmap)
        em.indent -= 1

    def _open_pmap(self, rank: str, specs, pmap: dict) -> dict:
        em = self.em
        g = pmap["g"]
        fi, _, fL, fd, fa, fb, foff = specs[pmap["fixed"]]
        wi, _, wL, wd, wa, wb, woff = specs[pmap["walk"]]
        key = f"({fa}, {fb}" + (f", {foff})" if foff else ")")
        em.emit(f"if {key} != pk{g}:")
        em.indent += 1
        em.emit(f"pk{g} = {key}")
        span = f"t{fi}_c{fL}[{fa}:{fb}]"
        if foff:
            em.emit(f"pm{g} = {{c + {foff}: p for p, c in "
                    f"enumerate({span}, {fa})}}")
        else:
            em.emit(f"pm{g} = dict(zip({span}, range({fa}, {fb})))")
        em.indent -= 1
        pw, pf = f"p{wi}_{wd}", f"p{fi}_{fd}"
        em.emit(f"for {pw} in range({wa}, {wb}):")
        em.indent += 1
        coord = f"t{wi}_c{wL}[{pw}]" + (f" + {woff}" if woff else "")
        em.emit(f"c_{rank} = {coord}")
        em.emit(f"{pf} = pm{g}.get(c_{rank})")
        em.emit(f"if {pf} is None:")
        em.emit("    continue")
        return {"kind": "pmap", "kway": False, "guard": 0}

    def _open_merge2(self, rank: str, level: int, specs) -> dict:
        em = self.em
        (i0, lvl0, L0, d0, a0, b0, off0), (i1, lvl1, L1, d1, a1, b1, off1) = \
            specs
        p0, p1 = f"p{i0}_{d0}", f"p{i1}_{d1}"
        em.emit(f"{p0} = {a0}")
        em.emit(f"{p1} = {a1}")
        if self.priced:
            em.emit(f"_iv_{rank} = 0")
            em.emit(f"_im_{rank} = 0")
            if rank not in self.isect_ranks:
                self.isect_ranks.append(rank)
        em.emit(f"while {p0} < {b0} and {p1} < {b1}:")
        em.indent += 1
        h0 = f"t{i0}_c{L0}[{p0}]" + (f" + {off0}" if off0 else "")
        h1 = f"t{i1}_c{L1}[{p1}]" + (f" + {off1}" if off1 else "")
        em.emit(f"h0_{rank} = {h0}")
        em.emit(f"h1_{rank} = {h1}")
        em.emit(f"if h0_{rank} == h1_{rank}:")
        em.indent += 1
        em.emit(f"c_{rank} = h0_{rank}")
        if self.priced:
            em.emit(f"_iv_{rank} += 2")
            em.emit(f"_im_{rank} += 1")
            for i_, lvl_, d_ in ((i0, lvl0, d0), (i1, lvl1, d1)):
                of_ = lvl_.of or lvl_.rank
                if self._deferrable(i_):
                    self._bump_read(i_, of_, "coord")
                else:
                    self._emit_read(i_, of_, "coord",
                                    key=f"h{i_}_{d_} + (c_{rank},)",
                                    cx=f"cx{level}")
        return {"kind": "merge2", "kway": False, "guard": 0}

    def _open_kway(self, rank: str, level: int, mode: str, specs) -> dict:
        em = self.em
        k = len(specs)
        union = mode == "union"
        if union and k == 2 and not self.priced:
            return self._open_union2(rank, specs)
        parts = []
        for i, lvl, L, d, a, b, off in specs:
            parts.append(f"(t{i}_c{L}, {a}, {b}, {off or 0})")
        helper = "flat_union" if union else "flat_isect"
        size = k if union else k + 2
        em.emit(f"sx_{rank} = [0] * {size}")
        touches = ""
        if self.ported:
            # Per-input touch callbacks: coord read events for inputs
            # routed to a component machine fire from inside the helper,
            # in the interpreter's exact event order.
            names = []
            for j, (i, lvl, L, d, a, b, off) in enumerate(specs):
                of = lvl.of or lvl.rank
                port = self._port(self.ir.accesses[i].tensor, of, "coord")
                name = f"tk{j}_{rank}"
                em.emit(
                    f"{name} = None if {port}r is None else rt.make_touch("
                    f"{port}r, {of!r}, h{i}_{d}, cx{level})"
                )
                names.append(name)
            touches = f", ({', '.join(names)},)"
        em.emit(
            f"for c_{rank}, ps_{rank} in rt.{helper}(({', '.join(parts)},), "
            f"sx_{rank}{touches}):"
        )
        em.indent += 1
        if self.priced and not union and rank not in self.isect_ranks:
            self.isect_ranks.append(rank)
        return {"kind": "kway", "kway": True, "union": union, "guard": 0}

    def _open_union2(self, rank: str, specs) -> dict:
        """The flat flavor's two-way union, inline: the merge of
        :func:`~repro.ir.codegen_runtime.flat_union` for two inputs, an
        absent cursor (never a root one) counting as an empty span.  Each
        pass binds the union coordinate and each driver's position (-1
        when the driver lacks the coordinate) and advances past it."""
        em = self.em
        heads = []
        for j, (i, lvl, L, d, a, b, off) in enumerate(specs):
            u, e = f"u{j}_{rank}", f"e{j}_{rank}"
            em.emit(f"{u} = {a}")
            em.emit(f"{e} = {b}")
            if d > 0 and not self.ir.accesses[i].conjunctive:
                em.emit(f"if {u} is None:")
                em.emit(f"    {u} = {e} = 0")
            head = f"t{i}_c{L}[{u}]" + (f" + {off}" if off else "")
            heads.append((u, e, head, f"p{i}_{d}"))
        (u0, e0, h0, p0), (u1, e1, h1, p1) = heads
        c, h = f"c_{rank}", f"h1_{rank}"
        take0 = [f"{p0} = {u0}", f"{p1} = -1", f"{u0} += 1"]
        take1 = [f"{p0} = -1", f"{p1} = {u1}", f"{u1} += 1"]
        for line in (
            "while True:",
            f"    if {u0} < {e0}:",
            f"        {c} = {h0}",
            f"        if {u1} < {e1}:",
            f"            {h} = {h1}",
            f"            if {h} < {c}:",
            f"                {c} = {h}",
            *("                " + t for t in take1),
            f"            elif {h} == {c}:",
            f"                {p0} = {u0}",
            f"                {p1} = {u1}",
            f"                {u0} += 1",
            f"                {u1} += 1",
            "            else:",
            *("                " + t for t in take0),
            "        else:",
            *("            " + t for t in take0),
            f"    elif {u1} < {e1}:",
            f"        {c} = {h1}",
            *("        " + t for t in take1),
            "    else:",
            "        break",
        ):
            em.emit(line)
        em.indent += 1
        return {"kind": "union2", "kway": True, "union": True, "guard": 0}

    def _skip_reads(self, rank: str, level: int, i: int, lvl, L: int,
                    d: int, off, p: str) -> None:
        """Tally the coordinates a merge2 skip jumped over.

        DRAM-routed: one bulk counter bump.  With a live port the
        machine needs per-element keys, so the galloped-over positions
        replay through its ``read_span``.
        """
        of = lvl.of or lvl.rank
        self._bump_read(
            i, of, "coord", f"nx_{rank} - {p}",
            dispatch=lambda port: self.em.emit(
                f"{port}.read_span({of!r}, h{i}_{d}, t{i}_c{L}, {p}, "
                f"nx_{rank}, {off or 0}, cx{level})"))

    def _close_loop(self, rank: str, level: int, opened: dict,
                    specs) -> None:
        em = self.em
        if opened["kind"] in ("single", "pmap", "union2"):
            em.indent -= 1  # the loop
            em.indent -= opened["guard"]
        elif opened["kind"] == "merge2":
            (i0, lvl0, L0, d0, a0, b0, off0), \
                (i1, lvl1, L1, d1, a1, b1, off1) = specs
            p0, p1 = f"p{i0}_{d0}", f"p{i1}_{d1}"
            em.emit(f"{p0} += 1")
            em.emit(f"{p1} += 1")
            em.indent -= 1  # close the match branch
            em.emit(f"elif h0_{rank} < h1_{rank}:")
            em.indent += 1
            t0 = f"h1_{rank} - {off0}" if off0 else f"h1_{rank}"
            em.emit(f"nx_{rank} = _bl(t{i0}_c{L0}, {t0}, {p0}, {b0})")
            if self.priced:
                em.emit(f"_iv_{rank} += nx_{rank} - {p0}")
                self._skip_reads(rank, level, i0, lvl0, L0, d0, off0, p0)
            em.emit(f"{p0} = nx_{rank}")
            em.indent -= 1
            em.emit("else:")
            em.indent += 1
            t1 = f"h0_{rank} - {off1}" if off1 else f"h0_{rank}"
            em.emit(f"nx_{rank} = _bl(t{i1}_c{L1}, {t1}, {p1}, {b1})")
            if self.priced:
                em.emit(f"_iv_{rank} += nx_{rank} - {p1}")
                self._skip_reads(rank, level, i1, lvl1, L1, d1, off1, p1)
            em.emit(f"{p1} = nx_{rank}")
            em.indent -= 1
            em.indent -= 1  # close the while body
            if self.priced:
                # Runs only on normal exit: an abandoned co-iteration
                # drops its isect event, exactly like the interpreter.
                em.emit("else:")
                em.indent += 1
                em.emit(f"iv_{rank} += _iv_{rank}")
                em.emit(f"im_{rank} += _im_{rank}")
                em.indent -= 1
        else:  # kway
            em.indent -= 1  # close the for body
            if self.priced and not opened["union"]:
                k = len(specs)
                em.emit("else:")
                em.indent += 1
                em.emit(f"iv_{rank} += sx_{rank}[{k}]")
                em.emit(f"im_{rank} += sx_{rank}[{k + 1}]")
                em.indent -= 1
            # Visit tallies are eager in the helper, so they stay
            # correct even when the loop breaks early.  Machine-routed
            # inputs already fired their per-element touches inside the
            # helper.
            for j, (i, lvl, L, d, a, b, off) in enumerate(specs):
                self._bump_read(i, lvl.of or lvl.rank, "coord",
                                f"sx_{rank}[{j}]")

    # ------------------------------------------------------------------
    # Vector leaves (every priced kernel): price an entire innermost-rank
    # span with batched numpy ops.  Eligibility is decided statically per
    # loop; the generated branch still guards on runtime facts (numpy
    # buffers present, elementwise opset, span large enough) and falls
    # through to the inline scalar loop otherwise, so outputs and tallies
    # never depend on which path ran.
    # ------------------------------------------------------------------
    def _leaf_lookups_advance(self, level: int,
                              depths: Dict[int, int]) -> bool:
        """Would the in-loop :meth:`_lookups` pass advance any cursor at
        the innermost rank?  (A dry-run of its break conditions: a leaf
        that performs per-element lookups emits per-element events and
        must stay scalar.)"""
        ir = self.ir
        bound_vars = set()
        for r in ir.loop_ranks[: level + 1]:
            bound_vars.update(ir.binds.get(r, ()))
        for i, plan in enumerate(ir.accesses):
            d = depths[i]
            if d >= len(plan.levels):
                continue
            lvl = plan.levels[d]
            if lvl.kind == VIRTUAL:
                continue
            later_rank = lvl.rank in ir.loop_ranks[level + 1:]
            if lvl.kind in (UPPER, FLAT_UPPER):
                below = _physical_below(plan, d, lvl.of)
                if below is None or any(
                    set(e.vars) - bound_vars for e in below.exprs
                ) or later_rank and _drivable(
                    lvl, ir.binds.get(lvl.rank, ())
                ):
                    continue
                return True
            if any(set(e.vars) - bound_vars for e in lvl.exprs):
                continue
            if later_rank and _drivable(lvl, ir.binds.get(lvl.rank, ())):
                continue
            return True
        return False

    def _vec_value_plan(self, depths: Dict[int, int],
                        driver_map: Dict[int, str]):
        """(value code, scalar refs, mul count) of a batched leaf value.

        Only pure products vectorize (arbitrary nesting of ``Mul`` over
        ``Access``, folded in exactly the scalar emitters' association
        order — elementwise multiplication is IEEE-exact under any
        operand shapes, but the grouping must match).  ``None`` means
        the expression keeps the scalar path (Add/Take leaves).
        """
        scalars: List[str] = []
        counter = [0]
        muls = [0]

        def walk(e):
            if isinstance(e, Access):
                i = counter[0]
                counter[0] += 1
                code = driver_map.get(i)
                if code is None:
                    code = self._scalar_ref(i, depths[i])
                    scalars.append(code)
                return code
            if isinstance(e, Mul):
                parts = [walk(f) for f in e.factors]
                if any(p is None for p in parts):
                    return None
                folded = parts[0]
                for p in parts[1:]:
                    muls[0] += 1
                    folded = f"opset.mul({folded}, {p})"
                return folded
            return None

        code = walk(self.ir.einsum.expr)
        if code is None:
            return None
        if not all(v in code for v in driver_map.values()):
            return None  # a driver's values never reach the product
        return code, scalars, muls[0]

    def _stamp_desc(self, rank: str) -> dict:
        """How the time stamp behaves across an innermost span: constant
        (the rank is absent from it) or varying in exactly one slot,
        around the fixed part ``(pre, post)``."""
        ranks = list(self.ir.time_ranks)
        if rank in ranks:
            k = ranks.index(rank)
            pre = "(" + "".join(f"st_{r}, " for r in ranks[:k]) + ")"
            post = "(" + "".join(f"st_{r}, " for r in ranks[k + 1:]) + ")"
            return {"varies": True, "fixed": f"({pre}, {post})"}
        const = "(" + "".join(f"st_{r}, " for r in ranks) + ")"
        return {"varies": False, "const": const}

    def _vector_leaf_plan(self, rank: str, level: int, mode: str, specs,
                          virtual, binds, new_depths: Dict[int, int],
                          enc: dict):
        """Static eligibility of a vectorized leaf for this rank, or
        ``None``.  The conditions mirror exactly what the batched
        primitives can reproduce bit-identically: one or two PLAIN
        drivers descending straight to leaf scalars, an intersect (not
        union) merge, a pure-product expression, reduction into a single
        output element (no inner var in the output point), no take()
        short-circuits, no per-element lookups, and no tensor whose
        component machine would see interleaved per-element event orders
        (self-intersections, read-modify-write outputs)."""
        if not self.priced or level != self.n_ranks - 1:
            return None
        ir = self.ir
        if self.existential or virtual or len(binds) > 1:
            return None
        if len(specs) not in (1, 2):
            return None
        if ir.einsum.is_take:
            return None
        for i, lvl, L, d, a, b, off in specs:
            if lvl.kind != PLAIN:
                return None
            if self._al(i, d) + 1 != self.n_phys[i]:
                return None
        if len(specs) == 2:
            if mode == "union":
                return None
            if not all(ir.accesses[i].conjunctive for i, *_ in specs):
                return None
            if ir.accesses[specs[0][0]].tensor == \
                    ir.accesses[specs[1][0]].tensor:
                return None
        if any(p.tensor == ir.output.tensor for p in ir.accesses):
            return None
        if self._leaf_lookups_advance(level, dict(new_depths)):
            return None
        v = binds[0] if binds else None
        out_idx = ir.output.indices
        if v is not None and any(v in e.vars for e in out_idx):
            return None  # scatter-into-output leaves stay scalar
        drivers = self._span_drivers(specs)
        driver_map = {drv["i"]: f"vc_w{drv['j']}" for drv in drivers}
        value = self._vec_value_plan(new_depths, driver_map)
        if value is None:
            return None
        value_code, scalars, k_mul = value
        sibling = None
        if len(specs) == 2 and not scalars:
            sibling = self._sibling_plan(specs, enc, new_depths)
        return {
            "drivers": drivers,
            "merge": len(specs) == 2,
            "sibling": sibling,
            "value": value_code,
            "scalars": list(dict.fromkeys(scalars)),
            "k_mul": k_mul,
            "point": _point_code(out_idx),
            "out_tensor": ir.output.tensor,
            "out_rank": (ir.output.storage_ranks[-1]
                         if ir.output.storage_ranks else "root"),
            "ts": self._stamp_desc(rank),
            "style": ir.time_styles.get(rank, "pos"),
        }

    def _span_drivers(self, specs) -> List[dict]:
        """What a span-level branch needs of each loop driver: its
        cursor (access, arena level, depth, span bounds, offset), the
        rank its events name, and its tensor."""
        drivers = []
        for j, (i, lvl, L, d, a, b, off) in enumerate(specs):
            plan = self.ir.accesses[i]
            drivers.append({
                "j": j, "i": i, "L": L, "d": d, "a": a, "b": b,
                "off": off or "0", "of": lvl.of or lvl.rank,
                "tensor": plan.tensor, "conj": plan.conjunctive,
            })
        return drivers

    @staticmethod
    def _fixed_across(spec, enc: dict) -> bool:
        """Are a driver's span and offset invariant across the enclosing
        loop ``enc``?  Its cursor must be set outside that loop (neither
        the loop nor its lookups move it), and its projection offset
        must read none of the loop's variables."""
        i, lvl, L, d, a, b, off = spec
        if enc["depths"][i] != d:
            return False
        return off is None or not set(lvl.exprs[0].vars) & set(enc["binds"])

    def _sibling_plan(self, specs, enc: dict, depths: Dict[int, int]):
        """How a merge leaf batches its intersections across the sibling
        spans of one parent fiber, or ``None`` (per-span ``visect2``).

        It batches when one driver (the walker) iterates the raw child
        fiber of the enclosing loop's sole PLAIN driver, so the siblings
        form one contiguous block of its level, while the other (fixed)
        driver's span and offset are invariant across that loop: its
        cursor is set outside the loop and its projection offset reads
        none of the loop's variables.  Only pure two-driver products get
        here, so the batch also computes the products once per parent.
        """
        if enc is None or "spec" not in enc:
            return None
        ei, _, _, ed, ea, eb, _ = enc["spec"]
        for w in (0, 1):
            i, _, L, d, a, _, _ = specs[w]
            if i != ei or d != ed + 1 or a != f"n{i}_{d}a":
                continue
            if not self._fixed_across(specs[1 - w], enc):
                return None
            fi, flvl, fL, fd, fa, fb, foff = specs[1 - w]
            g = len(self.sib_maps)
            self.sib_maps.append(
                f"rt.SiblingMap(t{fi}_cn{fL}, t{i}_cn{L}, _a{i}.segs[{L}])")
            value = self._vec_value_plan(depths, {
                specs[j][0]: f"t{specs[j][0]}_vn[vq{g}_{j}]" for j in (0, 1)})
            return {
                "g": g, "fixed": 1 - w, "walk": w,
                "key": f"({fa}, {fb}, {ea}, {eb}"
                       + (f", {foff})" if foff else ")"),
                "args": f"{fa}, {fb}, {foff or 0}, {ea}, {eb}, 0",
                "index": f"p{i}_{ed} - {ea}",
                "value": value[0],
            }
        return None

    def _emit_vector_leaf(self, rank: str, level: int, vec: dict) -> None:
        """The batched branch: ``if <runtime guards>:`` plus its body.
        The caller emits the matching ``else:`` with the scalar loop."""
        em = self.em
        drivers = vec["drivers"]
        merge = vec["merge"]
        fixed = ["_vk"]
        guard = f"_vl{len(self.vec_guards)}"
        conds = [guard]
        sizes = []
        for drv in drivers:
            if not drv["conj"]:
                conds.append(f"{drv['a']} is not None")
            sizes.append(f"({drv['b']} - {drv['a']})")
            self.vec_coords.add((drv["i"], drv["L"]))
            self.vec_vals.add(drv["i"])
            fixed.append(f"t{drv['i']}_cn{drv['L']} is not None")
            fixed.append(f"t{drv['i']}_vn is not None")
        self.vec_guards.append((guard, " and ".join(fixed)))
        conds.append(f"{' + '.join(sizes)} >= _vmin")
        em.emit(f"if {' and '.join(conds)}:")
        em.indent += 1
        d0 = drivers[0]
        if merge:
            if vec["sibling"] is None:
                self._emit_visect2(drivers)
            else:
                self._emit_sibling_batch(vec)
            if rank not in self.isect_ranks:
                self.isect_ranks.append(rank)
            em.emit(f"iv_{rank} += vc_n0 + vc_n1")
            em.emit(f"im_{rank} += vc_m")
        else:
            em.emit(f"vc_m = {d0['b']} - {d0['a']}")
        # The loop coordinates of the span's effectual elements (the
        # shifted matched coordinates — identical through either merge
        # driver), materialized at most once per span on first need:
        # ``vc_a`` as a numpy column (``coord``-style stamps), ``vc_c``
        # as Python ints (payload-port reads and output writes).
        em.emit("vc_a = None")
        if self.ported:
            em.emit("vc_c = None")
        for drv in drivers:
            self._emit_vector_reads(level, drv, merge, d0)
        self._emit_vector_effectual(rank, level, vec)
        em.indent -= 1

    def _emit_visect2(self, drivers) -> None:
        """Bind the span's matches ``vc_q*``, visits ``vc_n*`` and match
        count ``vc_m`` with one :func:`~repro.ir.codegen_runtime.visect2`."""
        d0, d1 = drivers
        self.em.emit(
            f"vc_q0, vc_q1, vc_n0, vc_n1 = rt.visect2("
            f"t{d0['i']}_cn{d0['L']}, {d0['a']}, {d0['b']}, {d0['off']}, "
            f"t{d1['i']}_cn{d1['L']}, {d1['a']}, {d1['b']}, {d1['off']})"
        )
        self.em.emit("vc_m = len(vc_q0)")

    def _emit_sibling_batch(self, vec: dict) -> None:
        """Bind what :meth:`_emit_visect2` binds, plus the span's products
        ``vc_val``, from this parent's sibling batch.  The batch is built
        at the parent's first numpy-branch span, and memoized on its
        inputs (``vk<g>``); when the position map does not fit, every
        span calls ``visect2`` instead."""
        em = self.em
        sib = vec["sibling"]
        g, f, w = sib["g"], sib["fixed"], sib["walk"]
        em.emit(f"vc_k = {sib['key']}")
        em.emit(f"if vc_k != vk{g}:")
        em.indent += 1
        em.emit(f"vk{g} = vc_k")
        em.emit(f"vb{g} = _sm{g}.intersect({sib['args']})")
        em.emit(f"if vb{g} is not None:")
        em.indent += 1
        em.emit(f"vq{g}_{f}, vq{g}_{w}, vo{g}, vm{g}, vn{g}_{f}, vn{g}_{w} "
                f"= vb{g}")
        em.emit(f"vv{g} = {sib['value']}")
        em.indent -= 2
        em.emit(f"if vb{g} is not None:")
        em.indent += 1
        em.emit(f"vc_s = {sib['index']}")
        em.emit(f"vc_o = vo{g}[vc_s]")
        em.emit(f"vc_m = vm{g}[vc_s]")
        em.emit("vc_e = vc_o + vc_m")
        for j in (0, 1):
            em.emit(f"vc_q{j} = vq{g}_{j}[vc_o:vc_e]")
            em.emit(f"vc_n{j} = vn{g}_{j}[vc_s]")
        em.emit(f"vc_val = vv{g}[vc_o:vc_e]")
        em.indent -= 1
        em.emit("else:")
        em.indent += 1
        self._emit_visect2(vec["drivers"])
        self._emit_vc_value(vec)
        em.indent -= 1

    def _emit_vc_value(self, vec: dict) -> None:
        """Bind the span's products ``vc_val`` from its matches."""
        for drv in vec["drivers"]:
            if vec["merge"]:
                self.em.emit(
                    f"vc_w{drv['j']} = t{drv['i']}_vn[vc_q{drv['j']}]")
            else:
                self.em.emit(f"vc_w{drv['j']} = "
                             f"t{drv['i']}_vn[{drv['a']}:{drv['b']}]")
        self.em.emit(f"vc_val = {vec['value']}")

    def _emit_vc_array(self, d0: dict, merge: bool) -> None:
        """Lazily bind ``vc_a`` (see :meth:`_emit_vector_leaf`)."""
        em = self.em
        em.emit("if vc_a is None:")
        em.indent += 1
        if merge:
            em.emit(f"vc_a = rt.vtake(t{d0['i']}_cn{d0['L']}, vc_q0, "
                    f"{d0['off']})")
        else:
            em.emit(f"vc_a = rt.vslice(t{d0['i']}_cn{d0['L']}, {d0['a']}, "
                    f"{d0['b']}, {d0['off']})")
        em.indent -= 1

    def _emit_vc_coords(self, d0: dict, merge: bool) -> None:
        """Lazily bind ``vc_c`` (see :meth:`_emit_vector_leaf`)."""
        em = self.em
        em.emit("if vc_c is None:")
        em.indent += 1
        self._emit_vc_array(d0, merge)
        em.emit("vc_c = vc_a.tolist()")
        em.indent -= 1

    def _emit_vector_reads(self, level: int, drv: dict,
                           merge: bool, d0: dict) -> None:
        """One driver's coord+payload event accounting for a whole span.

        Per machine, the event order within the span is: one coord read
        per *visited* coordinate ascending (matched and galloped-over
        alike), plus one payload read per *matched* coordinate — so a
        machine owning both ports batches as ``read_span`` over the
        visited prefix plus a :meth:`~repro.ir.codegen_runtime.FusedBuffet.pair_extra`
        bump for the matched subset, and split ports batch each side
        independently.  DRAM-routed sides are pure counter adds.

        ``d0`` is ``None`` on a batched leaf, which binds no matched
        coordinates: there :func:`~repro.ir.codegen_runtime.batch_ok`
        keeps a merge whose payload port is a machine of its own off the
        batched branch, so that side is a counter add only.
        """
        em = self.em
        i, j, L, d = drv["i"], drv["j"], drv["L"], drv["d"]
        of, off = drv["of"], drv["off"]
        a, b = drv["a"], drv["b"]
        vis = f"vc_n{j}" if merge else "vc_m"
        hi = f"{a} + vc_n{j}" if merge else b

        def span(port):
            em.emit(f"{port}.read_span({of!r}, h{i}_{d}, t{i}_c{L}, {a}, "
                    f"{hi}, {off}, cx{level})")

        def payload_span(port):
            if merge:
                self._emit_vc_coords(d0, merge)
                em.emit(f"{port}.read_span({of!r}, h{i}_{d}, vc_c, 0, vc_m, "
                        f"0, cx{level})")
            else:
                em.emit(f"{port}.read_span({of!r}, h{i}_{d}, t{i}_c{L}, "
                        f"{a}, {b}, {off}, cx{level})")

        if self.ported:
            pc = self._port(drv["tensor"], of, "coord")
            pp = self._port(drv["tensor"], of, "payload")
            em.emit(f"if {pc} is not None and {pc} is {pp}:")
            em.indent += 1
            span(pc)
            em.emit(f"{pc}.pair_extra(vc_m)")
            em.indent -= 1
            em.emit("else:")
            em.indent += 1
        self._bump_read(i, of, "coord", vis, dispatch=span)
        if merge and d0 is None:
            payload_span = None
        self._bump_read(i, of, "payload", "vc_m", dispatch=payload_span)
        if self.ported:
            em.indent -= 1

    def _emit_vector_effectual(self, rank: str, level: int,
                               vec: dict) -> None:
        """Batched compute counting, time stamps, reduction, and output
        writes of a span — bit-equal to the scalar leaf run ``vc_m``
        times (the first element of a freshly absent output point is the
        copy/no-add element, exactly as :meth:`_emit_reduce` prices
        it).  A varying stamp is recorded as one span entry: the fixed
        part ``vc_fx`` and the varying slot's values — the loop positions
        as a ``range`` (``vc_sc``) or the coordinates as a column
        (``vc_a``) — with the first/rest selections as slices of them."""
        em = self.em
        drivers = vec["drivers"]
        merge = vec["merge"]
        d0 = drivers[0]
        em.emit("if vc_m:")
        em.indent += 1
        guard = 0
        if vec["scalars"]:
            cond = " or ".join(f"{s} is None" for s in vec["scalars"])
            em.emit(f"if not ({cond}):")
            em.indent += 1
            guard = 1
        if vec["sibling"] is None:
            self._emit_vc_value(vec)
        ts = vec["ts"]
        if ts["varies"]:
            if vec["style"] == "coord":
                self._emit_vc_array(d0, merge)
                col = "vc_a"
            else:
                em.emit("vc_sc = range(vc_m)")
                col = "vc_sc"
            em.emit(f"vc_fx = {ts['fixed']}")
        else:
            em.emit(f"vc_t = {ts['const']}")

        def ts_code(op, sel):
            if ts["varies"]:
                part = {"all": "", "first": "[:1]", "rest": "[1:]"}[sel]
                return f"cv_{op}.append((vc_fx, {col}{part}))"
            return f"cs_{op}.add(vc_t)"

        k_mul = vec["k_mul"]
        if k_mul:
            em.emit(f"cn_mul += {k_mul} * vc_m")
            em.emit(ts_code("mul", "all"))
        em.emit(f"_k = {vec['point']}")
        em.emit("vc_old = _acc.get(_k)")
        em.emit("_acc[_k] = rt.vreduce(vc_old, vc_val)")
        em.emit("if vc_old is None:")
        em.indent += 1
        if not k_mul:
            em.emit("cn_copy += 1")
            em.emit(ts_code("copy", "first"))
        em.emit("cn_add += vc_m - 1")
        em.emit("if vc_m > 1:")
        em.indent += 1
        em.emit(ts_code("add", "rest"))
        em.indent -= 1
        em.indent -= 1
        em.emit("else:")
        em.indent += 1
        em.emit("cn_add += vc_m")
        em.emit(ts_code("add", "all"))
        em.indent -= 1
        out_r = vec["out_rank"]
        key = (vec["out_tensor"], out_r, "elem")

        def write_seq(port):
            self._emit_vc_coords(d0, merge)
            em.emit(f"{port}.write_seq({out_r!r}, {vec['point']}, {rank!r}, "
                    f"vc_c, cx{level})")

        self._routed(key, f"{self._wctr(*key)} += vc_m", write_seq)
        em.indent -= guard
        em.indent -= 1

    # ------------------------------------------------------------------
    # Batched leaves (vector flavor): an innermost loop whose machine
    # events can move out of the loop runs the port-free counted body and
    # then makes one span call per port.  Eligibility is static per loop;
    # whether the bound machines allow it (see
    # :func:`~repro.ir.codegen_runtime.batch_ok`) is decided once at
    # kernel entry, and the per-event loop stays as the fallback.
    # ------------------------------------------------------------------
    def _batch_leaf_plan(self, level: int, mode: str, specs, virtual, binds,
                         new_depths: Dict[int, int]):
        """Static eligibility of a batched leaf for this rank, or ``None``.

        The loop must fire no machine events but its drivers' coord and
        payload reads (one- or two-way intersect openers, drivers that
        descend straight to leaf scalars, no per-element lookups) and the
        leaf's output write, and must run to completion (no ``take()``
        short-circuit); the output must not also be read.  The plan
        says whether the output point varies with the loop (``map``:
        one write per distinct point) or not (a reduction: a run of
        writes to one point)."""
        if not self.ported or level != self.n_ranks - 1:
            return None
        ir = self.ir
        if self.existential or virtual or len(binds) > 1:
            return None
        if len(specs) > 2 or len(specs) == 2 and mode == "union":
            return None
        for i, lvl, L, d, a, b, off in specs:
            if lvl.kind != PLAIN or not ir.accesses[i].conjunctive:
                return None
            if self._al(i, d) + 1 != self.n_phys[i]:
                return None
        if any(p.tensor == ir.output.tensor for p in ir.accesses):
            return None
        if self._leaf_lookups_advance(level, dict(new_depths)):
            return None
        out_idx = ir.output.indices
        return {"map": bool(binds) and any(binds[0] in e.vars
                                           for e in out_idx)}

    def _emit_batch_leaf(self, rank: str, level: int, mode: str, specs,
                         binds, depths: Dict[int, int],
                         new_depths: Dict[int, int], wins: Dict[str, str],
                         guarded: Set[str], batch: dict,
                         keyword: str) -> None:
        """The batched branch: ``<keyword> _sb<g>:`` plus its body — the
        loop as the port-free kernel emits it, collecting the leaf's
        output writes (a count, or the written points of a map leaf),
        then one span call per port.  The caller emits the matching
        ``else:`` with the per-event loop."""
        ir, em = self.ir, self.em
        merge = len(specs) == 2
        drivers = self._span_drivers(specs)
        out_r = (ir.output.storage_ranks[-1]
                 if ir.output.storage_ranks else "root")
        out_key = (ir.output.tensor, out_r, "elem")
        guard = f"_sb{len(self.batch_guards)}"
        ports = "".join(
            f"({self._port(drv['tensor'], drv['of'], 'coord')}, "
            f"{self._port(drv['tensor'], drv['of'], 'payload')}), "
            for drv in drivers)
        self.batch_guards.append((guard, (
            f"rt.batch_ok({level}, ({ports}), {self._port(*out_key)}, "
            f"{merge})")))
        em.emit(f"{keyword} {guard}:")
        em.indent += 1
        em.emit("sb_k = []" if batch["map"] else "sb_n = 0")
        self.ported, self.batching = False, batch
        self._emit_loop(rank, level, mode, specs, (), binds, depths,
                        dict(new_depths), wins, guarded)
        self.ported, self.batching = True, None
        if merge:
            # Each driver visited a prefix of its span: the loop left its
            # position just past the last visited element.
            for drv in drivers:
                em.emit(f"vc_n{drv['j']} = p{drv['i']}_{drv['d']} - "
                        f"{drv['a']}")
            em.emit(f"vc_m = _im_{rank}")
        else:
            em.emit(f"vc_m = {drivers[0]['b']} - {drivers[0]['a']}")
        for drv in drivers:
            self._emit_vector_reads(level, drv, merge, None)
        if batch["map"]:
            count = "len(sb_k)"
            call = f"write_keys({out_r!r}, sb_k, cx{level})"
        else:
            count = "sb_n"
            call = (f"write_run({out_r!r}, {_point_code(ir.output.indices)}, "
                    f"sb_n, cx{level})")
        self._routed(out_key, f"{self._wctr(*out_key)} += {count}",
                     lambda port: em.emit(f"{port}.{call}"))
        em.indent -= 1

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
        if self.ported:
            em.emit(f"cx{level + 1} = cx{level} + (({rank!r}, v_{var}),)")
        enc = {"depths": dict(depths), "binds": binds}
        self._lookups(level, depths)
        self._rank(level + 1, depths, wins, guarded, enc)
        self._propagate_wrote(level, rank)
        em.indent -= 1

    # ------------------------------------------------------------------
    def _lookups(self, level: int, depths: Dict[int, int]) -> None:
        """Advance cursors through levels fully bound after this rank.

        The break conditions are copied verbatim from the object
        generator so both kernels advance at exactly the same points.
        """
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
                L = self._al(i, d)
                pos = f"p{i}_{d}"
                if lvl.kind in (UPPER, FLAT_UPPER):
                    below = _physical_below(plan, d, lvl.of)
                    if below is None or any(
                        set(e.vars) - bound_vars for e in below.exprs
                    ) or later_rank and _drivable(
                        lvl, ir.binds.get(lvl.rank, ())
                    ):
                        break
                    target = _coord_code(below)
                    em.emit(f"if n{i}_{d}a is None:")
                    em.indent += 1
                    self._absent(i, d + 1)
                    em.indent -= 1
                    em.emit("else:")
                    em.indent += 1
                    em.emit(
                        f"{pos} = rt.span_chunk(t{i}_c{L}, n{i}_{d}a, "
                        f"n{i}_{d}b, {target})"
                    )
                    em.emit(f"if {pos} < 0:")
                    em.indent += 1
                    self._absent(i, d + 1)
                    em.indent -= 1
                    em.emit("else:")
                    em.indent += 1
                    if self.ported:
                        em.emit(
                            f"h{i}_{d + 1} = h{i}_{d} + (t{i}_c{L}[{pos}],)"
                        )
                    self._emit_read(i, of, "coord", key=f"h{i}_{d + 1}",
                                    cx=f"cx{level + 1}")
                    self._descend(i, d, pos)
                    em.indent -= 2
                    d += 1
                    depths[i] = d
                    continue
                unbound = any(set(e.vars) - bound_vars for e in lvl.exprs)
                if unbound:
                    break
                if later_rank and _drivable(lvl, ir.binds.get(lvl.rank, ())):
                    break  # it will drive its own loop
                em.emit(f"if n{i}_{d}a is None:")
                em.indent += 1
                self._absent(i, d + 1)
                em.indent -= 1
                em.emit("else:")
                em.indent += 1
                # Lookups are straight-line: the machine coord read can
                # always defer past span_find, pairing with the payload
                # read on hits (the counter half bumps now — counters are
                # order-insensitive).
                if self.ported:
                    em.emit(
                        f"h{i}_{d + 1} = h{i}_{d} + ({_coord_code(lvl)},)"
                    )
                self._bump_read(i, of, "coord")
                em.emit(
                    f"{pos} = rt.span_find(t{i}_c{L}, n{i}_{d}a, "
                    f"n{i}_{d}b, {_coord_code(lvl)})"
                )
                em.emit(f"if {pos} < 0:")
                em.indent += 1
                if self.ported:
                    pc = self._port(self.ir.accesses[i].tensor, of, "coord")
                    em.emit(f"if {pc}r is not None:")
                    em.indent += 1
                    em.emit(f"{pc}r({of!r}, h{i}_{d + 1}, cx{level + 1})")
                    em.indent -= 1
                self._absent(i, d + 1)
                em.indent -= 1
                em.emit("else:")
                em.indent += 1
                self._emit_pair_read(i, of, key=f"h{i}_{d + 1}",
                                     cx=f"cx{level + 1}")
                self._descend(i, d, pos)
                em.indent -= 2
                d += 1
                depths[i] = d

    # ------------------------------------------------------------------
    # Leaves
    # ------------------------------------------------------------------
    def _scalar_ref(self, i: int, d: int) -> str:
        """The leaf scalar of access ``i`` at depth ``d`` (None if absent
        or not fully descended, as the interpreter reads a fiber cursor)."""
        if self._is_scalar(i, d):
            return f"n{i}_{d}"
        return "None"

    def _emit_reduce(self, value: str) -> None:
        """Reduce ``value`` into the output point buffer ``_acc`` (a dict
        keyed by the full output point; the kernel builds its output
        tensor from it once, at the end).  The first value at a point is
        stored as is; later ones reduce with ``opset.add`` and count one
        add (priced kernels), or overwrite for take() Einsums."""
        ir, em = self.ir, self.em
        point = _point_code(ir.output.indices)
        if ir.einsum.is_take:
            em.emit(f"_acc[{point}] = {value}")
            return
        em.emit(f"_k = {point}")
        em.emit("_o = _acc.get(_k)")
        em.emit("if _o is None:")
        em.indent += 1
        em.emit(f"_acc[_k] = {value}")
        em.indent -= 1
        em.emit("else:")
        em.indent += 1
        em.emit(f"_acc[_k] = opset.add(_o, {value})")
        if self.priced:
            em.emit("ad += 1")
        em.indent -= 1

    def _leaf(self, depths: Dict[int, int]) -> None:
        """The innermost body: evaluate the leaf value and reduce it into
        ``_acc``; priced kernels also tally its ops under the current
        time stamp and count (or route) the output write."""
        ir, em = self.ir, self.em
        if self.priced:
            em.emit("mu = 0")
            em.emit("ad = 0")
        counter = [0]
        value = self._leaf_expr(ir.einsum.expr, depths, counter)
        em.emit(f"if {value} is not None:")
        em.indent += 1
        self._emit_reduce(value)
        if self.priced:
            ts = "(" + "".join(f"st_{r}, " for r in ir.time_ranks) + ")"
            em.emit(f"_ts = {ts}")
            em.emit("if mu:")
            em.indent += 1
            em.emit("cn_mul += mu")
            em.emit("cs_mul.add(_ts)")
            em.indent -= 1
            em.emit("if ad:")
            em.indent += 1
            em.emit("cn_add += ad")
            em.emit("cs_add.add(_ts)")
            em.indent -= 1
            em.emit("if not mu and not ad:")
            em.indent += 1
            em.emit("cn_copy += 1")
            em.emit("cs_copy.add(_ts)")
            em.indent -= 1
            out_rank = (ir.output.storage_ranks[-1]
                        if ir.output.storage_ranks else "root")
            key = (ir.output.tensor, out_rank, "elem")
            point = _point_code(ir.output.indices)
            if self.batching is None:
                self._routed(key, f"{self._wctr(*key)} += 1",
                             lambda port: em.emit(
                                 f"{port}w({out_rank!r}, {point}, "
                                 f"cx{self.n_ranks})"))
            elif self.batching["map"]:
                # The reduction bound the point as ``_k``; take() did not.
                key = point if ir.einsum.is_take else "_k"
                em.emit(f"sb_k.append({key})")
            else:
                em.emit("sb_n += 1")
        if self.existential:
            em.emit(f"wr_{self.n_ranks} = True")
        em.indent -= 1

    def _tmp(self) -> str:
        self._tmp_count += 1
        return f"t{self._tmp_count}"

    def _leaf_expr(self, expr: Expr, depths, counter) -> str:
        """The leaf value, mirroring the interpreter's ``_evaluate``:
        sub-expressions always evaluate, but a combining operation
        executes (and, in priced kernels, counts) only when its operands
        are present; scalars read straight from the arena cursors."""
        em = self.em
        if isinstance(expr, Access):
            i = counter[0]
            counter[0] += 1
            return self._scalar_ref(i, depths[i])
        if isinstance(expr, Mul):
            parts = [self._leaf_expr(f, depths, counter)
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
            if self.priced:
                em.emit(f"mu += {len(parts) - 1}")
            em.indent -= 1
            return v
        if isinstance(expr, Add):
            left = self._leaf_expr(expr.left, depths, counter)
            right = self._leaf_expr(expr.right, depths, counter)
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
            if self.priced:
                em.emit("ad += 1")
            em.indent -= 1
            return v
        if isinstance(expr, Take):
            args = []
            for _ in expr.args:
                i = counter[0]
                counter[0] += 1
                args.append(self._scalar_ref(i, depths[i]))
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
        raise CodegenError(f"cannot generate flat code for {expr!r}")


def generate_flat_source(ir: LoopNestIR, func_name: str = "kernel",
                         priced: bool = False, ports: bool = False) -> str:
    """Generate arena-native Python source for one lowered Einsum.

    ``priced`` adds fused counters and the batched numpy span branches
    (the counted flavor); ``ports`` additionally inlines the buffet/cache
    component state machines behind per-touch ports (the vector flavor;
    implies ``priced``).
    """
    return _FlatGenerator(ir, func_name, priced, ports).generate()
