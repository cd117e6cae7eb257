"""The executor: interprets loop-nest IR over real fibertrees.

This is TeAAL's "simulator": for each Einsum it applies the preprocessing
transformations (partitioning, flattening, inferred swizzles) to the input
tensors, then walks the loop nest rank by rank, co-iterating fibers
(intersection for multiplicative ranks, merge-union for additive ranks,
affine projection for convolution-style index expressions), computing real
output values, and streaming access traces to a :class:`TraceSink`.

The functional result is exact — outputs equal a dense reference — while
the traces drive the performance model (paper section 4.3).
"""

from __future__ import annotations

import bisect
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from ..einsum.ast import Access, Add, Mul, Take
from ..einsum.operators import ARITHMETIC, OpSet
from ..fibertree.fiber import Fiber
from ..fibertree.tensor import Tensor
from ..ir.builder import build_cascade_ir
from ..ir.nodes import FLAT, FLAT_UPPER, PLAIN, UPPER, VIRTUAL, LoopNestIR
from ..spec.loader import AcceleratorSpec
from .traces import TraceSink


class ExecutionError(RuntimeError):
    pass


@dataclass
class _Cursor:
    """Position of one tensor access within its (transformed) fibertree."""

    node: Any  # Fiber | scalar | None
    depth: int
    path: tuple
    empty: bool = False

    def child(self, node, coord) -> "_Cursor":
        return _Cursor(node, self.depth + 1, self.path + (coord,),
                       empty=node is None)

    def skip(self) -> "_Cursor":
        """Advance past a virtual level without descending."""
        return _Cursor(self.node, self.depth + 1, self.path, self.empty)

    def as_empty(self) -> "_Cursor":
        return _Cursor(None, self.depth, self.path, True)


def prepare_tensor(tensor: Tensor, rank_order: Sequence[str],
                   prep_steps) -> Tensor:
    """Apply the offline rank-order swizzle plus the IR's prep steps."""
    t = tensor
    if list(rank_order) != t.rank_ids:
        t = t.swizzle(list(rank_order))
    for step in prep_steps:
        if step.kind == "swizzle":
            t = t.swizzle(list(step.ranks))
        elif step.kind == "flatten":
            t = t.flatten_ranks(list(step.ranks))
        elif step.kind == "partition_shape":
            t = t.partition_uniform_shape(step.rank, list(step.sizes))
        elif step.kind == "partition_occupancy":
            t = t.partition_uniform_occupancy(step.rank, list(step.sizes))
        else:
            raise ExecutionError(f"unknown prep step {step.kind!r}")
    return t


def _level_can_drive(lvl, binds) -> bool:
    """Can this physical level structurally drive its loop rank?"""
    if lvl.kind in (UPPER, FLAT_UPPER):
        return True
    if lvl.kind == FLAT:
        return tuple(v for e in lvl.exprs for v in e.vars) == binds
    if lvl.kind == PLAIN:
        expr = lvl.exprs[0]
        if expr.is_var:
            return binds == expr.vars
        return len(binds) == 1 and binds[0] in expr.vars  # affine projection
    return False


class _EinsumRun:
    """One Einsum execution: loop-nest interpretation with trace emission."""

    def __init__(
        self,
        ir: LoopNestIR,
        tensors: Dict[str, Tensor],
        rank_orders: Dict[str, List[str]],
        opset: OpSet,
        sink: Optional[TraceSink],
        shapes: Dict[str, int],
    ):
        self.ir = ir
        self.opset = opset
        self.sink = sink
        self.shapes = shapes
        self.n_ranks = len(ir.loop_ranks)

        # Prepare each distinct (tensor, prep) once.
        self.prepared: List[Tensor] = []
        cache: Dict[tuple, Tensor] = {}
        for plan in ir.accesses:
            key = (plan.tensor, tuple(plan.prep))
            if key not in cache:
                if plan.tensor not in tensors:
                    raise ExecutionError(
                        f"missing input tensor {plan.tensor!r} for Einsum "
                        f"{ir.name}"
                    )
                cache[key] = prepare_tensor(
                    tensors[plan.tensor], rank_orders[plan.tensor], plan.prep
                )
                if sink and plan.is_intermediate:
                    for step in plan.prep:
                        if step.kind == "swizzle":
                            sink.swizzle(
                                plan.tensor, cache[key].nnz, side="consumer"
                            )
            self.prepared.append(cache[key])

        self.output = Tensor.empty(
            ir.output.tensor,
            list(ir.output.storage_ranks),
            shape=[shapes.get(r) for r in ir.output.storage_ranks],
        )
        # Ranks some physical level can structurally drive.
        self.statically_driven = set()
        for plan in ir.accesses:
            for lvl in plan.levels:
                if lvl.kind != VIRTUAL and _level_can_drive(
                    lvl, ir.binds.get(lvl.rank, ())
                ):
                    self.statically_driven.add(lvl.rank)
        # For take() Einsums, ranks that only *gate* the output (their
        # variables appear in neither the output nor the copied argument)
        # are existential: the first match suffices.
        self.existential = set()
        if ir.einsum.is_take:
            out_vars = set(ir.einsum.output.index_vars)
            kept = set(ir.einsum.expr.args[ir.einsum.expr.which].index_vars)
            for rank in ir.loop_ranks:
                binds = set(ir.binds.get(rank, ()))
                if binds and not (binds & (out_vars | kept)):
                    self.existential.add(rank)
        self.mul_ops = 0
        self.add_ops = 0
        self.leaves = 0

    # ------------------------------------------------------------------
    def run(self) -> Tensor:
        cursors = [_Cursor(t._tree(), 0, ()) for t in self.prepared]
        bindings: Dict[str, int] = {}
        cursors = self._advance_all(cursors, bindings, [])
        self._recurse(0, bindings, cursors, {}, {}, [])
        return self.output

    # ------------------------------------------------------------------
    def _shape_of(self, rank: str) -> int:
        origin = self.ir.origin.get(rank, rank)
        shape = self.ir.rank_shapes.get(rank)
        if shape is None:
            shape = self.shapes.get(origin)
        if shape is None:
            raise ExecutionError(
                f"cannot determine the shape of rank {rank} (origin {origin}) "
                "for dense iteration; declare it in the spec's einsum.shapes"
            )
        return shape

    # ------------------------------------------------------------------
    def _advance_all(self, cursors, bindings, ctx):
        """Advance every cursor through levels whose exprs are fully bound."""
        out = list(cursors)
        for i, plan in enumerate(self.ir.accesses):
            cur = out[i]
            while not cur.empty and cur.depth < len(plan.levels):
                lvl = plan.levels[cur.depth]
                if lvl.kind == VIRTUAL:
                    break  # virtual levels advance only at their loop rank
                if lvl.kind in (UPPER, FLAT_UPPER):
                    nxt = self._lookup_upper(plan, lvl, cur, bindings, ctx)
                    if nxt is None:
                        break
                    cur = nxt
                    continue
                if any(e.unbound(bindings) for e in lvl.exprs):
                    break
                if lvl.kind == FLAT:
                    coord = tuple(e.evaluate(bindings) for e in lvl.exprs)
                else:
                    coord = lvl.exprs[0].evaluate(bindings)
                if not isinstance(cur.node, Fiber):
                    cur = cur.as_empty()
                    break
                key = cur.path + (coord,)
                if self.sink:
                    self.sink.read(plan.tensor, lvl.of or lvl.rank, "coord",
                                   key, ctx)
                payload = cur.node.get_payload(coord)
                if payload is not None and self.sink:
                    self.sink.read(plan.tensor, lvl.of or lvl.rank, "payload",
                                   key, ctx)
                cur = cur.child(payload, coord)
            out[i] = cur
        return out

    def _lookup_upper(self, plan, lvl, cur, bindings, ctx):
        """Descend a chunk level by locating the chunk holding the (bound)
        original coordinate.  Returns the new cursor, or None if the target
        coordinate is not yet bound."""
        below = None
        for nxt in plan.levels[cur.depth + 1:]:
            if nxt.of == lvl.of and nxt.kind in (PLAIN, FLAT):
                below = nxt
                break
        if below is None:
            return None
        if any(e.unbound(bindings) for e in below.exprs):
            return None
        if below.kind == FLAT:
            target = tuple(e.evaluate(bindings) for e in below.exprs)
        else:
            target = below.exprs[0].evaluate(bindings)
        fiber = cur.node
        if not isinstance(fiber, Fiber) or not fiber.coords:
            return cur.as_empty()
        pos = bisect.bisect_right(fiber.coords, target) - 1
        if pos < 0:
            return cur.as_empty()
        chunk = fiber.payloads[pos]
        if self.sink:
            self.sink.read(plan.tensor, lvl.of or lvl.rank, "coord",
                           cur.path + (fiber.coords[pos],), ctx)
        return cur.child(chunk, fiber.coords[pos])

    # ------------------------------------------------------------------
    def _participants(self, rank, cursors, bindings, windows):
        """Live participants at this rank.

        Returns (physical, virtual, dead): physical is a list of
        (access index, level, fiber, path); dead means a conjunctive access
        is empty so the whole subtree is ineffectual.
        """
        physical = []
        virtual = []
        for i, plan in enumerate(self.ir.accesses):
            cur = cursors[i]
            if cur.empty:
                if plan.conjunctive:
                    return [], [], True
                continue
            if cur.depth >= len(plan.levels):
                continue
            lvl = plan.levels[cur.depth]
            if lvl.rank != rank:
                continue
            if lvl.kind == VIRTUAL:
                virtual.append(i)
                continue
            binds = self.ir.binds.get(rank, ())
            if not _level_can_drive(lvl, binds):
                continue
            fiber = cur.node
            if not isinstance(fiber, Fiber):
                continue
            if lvl.kind == PLAIN and not lvl.exprs[0].is_var:
                # Affine projection: shift coordinates into the unbound var.
                expr = lvl.exprs[0]
                bound_part = sum(
                    bindings[v] for v in expr.vars if v in bindings
                ) + expr.const
                fiber = fiber.project(-bound_part, lo=0, hi=self._shape_of(rank))
            elif lvl.kind == PLAIN:
                window = windows.get(lvl.of)
                if window is not None and fiber.coords:
                    lo, hi = window
                    if hi is None:
                        hi = fiber.coords[-1] + 1
                    fiber = fiber.slice(lo, hi)
            physical.append((i, lvl, fiber, cur.path))
        return physical, virtual, False

    # ------------------------------------------------------------------
    def _recurse(self, level, bindings, cursors, windows, stamps, ctx) -> bool:
        if level == self.n_ranks:
            return self._leaf(bindings, cursors, stamps, ctx)
        rank = self.ir.loop_ranks[level]
        physical, virtual, dead = self._participants(
            rank, cursors, bindings, windows
        )
        if dead:
            return False
        if not physical:
            if rank in self.statically_driven:
                return False  # drivers exist statically but none are live
            return self._iterate_dense(level, rank, bindings, cursors,
                                       windows, stamps, ctx)
        mode = self.ir.modes.get(rank, "single")
        if len(physical) == 1:
            items = self._single(physical[0], ctx)
        elif mode == "union":
            items = self._union(physical, ctx)
        else:
            items = self._intersect(rank, physical, ctx)
        binds = self.ir.binds.get(rank, ())
        wrote = False
        for pos, (coord, payloads) in enumerate(items):
            child_bindings = bindings
            if binds:
                child_bindings = dict(bindings)
                if len(binds) == 1:
                    child_bindings[binds[0]] = coord
                else:
                    for v, c in zip(binds, coord):
                        child_bindings[v] = c
            child_windows = windows
            child_cursors = list(cursors)
            for (i, lvl, _, path), payload in zip(physical, payloads):
                if payload is None:
                    child_cursors[i] = cursors[i].as_empty()
                    continue
                if self.sink:
                    self.sink.read(
                        self.ir.accesses[i].tensor, lvl.of or lvl.rank,
                        "payload", path + (coord,), ctx,
                    )
                child_cursors[i] = cursors[i].child(payload, coord)
                if lvl.kind in (UPPER, FLAT_UPPER) and isinstance(payload, Fiber):
                    if child_windows is windows:
                        child_windows = dict(windows)
                    child_windows[lvl.of] = payload.coord_range
            for i in virtual:
                child_cursors[i] = child_cursors[i].skip()
            child_stamps = self._stamp(stamps, rank, pos, coord)
            ctx.append((rank, coord))
            child_cursors = self._advance_all(child_cursors, child_bindings,
                                              ctx)
            sub_wrote = self._recurse(level + 1, child_bindings, child_cursors,
                                      child_windows, child_stamps, ctx)
            ctx.pop()
            wrote = wrote or sub_wrote
            if sub_wrote and rank in self.existential:
                break
        return wrote

    # ------------------------------------------------------------------
    def _iterate_dense(self, level, rank, bindings, cursors, windows, stamps,
                       ctx) -> bool:
        binds = self.ir.binds.get(rank, ())
        if len(binds) != 1:
            raise ExecutionError(
                f"rank {rank} has no driving tensor and binds {binds}; "
                "cannot iterate densely"
            )
        shape = self._shape_of(rank)
        var = binds[0]
        wrote = False
        for coord in range(shape):
            child_bindings = dict(bindings)
            child_bindings[var] = coord
            child_stamps = self._stamp(stamps, rank, coord, coord)
            ctx.append((rank, coord))
            child_cursors = self._advance_all(list(cursors), child_bindings,
                                              ctx)
            sub_wrote = self._recurse(level + 1, child_bindings, child_cursors,
                                      windows, child_stamps, ctx)
            ctx.pop()
            wrote = wrote or sub_wrote
            if sub_wrote and rank in self.existential:
                break
        return wrote

    # ------------------------------------------------------------------
    def _stamp(self, stamps, rank, pos, coord):
        if rank not in self.ir.time_ranks and rank not in self.ir.space_ranks:
            return stamps
        out = dict(stamps)
        style = self.ir.time_styles.get(rank, "pos")
        out[rank] = coord if style == "coord" else pos
        return out

    # ------------------------------------------------------------------
    def _single(self, part, ctx):
        i, lvl, fiber, path = part
        tensor = self.ir.accesses[i].tensor
        of = lvl.of or lvl.rank
        for coord, payload in fiber:
            if self.sink:
                self.sink.read(tensor, of, "coord", path + (coord,), ctx)
            yield coord, [payload]

    def _intersect(self, rank, parts, ctx):
        fibers = [f for _, _, f, _ in parts]
        visited = 0
        matched = 0
        positions = [0] * len(fibers)
        lengths = [len(f) for f in fibers]
        while all(p < n for p, n in zip(positions, lengths)):
            heads = [f.coords[p] for f, p in zip(fibers, positions)]
            top = max(heads)
            if all(h == top for h in heads):
                matched += 1
                visited += len(fibers)
                if self.sink:
                    for (i, lvl, _, path), f, p in zip(parts, fibers,
                                                       positions):
                        self.sink.read(
                            self.ir.accesses[i].tensor, lvl.of or lvl.rank,
                            "coord", path + (top,), ctx,
                        )
                yield top, [f.payloads[p] for f, p in zip(fibers, positions)]
                positions = [p + 1 for p in positions]
            else:
                for j in range(len(fibers)):
                    f, p = fibers[j], positions[j]
                    if f.coords[p] < top:
                        nxt = bisect.bisect_left(f.coords, top, p)
                        visited += nxt - p
                        if self.sink:
                            i, lvl, _, path = parts[j]
                            tensor = self.ir.accesses[i].tensor
                            of = lvl.of or lvl.rank
                            for q in range(p, nxt):
                                self.sink.read(tensor, of, "coord",
                                               path + (f.coords[q],), ctx)
                        positions[j] = nxt
        if self.sink:
            self.sink.isect(rank, visited, matched)

    def _union(self, parts, ctx):
        fibers = [f for _, _, f, _ in parts]
        all_coords = sorted(set().union(*(set(f.coords) for f in fibers)))
        for coord in all_coords:
            payloads = []
            for (i, lvl, _, path), f in zip(parts, fibers):
                p = f.get_payload(coord)
                if self.sink:
                    self.sink.read(self.ir.accesses[i].tensor,
                                   lvl.of or lvl.rank, "coord",
                                   path + (coord,), ctx)
                payloads.append(p)
            yield coord, payloads

    # ------------------------------------------------------------------
    def _leaf(self, bindings, cursors, stamps, ctx) -> bool:
        value, muls, adds = self._evaluate(self.ir.einsum.expr, cursors)
        if value is None:
            return False
        self.leaves += 1
        point = tuple(e.evaluate(bindings) for e in self.ir.output.indices)
        node = self.output.root
        for coord in point[:-1]:
            node = node.get_payload_ref(coord, make=Fiber)
        leaf_coord = point[-1] if point else 0
        existing = node.get_payload(leaf_coord)
        if existing is None or self.ir.einsum.is_take:
            node.set_payload(leaf_coord, value)
        else:
            node.set_payload(leaf_coord, self.opset.add(existing, value))
            adds += 1
        self.mul_ops += muls
        self.add_ops += adds
        if self.sink:
            time_stamp = tuple(stamps.get(r, 0) for r in self.ir.time_ranks)
            space_stamp = tuple(stamps.get(r, 0) for r in self.ir.space_ranks)
            if muls:
                self.sink.compute("mul", muls, time_stamp, space_stamp)
            if adds:
                self.sink.compute("add", adds, time_stamp, space_stamp)
            if not muls and not adds:
                # take()/copy Einsums still occupy their spacetime slot.
                self.sink.compute("copy", 1, time_stamp, space_stamp)
            self.sink.write(self.output.name,
                            self.ir.output.storage_ranks[-1]
                            if self.ir.output.storage_ranks else "root",
                            "elem", point, ctx)
        return True

    def _evaluate(self, expr, cursors, _counter=None):
        """Evaluate the expression tree at a leaf.

        Returns (value or None, mul_ops, add_ops); None means ineffectual.
        """
        if _counter is None:
            _counter = [0]

        if isinstance(expr, Access):
            idx = _counter[0]
            _counter[0] += 1
            cur = cursors[idx]
            if cur.empty or isinstance(cur.node, Fiber):
                return None, 0, 0
            return cur.node, 0, 0
        if isinstance(expr, Mul):
            values = []
            muls = adds = 0
            for f in expr.factors:
                v, m, a = self._evaluate(f, cursors, _counter)
                muls += m
                adds += a
                values.append(v)
            if any(v is None for v in values):
                return None, muls, adds
            acc = values[0]
            for v in values[1:]:
                acc = self.opset.mul(acc, v)
                muls += 1
            return acc, muls, adds
        if isinstance(expr, Add):
            lv, lm, la = self._evaluate(expr.left, cursors, _counter)
            rv, rm, ra = self._evaluate(expr.right, cursors, _counter)
            muls = lm + rm
            adds = la + ra
            if lv is None and rv is None:
                return None, muls, adds
            if rv is None:
                return lv, muls, adds
            if lv is None:
                return (None if expr.negate else rv), muls, adds
            op = self.opset.sub if expr.negate else self.opset.add
            return op(lv, rv), muls, adds + 1
        if isinstance(expr, Take):
            values = []
            for _ in expr.args:
                idx = _counter[0]
                _counter[0] += 1
                cur = cursors[idx]
                if cur.empty or isinstance(cur.node, Fiber):
                    values.append(None)
                else:
                    values.append(cur.node)
            if any(v is None for v in values):
                return None, 0, 0
            return values[expr.which], 0, 0
        raise ExecutionError(f"cannot evaluate {expr!r}")


def execute_einsum(
    ir: LoopNestIR,
    tensors: Dict[str, Tensor],
    rank_orders: Dict[str, List[str]],
    opset: OpSet = ARITHMETIC,
    sink: Optional[TraceSink] = None,
    shapes: Optional[Dict[str, int]] = None,
) -> Tensor:
    """Execute one lowered Einsum; returns its (pruned) output tensor."""
    if sink:
        sink.einsum_begin(ir.name, ir)
    run = _EinsumRun(ir, tensors, rank_orders, opset, sink, shapes or {})
    out = run.run()
    if sink and ir.output.needs_producer_swizzle:
        sink.swizzle(out.name, out.nnz, side="producer")
    out = out.prune_empty()
    if sink:
        sink.einsum_end(ir.name)
    return out


#: Fault-injection seam (tests only).  ``install_fault_hook`` refuses to
#: arm unless ``REPRO_FAULT_INJECTION=1`` is set in the environment, so
#: production evaluation can never trip over a leftover hook; with the
#: gate open, every cascade execution (both engines — they share
#: :func:`cascade_context`) offers the spec to the hook before running,
#: and the hook may raise, hang, or kill the process to exercise the
#: sweep supervisor's recovery paths deterministically.
_FAULT_HOOK = None

FAULT_INJECTION_ENV = "REPRO_FAULT_INJECTION"


def install_fault_hook(hook) -> None:
    """Arm (or with ``None``, disarm) the test-only fault hook.

    The hook is called as ``hook(spec)`` at the top of every cascade
    execution.  Installing a non-None hook without
    ``REPRO_FAULT_INJECTION=1`` in the environment raises — the seam is
    for the fault-injection test harness, never for production paths.
    """
    global _FAULT_HOOK
    if hook is not None and os.environ.get(FAULT_INJECTION_ENV) != "1":
        raise RuntimeError(
            f"fault injection is gated: set {FAULT_INJECTION_ENV}=1 in "
            "the environment before installing a fault hook"
        )
    _FAULT_HOOK = hook


class _FaultPoint:
    """A named non-spec fault-injection site (see :func:`fault_point`).

    Carries only a ``name`` so the same hook (and the same rule-matching
    harness) that targets specs by name can target arbitrary code paths
    — persistent-store commits, job-lease transitions — by theirs.
    """

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


def fault_point(name: str) -> None:
    """Offer a named code-path site to the armed fault hook.

    Durability-critical sequences (the persistent store's
    write-temp-then-replace commit, the job runner's lease transitions)
    call this at each step so the fault harness can kill or crash a
    worker *between* steps deterministically.  A no-op unless a hook is
    armed (which requires ``REPRO_FAULT_INJECTION=1``), so production
    paths pay one global read.
    """
    if _FAULT_HOOK is not None:
        _FAULT_HOOK(_FaultPoint(name))


def cascade_context(
    spec: AcceleratorSpec,
    tensors: Dict[str, Tensor],
    shapes: Optional[Dict[str, int]] = None,
    env: Optional[Dict[str, Tensor]] = None,
):
    """Shared cascade setup: (env, resolved shapes, rank orders).

    Both execution engines (this interpreter and the compiled backend)
    resolve their inputs through this one helper so their shape and
    rank-order semantics can never drift apart.
    """
    if _FAULT_HOOK is not None:
        _FAULT_HOOK(spec)
    if env is None:
        env = {}
    env.update(tensors)
    all_shapes = _resolve_shapes(spec, env)
    if shapes:
        all_shapes.update(shapes)
    rank_orders = {
        t: spec.mapping.rank_order_of(t, spec.einsum.ranks_of(t))
        for t in spec.einsum.tensors
    }
    return env, all_shapes, rank_orders


def execute_cascade(
    spec: AcceleratorSpec,
    tensors: Dict[str, Tensor],
    opset: OpSet = ARITHMETIC,
    sink: Optional[TraceSink] = None,
    shapes: Optional[Dict[str, int]] = None,
    env: Optional[Dict[str, Tensor]] = None,
) -> Dict[str, Tensor]:
    """Execute every Einsum of a spec's cascade on real input tensors.

    ``tensors`` maps input names to fibertree tensors in *declared* rank
    order; every Einsum runs under ``opset``.  ``env``, when given, is
    mutated in place (so a sink holding the same dict sees intermediates
    as they are produced).  Returns the environment with all
    intermediates and outputs added.
    """
    env, all_shapes, rank_orders = cascade_context(spec, tensors, shapes,
                                                   env)
    for ir in build_cascade_ir(spec):
        env[ir.name] = execute_einsum(ir, env, rank_orders, opset, sink,
                                      all_shapes)
    return env


def _resolve_shapes(spec: AcceleratorSpec, env: Dict[str, Tensor]) -> Dict[str, int]:
    """Rank name -> shape, from explicit spec shapes plus input tensors."""
    shapes: Dict[str, int] = dict(spec.einsum.shapes)
    for name, tensor in env.items():
        declared = spec.einsum.declaration.get(name)
        if declared is None:
            continue
        for rank, extent in zip(tensor.rank_ids, tensor.shape):
            if extent is not None and rank in declared:
                shapes.setdefault(rank, extent)
    return shapes
