"""Execution backends: the interpreter and the compiled fast path.

TeAAL's pitch is that one declarative spec yields a *generated* simulator,
so the generated-Python backend is the default execution engine.  This
module provides:

* :func:`spec_cache_key` — a canonical, dict-order-insensitive key for the
  parts of a spec that determine lowering (einsum + mapping + params);
* :class:`CompileCache` — a process-wide memo from canonical spec keys to
  lowered IR plus compiled kernel objects (the arena-native flat,
  counted, and vector flavors, each compiled on first use), so repeated
  evaluations — sweeps, batched workloads, figure benchmarks — lower and
  compile exactly once;
* :class:`InterpreterBackend` / :class:`CompiledBackend` — interchangeable
  engines behind :func:`repro.model.evaluate.evaluate`.  The interpreter
  is the reference oracle and the only engine that emits per-event trace
  streams: a compiled run with a sink delegates to it.  Untraced compiled
  runs use the arena-native flat kernels; with ``fallback=True`` (the
  default engine) a mapping the generator cannot express runs on the
  interpreter instead.  Priced runs
  (:meth:`CompiledBackend.run_cascade_fused`) pick a kernel per Einsum
  from its binding: the port-free ``counted`` kernel when nothing routes
  to a buffer or cache, the ported ``vector`` kernel otherwise.

Select an engine with ``evaluate(..., backend="compiled")`` (or
``"interpreter"`` / ``"auto"`` / a :class:`Backend` instance), and batch
with ``evaluate_many(spec, workloads, workers=N)`` which compiles once and
fans out across workloads.
"""

from __future__ import annotations

import functools
import hashlib
import threading
from dataclasses import fields, is_dataclass
from typing import Any, Callable, Dict, List, Optional

from ..einsum.operators import ARITHMETIC, OpSet
# ``arena_from_tensor`` and ``prepare_tensor`` (below) are unused here but
# stay importable from this module: profiling tools wrap the boxed
# route's entry points by name.
from ..fibertree.arena import FlatArena, arena_from_tensor
from ..fibertree.prepare import prepare_arena
from ..fibertree.tensor import Tensor
from ..ir.builder import build_cascade_ir
from ..ir.codegen import CodegenError, compile_ir
from ..ir.nodes import LoopNestIR
from ..spec.loader import AcceleratorSpec
from .executor import (
    ExecutionError,
    cascade_context,
    execute_cascade,
    execute_einsum,
    prepare_tensor,
)
from .traces import KernelCounters, TraceSink


# ----------------------------------------------------------------------
# Canonical spec keys
# ----------------------------------------------------------------------
def canonical_key(obj: Any):
    """A hashable, canonical form of (nested) spec data.

    Dataclasses canonicalize field by field, dicts sort their items (so
    YAML/dict insertion order never affects the key), sequences preserve
    order (lists of directives are applied in order — that *is*
    semantic).  Values are tagged with their type name so e.g. ``1`` and
    ``True`` cannot collide.

    Each object is encoded by its exact type's encoder, chosen once per
    type (:func:`_encoder`): spec layers are mutable dataclasses, so the
    keys themselves are never memoized, but the ``isinstance`` chain and
    a dataclass's field names are.
    """
    cls = type(obj)
    if cls in _SCALARS:
        return (cls.__name__, obj)
    encode = _ENCODERS.get(cls)
    if encode is None:
        encode = _ENCODERS[cls] = _encoder(cls)
    return encode(obj)


#: The exact scalar types, encoded inline.
_SCALARS = frozenset((str, int, float, bool, type(None)))


def _scalar_key(obj):
    return (type(obj).__name__, obj)


def _dict_key(obj):
    items = [(canonical_key(k), canonical_key(v)) for k, v in obj.items()]
    items.sort(key=lambda kv: repr(kv[0]))
    return ("dict", tuple(items))


def _seq_key(obj):
    return ("seq", tuple(map(canonical_key, obj)))


def _set_key(obj):
    return ("set", tuple(sorted(map(canonical_key, obj), key=repr)))


def _repr_key(obj):
    return ("repr", repr(obj))


def _encoder(cls: type) -> Callable[[Any], Any]:
    """The encoder :func:`canonical_key` uses for instances of ``cls``.

    The same checks, in the same order, as an ``isinstance`` chain over
    the instance, so every key is what a per-object walk would build."""
    if is_dataclass(cls) and not issubclass(cls, type):
        name = cls.__name__
        names = tuple(f.name for f in fields(cls))

        def dataclass_key(obj):
            return (name, tuple([(n, canonical_key(getattr(obj, n)))
                                 for n in names]))
        return dataclass_key
    if issubclass(cls, dict):
        return _dict_key
    if issubclass(cls, (list, tuple)):
        return _seq_key
    if issubclass(cls, (set, frozenset)):
        return _set_key
    if issubclass(cls, (str, int, float, bool, type(None))):
        return _scalar_key
    return _repr_key


#: Type -> encoder, filled by :func:`canonical_key` on first sight.
_ENCODERS: Dict[type, Callable[[Any], Any]] = {}


def spec_cache_key(spec: AcceleratorSpec):
    """Canonical key over the spec layers that determine lowering.

    Format, architecture, and binding shape only the *pricing* of trace
    events (handled by the sink), never the generated loop nest, so two
    specs differing only there share compiled kernels.  ``spec.name`` is
    cosmetic and excluded.
    """
    return canonical_key((spec.einsum, spec.mapping, spec.params))


def spec_fingerprint(spec: AcceleratorSpec) -> str:
    """A stable hex digest identifying a spec's full semantics.

    Unlike :func:`spec_cache_key` (which keys compiled kernels and so
    deliberately ignores the pricing-only layers), this covers *every*
    layer that can change an evaluation result — einsum, mapping,
    format, architecture, binding, and params — because it identifies
    durable sweep artifacts (result-store keys, job manifests), where
    "same fingerprint" must mean "bit-identical metrics".  ``spec.name`` stays excluded: it is
    cosmetic, and candidate application rewrites it.
    """
    key = canonical_key((spec.einsum, spec.mapping, spec.format,
                         spec.architecture, spec.binding, spec.params))
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Compile cache
# ----------------------------------------------------------------------
class CompiledEinsum:
    """Lowered IR plus compiled kernels for one Einsum of a cascade.

    Three arena-native flavors share the lowered IR — ``flat``,
    ``counted`` and ``vector``, all walking
    :class:`~repro.fibertree.arena.FlatArena` spans.  Each compiles on
    first use; a :class:`CodegenError` is memoized like a kernel.
    """

    def __init__(self, ir: LoopNestIR):
        self.ir = ir
        self._kernels: Dict[str, tuple] = {}
        self._errors: Dict[str, CodegenError] = {}
        self._lock = threading.Lock()

    def _get(self, flavor: str) -> Callable:
        entry = self._kernels.get(flavor)
        if entry is not None:
            return entry[0]
        err = self._errors.get(flavor)
        if err is not None:
            raise err
        with self._lock:
            entry = self._kernels.get(flavor)
            if entry is not None:
                return entry[0]
            err = self._errors.get(flavor)
            if err is not None:
                raise err
            try:
                fn, src = compile_ir(self.ir, flavor)
            except CodegenError as exc:
                self._errors[flavor] = exc
                raise
            self._kernels[flavor] = (fn, src)
            return fn

    def source_for(self, flavor: str) -> str:
        self._get(flavor)
        return self._kernels[flavor][1]

    @property
    def traced(self) -> Callable:
        """The interpreter on this Einsum (``execute_einsum`` bound to
        the IR).  Kept only because the benchmark's set-up forces this
        attribute; it goes once that set-up stops naming it."""
        return functools.partial(execute_einsum, self.ir)

    @property
    def flat(self) -> Callable:
        """The untraced arena kernel (raises CodegenError if the flat
        generator cannot express this Einsum)."""
        return self._get("flat")

    @property
    def counted(self) -> Callable:
        """The priced arena kernel without machine ports: fused counters,
        with eligible innermost-rank spans priced through batched numpy
        primitives; per-span runtime guards fall back to the inline
        scalar loop, so results never depend on which path ran.  Runs an
        Einsum whose binding routes nothing to a buffer or cache (raises
        CodegenError if the flat generator cannot express this
        Einsum)."""
        return self._get("counted")

    @property
    def vector(self) -> Callable:
        """The priced arena kernel with machine ports: :attr:`counted`
        plus the buffet/cache state machines inlined behind per-touch
        ports (raises CodegenError if the flat generator cannot express
        this Einsum).  Binding-independent: the machine routing arrives
        at call time via the ``fm`` argument, so one compiled kernel
        serves every binding.

        An innermost loop takes one of three branches: the numpy span
        branch (a long enough reduction span); the batched leaf, which
        runs the port-free loop and then makes one span call per
        machine port, when each machine sees one access and the output
        window is fixed across the loop; or the per-event loop, one
        machine call per touch.  All three give the same metrics."""
        return self._get("vector")


class CompiledCascade:
    """Every Einsum of one spec, lowered and compiled."""

    def __init__(self, spec: AcceleratorSpec):
        from ..analysis.ir_verify import verify_cascade_irs

        irs = build_cascade_ir(spec)
        verify_cascade_irs(irs)
        self.units: List[CompiledEinsum] = [CompiledEinsum(ir) for ir in irs]


class CompileCache:
    """Memoizes lowering + compilation per canonical spec key, for the
    life of one process."""

    def __init__(self):
        self._cache: Dict[Any, CompiledCascade] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._cache)

    def get(self, spec: AcceleratorSpec) -> CompiledCascade:
        key = spec_cache_key(spec)
        with self._lock:
            cached = self._cache.get(key)
            if cached is not None:
                self.hits += 1
                return cached
        # Lowering runs outside the lock: it can be slow.
        compiled = CompiledCascade(spec)
        with self._lock:
            winner = self._cache.setdefault(key, compiled)
            self.misses += 1
        return winner

    def clear(self) -> None:
        with self._lock:
            self._cache.clear()
            self.hits = 0
            self.misses = 0


#: Process-wide cache shared by the default backends.
GLOBAL_COMPILE_CACHE = CompileCache()


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------
class Backend:
    """An execution engine for a spec's cascade on real tensors."""

    name = "base"

    def run_cascade(
        self,
        spec: AcceleratorSpec,
        tensors: Dict[str, Tensor],
        opset: OpSet = ARITHMETIC,
        sink: Optional[TraceSink] = None,
        shapes: Optional[Dict[str, int]] = None,
        env: Optional[Dict[str, Tensor]] = None,
        prep_cache: Optional[PrepCache] = None,
    ) -> Dict[str, Tensor]:
        raise NotImplementedError


class InterpreterBackend(Backend):
    """The reference engine: interprets loop-nest IR over fibertrees.

    ``prep_cache`` is accepted for signature parity and ignored: the
    reference prepares every input afresh."""

    name = "interpreter"

    def run_cascade(self, spec, tensors, opset=ARITHMETIC, sink=None,
                    shapes=None, env=None, prep_cache=None):
        return execute_cascade(spec, tensors, opset=opset, sink=sink,
                               shapes=shapes, env=env)


class PrepCache:
    """Memoizes input preparation across evaluations that share input
    tensor objects.

    A mapping sweep (:func:`repro.search.search`) evaluates many
    candidate specs over the *same* input tensors; without a shared
    cache every candidate re-swizzles, re-partitions, and re-flattens
    each input from scratch.  One ``PrepCache`` per sweep memoizes each
    prepared :class:`~repro.fibertree.arena.FlatArena` the arena kernels
    walk under one key: source-object identity, rank order, and the
    exact prep-step sequence (candidates that share a storage order
    share the work).  Callers pass only cascade inputs; per-run
    intermediates are never offered, so nothing an evaluation produces
    is pinned.

    Entries pin their source objects so ``id()`` keys can never be
    recycled.  :func:`repro.search.search` builds one per sweep (or
    takes the caller's ``prep_cache=``) and prices every in-process
    candidate through it; process-pool workers prepare their own.  The
    cache is thread-safe, because a caller may share one instance
    across its own threads (concurrent sweeps over the same inputs), so
    lookups and inserts synchronize on an internal lock.  Builds run
    *outside* the lock (preparation can be slow); when two threads race
    to prepare the same arena, one build is discarded and both threads
    share the first-inserted arena.
    """

    __slots__ = ("_prepared", "_lock", "hits", "misses")

    def __init__(self):
        # (id(src), rank_order, prep) -> (src pin, prepared arena)
        self._prepared: Dict[tuple, tuple] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def arena(self, src: Tensor, rank_order, prep, build) -> FlatArena:
        """The prepared arena of ``src`` (built by ``build()`` on a miss)."""
        key = (id(src), tuple(rank_order), tuple(prep))
        with self._lock:
            entry = self._prepared.get(key)
            if entry is not None:
                self.hits += 1
                return entry[1]
        built = build()
        with self._lock:
            entry = self._prepared.get(key)
            if entry is not None:
                # Lost a build race: adopt the winner so every caller
                # shares one arena.
                self.hits += 1
                return entry[1]
            self.misses += 1
            self._prepared[key] = (src, built)
            return built


class CompiledBackend(Backend):
    """Runs generated-Python kernels out of a compile cache.

    Functionally equivalent to the interpreter, and its priced runs
    (:meth:`run_cascade_fused`) price exactly what the interpreter's
    trace would (the differential suite enforces both).

    Untraced runs (``sink=None``) execute the arena-native *flat*
    kernels: inputs are prepared straight into
    :class:`~repro.fibertree.arena.FlatArena` structure-of-arrays
    buffers (:func:`~repro.fibertree.prepare.prepare_arena`, no
    prepared fibertree in between) and the generated loops stream over
    raw index spans.  A traced run (a ``sink``) delegates to the
    interpreter, the one engine that emits per-event streams.  When
    some Einsum's flat kernel is rejected, ``fallback=True`` runs the
    interpreter instead of raising :class:`CodegenError`; a priced
    :func:`~repro.model.evaluate.evaluate` follows the same rule.
    """

    name = "compiled"

    def __init__(self, cache: Optional[CompileCache] = None,
                 fallback: bool = False):
        self.cache = cache if cache is not None else GLOBAL_COMPILE_CACHE
        self.fallback = fallback
        self._interpreter = InterpreterBackend()

    def compile(self, spec: AcceleratorSpec) -> CompiledCascade:
        """Lower and verify a spec into the cache (raises
        :class:`~repro.ir.builder.BuildError` or
        :class:`~repro.analysis.IRVerificationError` if it does not
        lower); its kernels compile on first use, raising
        :class:`CodegenError` then if the generator rejects them."""
        return self.cache.get(spec)

    def _walk_cascade(self, spec, compiled, tensors, opset, sink, shapes,
                      env, run_unit, after=None, prep_cache=None):
        """The per-Einsum cascade walk every kernel path shares.

        ``run_unit(unit, prepare, opset, shapes)`` executes one Einsum's
        kernel on ``prepare()`` — its inputs as arenas — and returns
        ``(out, written, extra)``: the output tensor with zero leaves
        pruned, the number of points the kernel wrote (zeros included;
        what a producer-side swizzle sorts, only read under a sink), and
        the path's pricing payload.
        ``after(name, extra)`` fires between the producer-swizzle event
        and ``einsum_end`` (the pricing hook of the priced path).
        """
        env, all_shapes, rank_orders = cascade_context(spec, tensors,
                                                       shapes, env)
        for unit in compiled.units:
            ir = unit.ir
            if sink:
                sink.einsum_begin(ir.name, ir)

            def prepare(ir=ir):
                return self._prepare(ir, env, rank_orders, sink,
                                     prep_cache)

            out, written, extra = run_unit(unit, prepare, opset, all_shapes)
            if sink and ir.output.needs_producer_swizzle:
                sink.swizzle(out.name, written, side="producer")
            if after:
                after(ir.name, extra)
            env[ir.name] = out
            if sink:
                sink.einsum_end(ir.name)
        return env

    def run_cascade(self, spec, tensors, opset=ARITHMETIC, sink=None,
                    shapes=None, env=None, prep_cache=None):
        try:
            compiled = self.cache.get(spec)
            if not sink:
                for unit in compiled.units:
                    unit.flat  # force-compile everything up front
        except CodegenError:
            if not self.fallback:
                raise
            compiled = None
        if sink or compiled is None:
            return self._interpreter.run_cascade(
                spec, tensors, opset=opset, sink=sink, shapes=shapes,
                env=env,
            )

        def run_unit(unit, prepare, ops, all_shapes):
            return unit.flat(prepare(), ops, all_shapes), 0, None

        return self._walk_cascade(spec, compiled, tensors, opset, sink,
                                  shapes, env, run_unit,
                                  prep_cache=prep_cache)

    def run_cascade_fused(self, spec, tensors, opset=ARITHMETIC,
                          sink=None, shapes=None, env=None,
                          make_machines=None, on_fused=None,
                          prep_cache=None):
        """Run the cascade through the priced arena kernels.

        No per-element trace events are emitted.  For each Einsum,
        ``make_machines(name, ir)`` returns the buffet/cache routing plan
        (a ``port(tensor, rank, kind)`` method — see
        :class:`repro.model.evaluate.FusedMachines`), or None when the
        binding routes nothing to a machine.  A plan runs the ported
        ``vector`` kernel; None (or no ``make_machines``) runs the
        port-free ``counted`` kernel, every touch priced as DRAM traffic
        from the counters.  After the kernel returns,
        ``on_fused(name, counters, machines)`` prices the aggregate
        :class:`~repro.model.traces.KernelCounters` and the machine
        tallies (``machines`` may be None); ``sink`` still receives the
        per-Einsum brackets and swizzle events.

        Raises :class:`CodegenError` when the flat generator cannot
        express some Einsum of the cascade.
        """
        compiled = self.cache.get(spec)

        def run_unit(unit, prepare, ops, all_shapes):
            counters = KernelCounters()
            machines = make_machines(unit.ir.name, unit.ir) \
                if make_machines else None
            if machines is None:
                out = unit.counted(prepare(), ops, all_shapes, counters)
            else:
                out = unit.vector(prepare(), ops, all_shapes, counters,
                                  machines)
            return out, counters.out_points, (counters, machines)

        def after(name, extra):
            if on_fused:
                on_fused(name, *extra)

        return self._walk_cascade(spec, compiled, tensors, opset, sink,
                                  shapes, env, run_unit, after,
                                  prep_cache=prep_cache)

    #: The benchmark's traced run wraps this name through the class
    #: ``__dict__``, so it stays until that set-up stops naming it
    #: (ROADMAP item 1).
    run_cascade_counted = run_cascade_fused

    @staticmethod
    def _prepare(ir, env, rank_orders, sink,
                 prep_cache: Optional[PrepCache] = None
                 ) -> Dict[str, FlatArena]:
        """Prepared :class:`~repro.fibertree.arena.FlatArena` inputs for
        one Einsum, with consumer-swizzle events.

        Mirrors the interpreter's per-(tensor, prep) dedup so swizzle
        events on intermediates are emitted exactly once.  With a
        ``prep_cache``, non-intermediate inputs memoize across
        evaluations that share the source tensor objects (intermediates
        are per-run and never cached — caching them would pin every
        candidate's outputs for the life of a sweep).
        """
        prepared: Dict[str, FlatArena] = {}
        seen: Dict[tuple, FlatArena] = {}
        for plan in ir.accesses:
            key = (plan.tensor, tuple(plan.prep))
            if key not in seen:
                if plan.tensor not in env:
                    raise ExecutionError(
                        f"missing input tensor {plan.tensor!r} for Einsum "
                        f"{ir.name}"
                    )
                src = env[plan.tensor]
                order = rank_orders[plan.tensor]
                if prep_cache is not None and not plan.is_intermediate:
                    seen[key] = prep_cache.arena(
                        src, order, plan.prep,
                        lambda: prepare_arena(src, order, plan.prep))
                else:
                    seen[key] = prepare_arena(src, order, plan.prep)
                if sink and plan.is_intermediate:
                    for step in plan.prep:
                        if step.kind == "swizzle":
                            sink.swizzle(plan.tensor, seen[key].nnz,
                                         side="consumer")
            prepared[plan.tensor] = seen[key]
        return prepared


#: The default engine: compiled kernels with interpreter fallback.
DEFAULT_BACKEND = CompiledBackend(fallback=True)

_NAMED: Dict[str, Callable[[], Backend]] = {
    "auto": lambda: DEFAULT_BACKEND,
    "compiled": lambda: CompiledBackend(),
    "interpreter": lambda: InterpreterBackend(),
}


def resolve_backend(backend: Any = None) -> Backend:
    """Resolve a backend argument: None/'auto', a name, or an instance."""
    if backend is None:
        return DEFAULT_BACKEND
    if isinstance(backend, Backend):
        return backend
    if isinstance(backend, str):
        try:
            return _NAMED[backend]()
        except KeyError:
            raise ValueError(
                f"unknown backend {backend!r}; known: {sorted(_NAMED)}"
            ) from None
    raise TypeError(f"cannot resolve a backend from {type(backend).__name__}")
