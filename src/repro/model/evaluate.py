"""End-to-end evaluation: run a spec on real tensors and produce traffic,
time, and energy (paper Figure 6, right half).

:class:`ModelSink` routes executor trace events to component models per the
binding specification; :func:`evaluate` runs the whole cascade, applies the
paper's Einsum-block fusion rules (section 4.3), performs the per-block
bottleneck analysis, and reduces action counts to energy.
"""

from __future__ import annotations

import logging
import os
import warnings
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..einsum.operators import ARITHMETIC, NAMED_OPSETS, OpSet
from ..fibertree.tensor import Tensor
from ..spec.architecture import Component, Topology
from ..spec.loader import AcceleratorSpec
from ..ir.codegen import CodegenError
from ..ir.codegen_runtime import (
    CODE,
    DEPTH,
    RUN,
    WHOLE_CTX,
    FusedBuffet,
    FusedCache,
)
from .backend import (
    CompiledBackend,
    InterpreterBackend,
    resolve_backend,
)
from .components import (
    BuffetModel,
    CacheModel,
    ComputeModel,
    DramModel,
    IntersectModel,
    MergerModel,
    SequencerModel,
    Traffic,
)
from .energy import EnergyModel
from .footprint import FootprintOracle, algorithmic_minimum_bits
from .traces import KernelCounters, TraceSink

logger = logging.getLogger("repro.model")

_DEFAULT_DRAM = Component(name="DRAM", klass="DRAM",
                          attributes={"bandwidth": 128})
_DEFAULT_COMPUTE = Component(name="ALU", klass="Compute",
                             attributes={"type": "mul"})


class EnvVarError(ValueError):
    """A ``REPRO_*`` environment variable holds an invalid value.

    Raised (naming the variable and the offending value) instead of the
    opaque ``ValueError`` an unguarded ``int()`` would produce, or the
    silent fallback an unknown enum value used to get.
    """


class ProcessExecutorError(ValueError):
    """An explicit ``workers > 1`` request cannot be honored.

    The process pool ships work by pickle, so it only supports a named
    opset, the default energy model, and the default backend.  When the
    *caller* asked for a pool by argument, hitting an unsupported
    combination raises this error (naming every offending argument)
    rather than silently running serially; a worker count from
    ``REPRO_EVALUATE_WORKERS`` falls back to serial with an
    :class:`ExecutorDowngradeWarning` instead.
    """


class ExecutorDowngradeWarning(RuntimeWarning):
    """A process pool requested through ``REPRO_EVALUATE_WORKERS`` ran
    serially because the arguments cannot cross a process boundary.
    The warning names each offending argument (via
    :func:`process_incompatibilities`); results are unaffected — serial
    and process fan-out are bit-identical — but nothing runs in
    parallel."""


class StoreBypassWarning(RuntimeWarning):
    """A ``cache=`` request was bypassed because the arguments cannot be
    keyed durably (via :func:`cache_incompatibilities`, naming each
    offender).  The evaluation still runs — uncached — so results are
    unaffected; only the persistence is lost."""


@dataclass
class EinsumModel:
    """All component models active for one Einsum."""

    name: str
    config: Optional[str]
    topology: Optional[Topology]
    dram: DramModel
    buffers: List = field(default_factory=list)  # Buffet/Cache models
    intersects: Dict[str, IntersectModel] = field(default_factory=dict)
    computes: Dict[str, ComputeModel] = field(default_factory=dict)
    mergers: Dict[str, MergerModel] = field(default_factory=dict)
    sequencers: Dict[str, SequencerModel] = field(default_factory=dict)
    routes: Dict[str, list] = field(default_factory=dict)  # tensor -> bindings

    @property
    def clock_hz(self) -> float:
        return self.topology.clock_hz if self.topology else 1e9

    def all_models(self) -> list:
        return (
            [self.dram]
            + self.buffers
            + list(self.intersects.values())
            + list(self.computes.values())
            + list(self.mergers.values())
            + list(self.sequencers.values())
        )

    def action_counts(self) -> Dict[str, float]:
        counts: Counter = Counter()
        for model in self.all_models():
            for action, n in model.action_counts().items():
                counts[action] += n
        return dict(counts)

    def component_times(self) -> Dict[str, float]:
        """Per-component execution time of this Einsum, in seconds."""
        times: Dict[str, float] = {"DRAM": self.dram.time_seconds()}
        clock = self.clock_hz
        for model in self.buffers:
            name = model.component.name
            times[name] = times.get(name, 0.0) + model.time_seconds(clock)
        for group in (self.intersects, self.computes, self.mergers,
                      self.sequencers):
            for model in group.values():
                name = model.component.name
                times[name] = times.get(name, 0.0) + model.time_seconds(clock)
        return times


class ModelSink(TraceSink):
    """Routes trace events to component models per the binding spec."""

    def __init__(self, spec: AcceleratorSpec, env: Dict[str, Tensor]):
        self.spec = spec
        self.env = env
        config_of: Dict[str, str] = {}
        for binding in spec.binding.einsums.values():
            for entries in binding.data.values():
                for entry in entries:
                    if entry.config:
                        config_of.setdefault(entry.tensor, entry.config)
        self.oracle = FootprintOracle(spec.format, config_of)
        self.einsums: Dict[str, EinsumModel] = {}
        self.current: Optional[EinsumModel] = None
        self._stored_cache: Dict[str, Tensor] = {}

    def stored(self, name: str) -> Tensor:
        """The tensor as stored: swizzled to its mapping rank-order."""
        if name not in self._stored_cache:
            t = self.env[name]
            order = self.spec.mapping.rank_order_of(
                name, self.spec.einsum.ranks_of(name)
            )
            if list(t.rank_ids) != order:
                t = t.swizzle(order)
            self._stored_cache[name] = t
        return self._stored_cache[name]

    # ------------------------------------------------------------------
    def einsum_begin(self, name: str, ir) -> None:
        binding = self.spec.binding.for_einsum(name)
        topo: Optional[Topology] = None
        if self.spec.architecture.topologies:
            topo = self.spec.architecture.topology(binding.config)
        drams = topo.of_class("DRAM") if topo else []
        dram = DramModel(drams[0] if drams else _DEFAULT_DRAM)
        em = EinsumModel(name=name, config=binding.config, topology=topo,
                         dram=dram)

        for comp_name, entries in binding.data.items():
            component = topo.component(comp_name) if topo else None
            if component is None or component.klass == "DRAM":
                # Data bound straight to DRAM needs no buffer model; events
                # fall through to direct traffic accounting.
                continue
            for entry in entries:
                kind = entry.type if entry.type in ("coord", "payload") else "elem"
                element_bits = self.oracle.access_bits(
                    entry.tensor, entry.rank, kind
                )
                fill_bits = element_bits
                if (entry.style == "eager" or entry.type == "subtree") and \
                        entry.tensor in self.env:
                    fill_bits = self.oracle.subtree_bits_per_element(
                        self.stored(entry.tensor), entry.rank
                    )
                # Subtree/eager bindings cover every rank at-or-below the
                # bound rank; keys are truncated to the bound rank's depth so
                # lower-rank touches hit the same buffered entry.
                key_depth = None
                declared = self.spec.einsum.declaration.get(entry.tensor)
                if entry.type == "subtree" or entry.style == "eager":
                    if entry.rank == "root":
                        key_depth = 0
                    elif declared and entry.rank in declared:
                        key_depth = declared.index(entry.rank) + 1
                if component.attr("type", "buffet") == "cache":
                    model = CacheModel(component, entry, dram, element_bits,
                                       fill_bits, key_depth)
                else:
                    model = BuffetModel(component, entry, dram, element_bits,
                                        fill_bits, key_depth)
                em.buffers.append(model)
                em.routes.setdefault(entry.tensor, []).append((entry, model))

        for comp_name, entries in binding.ops.items():
            component = topo.component(comp_name) if topo else None
            for entry in entries:
                if component is None:
                    continue
                if component.klass == "Intersection":
                    em.intersects[comp_name] = IntersectModel(component)
                elif component.klass == "Merger":
                    em.mergers[comp_name] = MergerModel(component)
                elif component.klass == "Sequencer":
                    em.sequencers[comp_name] = SequencerModel(component)
                elif component.klass == "Compute":
                    em.computes.setdefault(entry.op, ComputeModel(component))
        if not em.computes:
            em.computes["mul"] = ComputeModel(_DEFAULT_COMPUTE)
        self.einsums[name] = em
        self.current = em

    def einsum_end(self, name: str) -> None:
        em = self.einsums[name]
        for model in em.buffers:
            model.finish()
        for model in em.computes.values():
            model.finish()
        self.current = None

    # ------------------------------------------------------------------
    def _route(self, tensor: str, rank: str, kind: str):
        em = self.current
        declared = self.spec.einsum.declaration.get(tensor)
        for entry, model in em.routes.get(tensor, ()):  # in binding order
            if entry.type == "subtree" or entry.style == "eager":
                if entry.rank == "root":
                    return model
                if declared and rank in declared and entry.rank in declared:
                    if declared.index(rank) >= declared.index(entry.rank):
                        return model
                continue
            if entry.rank not in (rank, "root"):
                continue
            if entry.type == "elem" or entry.type == kind:
                return model
        return None

    def read(self, tensor, rank, kind, key, ctx) -> None:
        em = self.current
        if em is None:
            return
        model = self._route(tensor, rank, kind)
        if model is None:
            em.dram.read(tensor, self.oracle.access_bits(tensor, rank, kind))
        else:
            model.access_read((rank, key), ctx)

    def write(self, tensor, rank, kind, key, ctx) -> None:
        em = self.current
        if em is None:
            return
        model = self._route(tensor, rank, kind)
        if model is None:
            em.dram.write(tensor, self.oracle.access_bits(tensor, rank, kind))
        else:
            model.access_write((rank, key), ctx)

    def isect(self, rank, visited, matched) -> None:
        em = self.current
        if em is None or not em.intersects:
            # Co-iteration without a bound intersection unit is not priced
            # (e.g. Gamma's second Einsum, where T was built from A's
            # nonzeros and the co-iteration is an identity).
            return
        for model in em.intersects.values():
            model.isect(visited, matched)
            break

    def compute(self, op, n, time_stamp, space_stamp) -> None:
        em = self.current
        if em is None:
            return
        model = em.computes.get(op)
        if model is None:
            model = next(iter(em.computes.values()))
        model.compute(n, time_stamp)
        for seq in em.sequencers.values():
            seq.compute(n)

    def swizzle(self, tensor, n, side) -> None:
        em = self.current
        if em is None or not em.mergers:
            return  # unbound swizzles are free (offline or unpriced)
        for model in em.mergers.values():
            if model.component.name in self.spec.binding.for_einsum(
                em.name
            ).ops:
                model.swizzle(n)
                break


# ----------------------------------------------------------------------
# Fusion and bottleneck analysis (paper section 4.3)
# ----------------------------------------------------------------------
def fuse_blocks(spec: AcceleratorSpec, sink: ModelSink) -> List[List[str]]:
    """Greedy fusion of consecutive Einsums into blocks.

    Two consecutive Einsums fuse when (1) they use the same accelerator
    configuration, (2) the temporal ranks before the first spatial rank
    agree, and (3) their non-storage components are disjoint.
    """
    names = [e.name for e in spec.einsum.cascade]
    blocks: List[List[str]] = []
    for name in names:
        if not blocks:
            blocks.append([name])
            continue
        prev = blocks[-1][-1]
        if _can_fuse(spec, sink, prev, name):
            blocks[-1].append(name)
        else:
            blocks.append([name])
    return blocks


def _temporal_prefix(spec: AcceleratorSpec, name: str) -> List[str]:
    mapping = spec.mapping.for_einsum(name)
    prefix = []
    space = set(mapping.space_ranks)
    for rank in mapping.loop_order:
        if rank in space:
            break
        prefix.append(rank)
    return prefix


def _can_fuse(spec, sink, a: str, b: str) -> bool:
    ba = spec.binding.for_einsum(a)
    bb = spec.binding.for_einsum(b)
    if ba.config != bb.config:
        return False
    if _temporal_prefix(spec, a) != _temporal_prefix(spec, b):
        return False
    ops_a = set(ba.ops)
    ops_b = set(bb.ops)
    return not (ops_a & ops_b)


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class EvaluationResult:
    """Traffic, execution time, and energy of one cascade evaluation."""

    spec: AcceleratorSpec
    einsums: Dict[str, EinsumModel]
    blocks: List[List[str]]
    env: Dict[str, Tensor]
    oracle: FootprintOracle
    energy_model: EnergyModel

    @property
    def spec_name(self) -> str:
        return self.spec.name

    # ---- traffic ------------------------------------------------------
    @property
    def traffic(self) -> Traffic:
        total = Traffic()
        for em in self.einsums.values():
            for tensor, bits in em.dram.traffic.read_bits.items():
                total.read(tensor, bits)
            for tensor, bits in em.dram.traffic.write_bits.items():
                total.write(tensor, bits)
        return total

    def traffic_bytes(self, tensor: Optional[str] = None) -> float:
        t = self.traffic
        if tensor is None:
            return t.total_bits / 8
        return t.tensor_bits(tensor) / 8

    def partial_output_fills(self) -> int:
        return sum(
            getattr(m, "partial_output_fills", 0)
            for em in self.einsums.values()
            for m in em.buffers
        )

    def algorithmic_minimum_bytes(self) -> float:
        """Each cascade input read once plus each final output written once."""
        cascade = self.spec.einsum.cascade
        inputs = {t: self._stored(t) for t in cascade.inputs if t in self.env}
        outputs = {t: self._stored(t) for t in cascade.outputs
                   if t in self.env}
        return algorithmic_minimum_bits(self.oracle, inputs, outputs) / 8

    def _stored(self, name: str) -> Tensor:
        t = self.env[name]
        order = self.spec.mapping.rank_order_of(
            name, self.spec.einsum.ranks_of(name)
        )
        if list(t.rank_ids) != order:
            t = t.swizzle(order)
        return t

    def normalized_traffic(self) -> float:
        minimum = self.algorithmic_minimum_bytes()
        if minimum == 0:
            return 0.0
        return self.traffic_bytes() / minimum

    # ---- timing -------------------------------------------------------
    def block_times(self) -> List[Dict[str, float]]:
        """Per-block component times (seconds), summed within each block."""
        out = []
        for block in self.blocks:
            combined: Dict[str, float] = {}
            for name in block:
                for comp, t in self.einsums[name].component_times().items():
                    combined[comp] = combined.get(comp, 0.0) + t
            out.append(combined)
        return out

    def block_bottlenecks(self) -> List[tuple]:
        """(component, seconds) of the slowest component per block."""
        out = []
        for times in self.block_times():
            name = max(times, key=times.get)
            out.append((name, times[name]))
        return out

    @property
    def exec_seconds(self) -> float:
        """Cascade execution time: sum over blocks of the bottleneck time."""
        return sum(t for _, t in self.block_bottlenecks())

    @property
    def exec_cycles(self) -> float:
        clocks = [em.clock_hz for em in self.einsums.values()]
        clock = clocks[0] if clocks else 1e9
        return self.exec_seconds * clock

    # ---- energy -------------------------------------------------------
    def action_counts(self) -> Dict[str, float]:
        counts: Counter = Counter()
        for em in self.einsums.values():
            for action, n in em.action_counts().items():
                counts[action] += n
        return dict(counts)

    @property
    def energy_pj(self) -> float:
        return self.energy_model.energy_pj(self.action_counts())

    @property
    def energy_mj(self) -> float:
        return self.energy_pj * 1e-9

    def energy_breakdown_pj(self) -> Dict[str, float]:
        return self.energy_model.breakdown_pj(self.action_counts())

    # ---- compute ------------------------------------------------------
    def total_ops(self) -> float:
        return sum(
            m.ops for em in self.einsums.values()
            for m in em.computes.values()
        )

    def utilization(self) -> float:
        models = [m for em in self.einsums.values()
                  for m in em.computes.values()]
        total_steps = sum(m.serial_steps() for m in models)
        if not total_steps:
            return 0.0
        weighted = sum(m.utilization() * m.serial_steps() for m in models)
        return weighted / total_steps


# ----------------------------------------------------------------------
# Priced kernels (metrics="auto")
# ----------------------------------------------------------------------
def _price_counters(sink: ModelSink, counters: KernelCounters) -> None:
    """Price one Einsum's fused counters into the active component models.

    Mirrors :class:`ModelSink`'s per-event routing, applied to the
    aggregates in one pass (the ``einsum_end``-time pricing of the
    priced path).  The kernel counts only the touches routed to DRAM;
    buffer and cache touches are priced by :meth:`FusedMachines.settle`.
    DRAM traffic, intersection units, functional units, sequencers and
    mergers are pure functions of the tallies, so this is exact.
    """
    em = sink.current
    oracle = sink.oracle
    for (tensor, rank, kind), n in counters.reads.items():
        em.dram.read_bulk(tensor, oracle.access_bits(tensor, rank, kind), n)
    for (tensor, rank, kind), n in counters.writes.items():
        em.dram.write_bulk(tensor, oracle.access_bits(tensor, rank, kind), n)
    if em.intersects:
        model = next(iter(em.intersects.values()))
        for visited, matched in counters.isects.values():
            model.isect(visited, matched)
    for op, (n, steps) in counters.computes.items():
        model = em.computes.get(op)
        if model is None:
            model = next(iter(em.computes.values()))
        model.compute_bulk(n, steps)
        for seq in em.sequencers.values():
            seq.compute(n)


class FusedMachines:
    """Routing plan + component machine logs for one ported Einsum run.

    The vector kernels are compiled *binding-independent* (they share the
    lowering cache key with the other flavors); the binding arrives here
    instead.  At kernel entry each touched ``(tensor, rank, kind)``
    triple asks :meth:`port` for its destination: ``None`` routes to
    DRAM (the kernel bumps its fused counter), a machine routes to the
    buffet/cache model, whose events the kernel appends to the machine's
    log.  Routing reuses :meth:`ModelSink._route` verbatim, so the
    vector path can never disagree with the traced path about where an
    event lands.

    One machine is built per :class:`~repro.model.components.BuffetModel`
    / :class:`~repro.model.components.CacheModel` instance (several
    triples may share it, exactly as several event shapes feed one model
    in the traced path).  The kernel also binds what settle needs to
    read its logs: the arena level behind each key code (:meth:`levels`),
    the loop-context frames (:meth:`frames`) and the output point radix
    (:meth:`radix`).  :meth:`settle` prices every log into its model in
    one pass and frees it.
    """

    def __init__(self, sink: ModelSink, ir):
        self._sink = sink
        self._loop_ranks = list(ir.loop_ranks) if ir is not None else []
        self._machines: Dict[int, tuple] = {}  # id(model) -> (model, machine)
        self._levels: list = []
        self._frames: list = []
        self._shape: Optional[list] = None

    def port(self, tensor: str, rank: str, kind: str):
        model = self._sink._route(tensor, rank, kind)
        if model is None:
            return None
        key = id(model)
        entry = self._machines.get(key)
        if entry is None:
            entry = (model, self._make(model))
            self._machines[key] = entry
        return entry[1]

    def _make(self, model):
        if isinstance(model, CacheModel):
            return FusedCache(model.key_depth, model.capacity_bits,
                              model.fill_bits)
        evict = model.binding.evict_on
        if evict is None:
            cut = 0  # BuffetModel._window_of returns () without evict-on
        elif evict in self._loop_ranks:
            cut = self._loop_ranks.index(evict) + 1
        else:
            cut = WHOLE_CTX  # scan falls off the end of ctx
        return FusedBuffet(model.key_depth, cut)

    def levels(self, table) -> None:
        """Bind key code ``c`` to ``table[c] = (arena, level)``: a read
        key ``c << CODE | position`` names that arena level's element."""
        for arena, level in table:
            if len(arena.coords[level]) >> CODE:
                raise CodegenError(
                    "an arena level too long for logged position keys")
        self._levels = [(arena.segs, level) for arena, level in table]

    def frames(self, depth: int) -> list:
        """The loop-context frames of a kernel ``depth`` loops deep:
        ``frames[d]`` collects, per depth ``d - 1`` node in visit order,
        the depth-``d`` counter at that node's creation."""
        self._frames = [[] for _ in range(depth + 1)]
        return self._frames

    def radix(self, tensor: str, rank: str, shape) -> tuple:
        """Multipliers encoding an output point as one int key, or zeros
        when the output routes to DRAM.  The output's machine keeps them
        to truncate written points at settle.  Raises
        :class:`CodegenError` when a shape is unknown or the keys would
        not fit."""
        machine = self.port(tensor, rank, "elem")
        if machine is None:
            return (0,) * len(shape)
        if not all(isinstance(s, int) and s > 0 for s in shape):
            raise CodegenError(f"output {tensor} has an unknown shape")
        mult, size = [], 1
        for s in reversed(shape):
            mult.append(size)
            size *= s
        if size >= RUN:
            raise CodegenError(f"output {tensor} is too large to key")
        self._shape = list(shape)
        machine.radix = tuple(reversed(mult))
        return machine.radix

    def check_points(self, out: Tensor, points) -> None:
        """Raise :class:`CodegenError` unless every written point lies in
        the box :meth:`radix` encodes (the mixed radix is injective only
        there).  Reads the output's columns when it dropped no point."""
        shape = self._shape
        if shape is None:
            return
        arena = out.stored_arena
        cols = None
        if arena is not None and arena.nnz == len(points):
            cols = [arena.np_coords(level) for level in range(len(shape))]
        if cols is not None and all(c is not None for c in cols):
            inside = all(not c.size or (c.min() >= 0 and c.max() < s)
                         for c, s in zip(cols, shape))
        else:
            inside = all(type(c) is int and 0 <= c < s
                         for p in points for c, s in zip(p, shape))
        if not inside:
            raise CodegenError("an output point lies outside its shape")

    def settle(self, counters: Optional[KernelCounters] = None) -> None:
        """Price every machine's log into its model, then free the log."""
        frames = [np.asarray(f, dtype=np.int64) - (d << DEPTH)
                  for d, f in enumerate(self._frames)]
        for model, machine in self._machines.values():
            tallies = machine.settle(self._levels, frames)
            machine.log = None
            model.price_actions(tallies)
            if counters is not None:
                counters.add_actions(model.component.name,
                                     model.binding.tensor, tallies)
        self._frames = []


def check_validate_mode(validate: str) -> None:
    """Raise ``ValueError`` unless ``validate`` is a known
    ``validate=`` mode (see :func:`lint_gate`)."""
    if validate not in ("off", "warn", "strict"):
        raise ValueError(
            f"unknown validate mode {validate!r}; known: 'off', 'warn', "
            "'strict'"
        )


def lint_shapes(tensors, shapes) -> Dict[str, int]:
    """Rank shapes for the lint rules: the workload tensors' shapes
    under any explicit ``shapes`` overrides."""
    merged: Dict[str, int] = {}
    for t in (tensors or {}).values():
        for rank, span in zip(getattr(t, "rank_ids", ()) or (),
                              getattr(t, "shape", ()) or ()):
            if isinstance(span, int) and span > 0:
                merged.setdefault(str(rank), span)
    if shapes:
        merged.update(shapes)
    return merged


def lint_gate(spec: AcceleratorSpec, tensors=None, shapes=None,
              stats=None, validate: str = "off", stacklevel: int = 3
              ) -> None:
    """The ``validate=`` knob shared by :func:`evaluate`,
    :func:`evaluate_many`, and the search runner.

    * ``"off"`` — no static verification (the default).
    * ``"warn"`` — run the spec linter; every finding (errors included)
      surfaces as one :class:`~repro.analysis.SpecLintWarning` and
      evaluation proceeds.
    * ``"strict"`` — error findings raise
      :class:`~repro.analysis.SpecVerificationError`; warn/info
      findings still warn.

    Rank shapes are gathered from the workload tensors (unlocking the
    tile divisibility rules) and ``stats`` feeds the analytical buffer
    capacity check.
    """
    check_validate_mode(validate)
    if validate == "off":
        return
    from ..analysis import (SpecLintWarning, SpecVerificationError,
                            errors_of, verify_spec)

    findings = verify_spec(spec, shapes=lint_shapes(tensors, shapes),
                           stats=stats)
    if not findings:
        return
    if validate == "strict" and errors_of(findings):
        raise SpecVerificationError(findings, spec_name=spec.name)
    warnings.warn(
        f"spec {spec.name!r} has {len(findings)} lint finding(s): "
        + "; ".join(f.render() for f in findings),
        SpecLintWarning, stacklevel=stacklevel,
    )


def evaluate(
    spec: AcceleratorSpec,
    tensors: Dict[str, Tensor],
    opset: OpSet = ARITHMETIC,
    shapes: Optional[Dict[str, int]] = None,
    energy_model: Optional[EnergyModel] = None,
    backend=None,
    metrics: str = "auto",
    prep_cache=None,
    stats=None,
    cache=None,
    validate: str = "off",
) -> EvaluationResult:
    """Run a full TeAAL evaluation: execute + model + reduce.

    ``backend`` selects the execution engine: ``"compiled"`` (generated
    Python kernels; raises :class:`~repro.ir.codegen.CodegenError` when
    the generator rejects the mapping), ``"interpreter"``,
    ``"auto"``/``None`` (compiled with interpreter fallback — the
    default), or a :class:`~repro.model.backend.Backend` instance.

    ``metrics`` (one of :data:`METRICS_MODES`) selects how component
    models are fed.  ``"auto"`` and ``"trace"`` are exact — the
    differential conformance suite holds them bit-equal — so between
    them the choice is purely about speed:

    * ``"auto"`` (default) — the priced arena kernels: per-rank
      read/write/intersection/compute tallies priced in one pass per
      Einsum, with eligible innermost-rank spans priced through batched
      numpy primitives (``np.searchsorted``-style intersection, bulk
      tallies, sequential ``np.add.accumulate`` reductions); per-span
      runtime guards fall back to the scalar loop, so results are
      bit-identical by construction.  The binding picks the kernel per
      Einsum: one that binds no buffer or cache runs the port-free
      ``counted`` kernel; one that does runs the ported ``vector``
      kernel, which logs every buffet/cache touch for the machines to
      price after the kernel returns (:class:`FusedMachines`).  When the generator rejects the
      mapping, the default backend reruns the cascade as ``"trace"``
      and a strict ``"compiled"`` backend raises ``CodegenError``.  On
      an interpreter backend ``"auto"`` runs as ``"trace"``.
    * ``"trace"`` — the interpreter streams one event per touched
      element to a :class:`ModelSink`; the reference path, on every
      backend.
    * ``"analytical"`` — the deliberately *approximate* tier: expected
      metrics computed from sparsity statistics alone, never walking a
      tensor.  ``stats``
      (a :class:`~repro.model.analytical.WorkloadStats`) supplies the
      statistics; when omitted they are measured from ``tensors``.
      Microseconds per candidate — the phase-0 scorer of the search
      subsystem's pruning cascade.  See :mod:`repro.model.analytical`
      for the accuracy contract.

    ``prep_cache`` (a :class:`~repro.model.backend.PrepCache`) memoizes
    tensor preparation and arena conversion across evaluations sharing
    input objects — mapping sweeps pass one cache for the whole sweep.

    ``cache`` (a directory path or a
    :class:`~repro.store.PersistentStore`) consults the disk-backed
    cross-process result store before evaluating and publishes the
    result after: a hit returns the exact pickled result a cold run
    would compute (the key covers the spec's full fingerprint, every
    input tensor's *content* digest, the metrics mode, the opset, and
    shape overrides), so warm and cold runs are bit-identical by
    construction.  Arguments that cannot be keyed durably — an unnamed
    opset, a custom energy model or backend — bypass the store with a
    :class:`StoreBypassWarning` naming each offender.  The analytical
    tier never caches: statistics pricing is cheaper than a disk read.

    ``validate`` runs the static spec linter first (see
    :func:`lint_gate`): ``"off"`` (default) skips it, ``"warn"``
    surfaces findings as :class:`~repro.analysis.SpecLintWarning`, and
    ``"strict"`` raises
    :class:`~repro.analysis.SpecVerificationError` on any
    error-severity finding before a single kernel runs.

    The retired ``"counters"`` mode still runs here, as ``"trace"``
    with a :class:`DeprecationWarning`: it stays the independent
    interpreter reference, never an alias of the engine ``"auto"`` runs.
    """
    if metrics == "counters":
        warnings.warn(
            'metrics="counters" is retired: metrics="auto" now picks the '
            "port-free priced kernel for every Einsum that binds no buffer; "
            'this call runs metrics="trace"',
            DeprecationWarning, stacklevel=2,
        )
        metrics = "trace"
    check_metrics_mode(metrics)
    lint_gate(spec, tensors=tensors, shapes=shapes, stats=stats,
              validate=validate)
    if metrics == "analytical":
        from .analytical import evaluate_analytical

        return evaluate_analytical(spec, tensors=tensors, stats=stats,
                                   shapes=shapes,
                                   energy_model=energy_model)
    engine = resolve_backend(backend)
    store = _durable_store(cache, opset, energy_model, engine, "evaluation")
    if store is not None:
        from ..store import MISS

        store_key = store.result_key(spec, tensors, metrics,
                                     _opset_token(opset), shapes)
        hit = store.get_result(store_key)
        if hit is not MISS:
            return hit
    result = _evaluate_exact(spec, tensors, opset, shapes, energy_model,
                             engine, metrics, prep_cache)
    if store is not None:
        # Adopt the committed winner: racing writers computed
        # bit-identical results, and converging on the stored object
        # mirrors the in-memory caches' setdefault semantics.
        result = store.put_result(store_key, result)
    return result


#: Every ``metrics=`` mode :func:`evaluate` accepts.
METRICS_MODES = ("auto", "trace", "analytical")


def check_metrics_mode(metrics: str, what: str = "metrics mode") -> None:
    """Raise ``ValueError`` naming the known modes unless ``metrics`` is
    one of :data:`METRICS_MODES`."""
    if metrics not in METRICS_MODES:
        raise ValueError(
            f"unknown {what} {metrics!r}; known: "
            + ", ".join(repr(m) for m in METRICS_MODES)
        )


def _evaluate_exact(spec, tensors, opset, shapes, energy_model, engine,
                    metrics, prep_cache) -> EvaluationResult:
    """The exact modes of :func:`evaluate`, after the analytical branch
    and the persistent-store consult: one sink, one result.

    ``"auto"`` on a :class:`CompiledBackend` runs the priced arena
    kernels.  Each Einsum picks its kernel from the live binding: the
    port-free ``counted`` kernel when it binds no buffer or cache, the
    ported ``vector`` kernel otherwise.  Without buffers
    :meth:`ModelSink._route` has no model to return, so every touch
    prices as DRAM traffic from the counters alone.  Every other case
    (``"trace"``, or an interpreter engine) streams the interpreter's
    per-event trace into the sink.

    A :class:`CodegenError` from the priced kernels propagates unless
    the engine has ``fallback`` set; then the cascade reruns on the
    interpreter with a fresh sink and environment, since the rejected
    run may already have priced a prefix of the cascade.
    """
    env: Dict[str, Tensor] = {}
    sink = ModelSink(spec, env)
    priced = metrics == "auto" and isinstance(engine, CompiledBackend)
    if priced:
        def make_machines(name: str, ir) -> Optional[FusedMachines]:
            return FusedMachines(sink, ir) if sink.current.buffers else None

        def on_fused(name: str, counters: KernelCounters,
                     fm: Optional[FusedMachines]) -> None:
            _price_counters(sink, counters)
            if fm is not None:
                fm.settle(counters)

        try:
            engine.run_cascade_fused(
                spec, tensors, opset=opset, sink=sink, shapes=shapes,
                env=env, make_machines=make_machines,
                on_fused=on_fused, prep_cache=prep_cache,
            )
        except CodegenError as exc:
            if not engine.fallback:
                raise
            logger.info("spec %r: the priced kernels were rejected, "
                        "rerunning the cascade on the interpreter: %s",
                        spec.name, exc)
            priced = False
            env = {}
            sink = ModelSink(spec, env)
    if not priced:
        engine.run_cascade(spec, tensors, opset=opset, sink=sink,
                           shapes=shapes, env=env)
    return EvaluationResult(
        spec=spec,
        einsums=sink.einsums,
        blocks=fuse_blocks(spec, sink),
        env=env,
        oracle=sink.oracle,
        energy_model=energy_model or EnergyModel(),
    )


def default_workers() -> int:
    """The worker count :func:`evaluate_many` and the search entry points
    use when none is given: ``REPRO_EVALUATE_WORKERS``, or 1 (serial)
    when it is unset.  A count above 1 fans out over a process pool.
    """
    env = os.environ.get("REPRO_EVALUATE_WORKERS")
    if not env:
        return 1
    try:
        workers = int(env)
    except ValueError:
        raise EnvVarError(
            f"REPRO_EVALUATE_WORKERS={env!r} is not a valid worker "
            "count; set it to a positive integer (1 is serial, more is a "
            "process pool) or unset it for serial evaluation"
        ) from None
    if workers < 1:
        # 0 and negatives used to clamp to 1 silently — the caller
        # asked for "no workers" and got a serial sweep without a
        # word.  A nonsensical count is a config error, same as a
        # non-numeric value.
        raise EnvVarError(
            f"REPRO_EVALUATE_WORKERS={env!r} is not a valid worker "
            "count; worker counts start at 1 (serial) — unset the "
            "variable for serial evaluation"
        )
    return workers


def _opset_token(ops: OpSet):
    """A picklable token for a named opset, or None."""
    for name, known in NAMED_OPSETS.items():
        if ops is known:
            return name
    return None


def _unnamed_arguments(opset, energy_model) -> List[str]:
    """A reason per argument that has no durable name: an ad-hoc opset
    or a custom energy model.  Neither a process pool (which ships work
    by name) nor the result store (which keys it by name) can carry
    them."""
    reasons = []
    if _opset_token(opset) is None:
        reasons.append("opset is not one of the named opsets (repro."
                       "einsum.operators.NAMED_OPSETS), so it has no name")
    if energy_model is not None:
        reasons.append("a custom energy_model changes the result but has "
                       "no name")
    return reasons


def process_incompatibilities(opset, energy_model, backend) -> List[str]:
    """Why these ``evaluate_many`` arguments cannot cross a process pool.

    Returns a human-readable reason per offending argument (empty when
    the process executor can engage).  The pool ships
    ``(spec, tensors, opset_name, shapes, metrics)`` payloads by pickle
    and rebuilds the default engine in each worker, so an unnamed
    argument (see :func:`_unnamed_arguments`) or a caller-supplied
    backend has no picklable representation.
    """
    reasons = _unnamed_arguments(opset, energy_model)
    if backend not in (None, "auto"):
        reasons.append("a non-default backend cannot be rebuilt in the "
                       "worker processes")
    return reasons


def cache_incompatibilities(opset, energy_model, engine) -> List[str]:
    """Why these ``evaluate`` arguments cannot be keyed in the
    persistent result store.

    Returns a human-readable reason per offending argument (empty when
    caching can engage).  The store keys an evaluation by name-able
    content — spec fingerprint, tensor content digests, metrics mode,
    *named* opset, shapes — so an unnamed argument (see
    :func:`_unnamed_arguments`) or a backend of unknown semantics (a
    third-party one; the built-in engines are bit-identical to each
    other by the differential contract, so they share entries) has no
    sound key.
    """
    reasons = _unnamed_arguments(opset, energy_model)
    if not isinstance(engine, (CompiledBackend, InterpreterBackend)):
        reasons.append(
            f"backend {type(engine).__name__} is not one of the built-in "
            "engines, so its results cannot be assumed bit-identical to "
            "cached ones"
        )
    return reasons


def _durable_store(cache, opset, energy_model, engine, what):
    """The store a ``cache=`` argument names, or None when it is absent
    or these arguments cannot be keyed durably (see
    :func:`cache_incompatibilities`); a bypass warns with a
    :class:`StoreBypassWarning` naming each offender, attributed to the
    caller of the ``evaluate``/``evaluate_many``/search entry point."""
    if cache is None:
        return None
    reasons = cache_incompatibilities(opset, energy_model, engine)
    if reasons:
        # Checked before the store is opened: a bypassed directory is
        # never created, let alone reaped.
        warnings.warn(
            f"cache= was bypassed for this {what} because the arguments "
            "cannot be keyed durably: " + "; ".join(reasons),
            StoreBypassWarning, stacklevel=3,
        )
        return None
    from ..store import resolve_store

    return resolve_store(cache)


def resolve_workers(workers, executor, timeout, opset, energy_model=None,
                    backend=None) -> int:
    """The worker count a fan-out actually uses: 1 runs serially
    in-process, more runs a process pool of that size.

    Encodes the one fan-out policy shared by :func:`evaluate_many` and
    the search runner:

    * ``workers=None`` reads :func:`default_workers`.  An explicit
      ``workers > 1`` with arguments that cannot cross a process pool
      raises :class:`ProcessExecutorError` naming each offender; one
      from ``REPRO_EVALUATE_WORKERS`` runs serially with an
      :class:`ExecutorDowngradeWarning` naming the same offenders.
    * ``executor`` is a retired spelling: ``"thread"`` runs serially
      and ``"process"`` changes nothing, both with a
      :class:`DeprecationWarning`.  A set ``REPRO_EVALUATE_EXECUTOR``
      raises :class:`EnvVarError`.
    * ``timeout`` needs a pool: a serial call cannot be preempted, so a
      timeout on a serial fan-out raises ``ValueError``.
    """
    if os.environ.get("REPRO_EVALUATE_EXECUTOR"):
        raise EnvVarError(
            "REPRO_EVALUATE_EXECUTOR is retired: the thread executor is "
            "gone, and the fan-out is serial or a process pool by worker "
            "count alone; unset it and set REPRO_EVALUATE_WORKERS "
            "(1 is serial, more is a process pool) instead"
        )
    if executor is not None:
        if executor not in ("thread", "process"):
            raise ValueError(
                f"unknown executor {executor!r}; known: 'thread', "
                "'process' (both retired: pass workers= instead)"
            )
        warnings.warn(
            f"executor={executor!r} is retired: workers= alone picks "
            "serial (1) or a process pool (more); "
            + ('this call runs serially' if executor == "thread"
               else 'this argument changes nothing'),
            DeprecationWarning, stacklevel=3,
        )
    explicit = workers is not None
    if not explicit:
        workers = default_workers()
    elif workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if executor == "thread":
        workers = 1
    if workers > 1:
        reasons = process_incompatibilities(opset, energy_model, backend)
        if reasons and explicit:
            raise ProcessExecutorError(
                f"workers={workers} asks for a process pool, but the "
                "arguments cannot cross one: " + "; ".join(reasons)
            )
        if reasons:
            warnings.warn(
                f"REPRO_EVALUATE_WORKERS={workers} ran serially because "
                "the arguments cannot cross a process pool: "
                + "; ".join(reasons),
                ExecutorDowngradeWarning, stacklevel=3,
            )
            workers = 1
    if timeout is not None and workers == 1:
        raise ValueError(
            "timeout= needs a process pool (workers > 1): a serial call "
            "cannot be preempted, so the timeout could never fire"
        )
    return workers


#: Per-process memo of stores, keyed by cache directory: pool workers
#: and job workers open each store once, not per payload.
_WORKER_STORES: Dict[str, Any] = {}


def _worker_store(cache_dir: str):
    store = _WORKER_STORES.get(cache_dir)
    if store is None:
        from ..store import PersistentStore

        store = _WORKER_STORES[cache_dir] = PersistentStore(cache_dir)
    return store


def _process_one(payload) -> EvaluationResult:
    """Process-pool worker: evaluate on the worker's default engine.

    The child's compile cache is cold on the first workload and warm for
    the rest of that worker's share; specs, tensors, and results cross
    the process boundary by pickle.  The payload is ``(spec, tensors,
    opset name, shapes, metrics, cache_dir)``.  A ``cache_dir`` names a
    persistent store: the worker then consults/publishes the shared
    store directly, so result hits skip evaluation.
    """
    spec, tensors, opset_name, shapes, metrics, cache_dir = payload
    store = None if cache_dir is None else _worker_store(cache_dir)
    return evaluate(spec, tensors, opset=NAMED_OPSETS[opset_name],
                    shapes=shapes, metrics=metrics, cache=store)


def evaluate_many(
    spec: AcceleratorSpec,
    workloads: Sequence[Dict[str, Tensor]],
    opset: OpSet = ARITHMETIC,
    shapes: Optional[Dict[str, int]] = None,
    energy_model: Optional[EnergyModel] = None,
    backend=None,
    workers: Optional[int] = None,
    metrics: str = "auto",
    executor: Optional[str] = None,
    timeout: Optional[float] = None,
    max_retries: int = 2,
    retry_backoff: float = 0.05,
    cache=None,
    validate: str = "off",
) -> List[EvaluationResult]:
    """Evaluate one spec over many workloads, compiling once.

    The spec is lowered a single time (warming the backend's compile
    cache; each kernel flavor compiles once, on first use), then every
    workload — a ``{tensor: Tensor}`` dict —
    is evaluated against the cached kernels.  ``metrics`` is forwarded
    to :func:`evaluate` per workload.

    ``workers`` is the one fan-out knob: 1 (the default, see
    :func:`default_workers`) evaluates serially in-process, more fans
    the workloads out over a process pool of that many workers, and
    ``executor`` is a retired spelling; :func:`resolve_workers` has the
    policy.  Serial and process runs are bit-identical.  Kernel
    execution holds the GIL, so only a process pool runs workloads in
    parallel; it pays off when each workload takes about half a second
    or more, and loses on short batches, where pool start-up dominates
    (the README's *Batching* note has the measurements).

    The fan-out is *supervised* (see
    :class:`~repro.search.supervisor.SweepSupervisor`): transient
    worker failures — a died worker process, a broken pool — retry up
    to ``max_retries`` times with exponential backoff
    (``retry_backoff`` seconds doubling per attempt), a broken process
    pool is rebuilt once and then the batch finishes serially with a
    :class:`~repro.search.supervisor.SweepDegradationWarning`, and
    ``timeout`` bounds each workload's wall-clock evaluation (it needs
    ``workers > 1``).  Because this function's contract is one result per
    workload, a failure that survives the retry budget — including a
    deterministic spec error, which is never retried — re-raises the
    original exception (for a timeout, a
    :class:`~repro.search.supervisor.CandidateTimeoutError`).

    ``cache`` (a directory path or a
    :class:`~repro.store.PersistentStore`) consults and feeds the
    disk-backed cross-process store, exactly as in :func:`evaluate`.
    Process-pool workers open the same store directory themselves (one
    handle per worker process).  Incompatible arguments bypass the
    store for the whole sweep with a single :class:`StoreBypassWarning`.

    ``validate`` runs the static spec linter once for the whole sweep
    (see :func:`lint_gate`): ``"warn"`` surfaces findings, ``"strict"``
    rejects specs with error findings before any workload runs.

    Returns one :class:`EvaluationResult` per workload, in order.
    """
    check_metrics_mode(metrics)
    workers = resolve_workers(workers, executor, timeout, opset,
                              energy_model, backend)
    workloads = list(workloads)
    # One lint pass covers the whole sweep: the spec does not change
    # per workload (tile-shape rules see the first workload's shapes).
    lint_gate(spec, tensors=(workloads[0] if workloads else None),
              shapes=shapes, validate=validate)
    # Imported here: repro.search (the supervisor's package) imports
    # this module at its own import time.
    from ..search.supervisor import SweepSupervisor

    engine = resolve_backend(backend)
    store = None if metrics == "analytical" else _durable_store(
        cache, opset, energy_model, engine, "sweep")
    if isinstance(engine, CompiledBackend) and metrics != "analytical":
        try:
            engine.compile(spec)  # lower once, up front
        except CodegenError:
            if not engine.fallback:
                raise

    def one(tensors: Dict[str, Tensor]) -> EvaluationResult:
        return evaluate(spec, tensors, opset=opset, shapes=shapes,
                        energy_model=energy_model, backend=engine,
                        metrics=metrics, cache=store)

    supervisor = SweepSupervisor(
        workers=workers, timeout=timeout,
        max_retries=max_retries, backoff=retry_backoff,
        key=lambda i: f"workload[{i}]",
    )
    token = _opset_token(opset)
    try:
        completed = supervisor.run_batch(
            range(len(workloads)),
            lambda i: one(workloads[i]),
            payload=lambda i: (
                spec, workloads[i], token, shapes, metrics,
                None if store is None else store.path,
            ),
            process_worker=_process_one,
        )
    finally:
        supervisor.close()
    if supervisor.failures:
        record = min(supervisor.failures, key=lambda r: r.item)
        if record.exception is not None:
            raise record.exception
        raise RuntimeError(
            f"evaluation of workload {record.item} failed after "
            f"{record.attempts} attempt(s): {record.error}"
        )
    return [res for _, res in completed]
