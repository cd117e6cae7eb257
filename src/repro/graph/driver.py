"""Iterative driver for vertex-centric algorithms (paper section 8).

Runs one cascade evaluation per iteration until the active set empties,
executing the real Einsum cascades on fibertrees through an execution
backend (by default the compiled arena kernels, with the interpreter as
the reference engine via ``backend="interpreter"``), and pricing each
iteration with the shared Graphicionado parameterization: per-stream
processing/apply throughput against memory bandwidth, bottleneck-style.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Dict, List

from ..fibertree import Tensor
from ..model import PrepCache, resolve_backend
# ``execute_cascade`` is unused here but stays importable from this
# module: profiling tools wrap the interpreter's entry point by name.
from ..model import execute_cascade
from ..spec import AcceleratorSpec
from .designs import Design, GraphicionadoConfig
from .vcp import graphdyns_cascade, graphicionado_cascade, opset_for


@dataclass
class IterationStats:
    """Work and cost of one vertex-centric iteration."""

    active: int
    edges_processed: int
    messages: int  # vertices receiving updates (|R|)
    modified: int  # vertices whose property changed (|A1|)
    apply_ops: int
    traffic_bytes: float
    seconds: float


@dataclass
class RunResult:
    """A complete vertex-centric run of one design on one graph."""

    design: str
    algorithm: str
    properties: Dict[int, float]
    iterations: List[IterationStats] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        return sum(it.seconds for it in self.iterations)

    @property
    def total_apply_ops(self) -> int:
        return sum(it.apply_ops for it in self.iterations)

    @property
    def total_traffic_bytes(self) -> float:
        return sum(it.traffic_bytes for it in self.iterations)

    @property
    def num_iterations(self) -> int:
        return len(self.iterations)


class ConvergenceError(RuntimeError):
    """A vertex-centric run hit ``max_iterations`` with vertices still
    active, so its properties and costs would be a truncated answer."""


def _vector_named(name: str, rank: str, values: Dict[int, float],
                  shape: int) -> Tensor:
    return Tensor.from_points(name, [rank],
                              {(c,): v for c, v in values.items()}, [shape])


# Properties are stored with a +1 offset so a zero *distance* (the source)
# is distinguishable from an *absent* value — sparse fibertrees elide empty
# payloads.  Both BFS (hop + 1) and SSSP (+ weight) relaxations commute
# with the shift, so the encoded run is exact; distances decode at the end.
_ENCODE = 1.0


@functools.lru_cache(maxsize=None)
def _cascade(name: str) -> AcceleratorSpec:
    """The parsed cascade of a design, shared by every run (read-only)."""
    if name == "graphicionado":
        return graphicionado_cascade()
    return graphdyns_cascade()


def run_vertex_centric(
    design: Design,
    graph: Tensor,
    source: int,
    algorithm: str = "bfs",
    config: GraphicionadoConfig = GraphicionadoConfig(),
    max_iterations: int = 100,
    backend: Any = None,
) -> RunResult:
    """Run BFS/SSSP/CC on ``graph`` (adjacency G[d, s]) under one design.

    ``backend`` selects the engine each iteration's cascade runs on, as
    in :func:`repro.model.evaluate`: None/``"auto"`` for the compiled
    arena kernels (falling back to the interpreter on a
    :class:`~repro.ir.codegen.CodegenError`), ``"interpreter"`` for the
    reference engine, or a :class:`~repro.model.backend.Backend`.
    Raises :class:`ConvergenceError` if vertices are still active after
    ``max_iterations`` iterations.
    """
    opset = opset_for(algorithm)
    engine = resolve_backend(backend)
    uses_weight = algorithm != "bfs"
    n = graph.shape[0] or (
        max(c for point, _ in graph.leaves() for c in point) + 1
    )
    spec = _cascade(design.cascade)
    g = graph.copy(name="G")
    g.rank_ids = ["V", "S"]  # destination rank aligned to the property space

    if algorithm == "cc":
        # Connected components: every vertex starts active with its own
        # (encoded) id as the component label; `source` is ignored.
        properties = {v: v + _ENCODE for v in range(n)}
        active = dict(properties)
    else:
        properties = {source: _ENCODE}
        active = {source: _ENCODE}
    result = RunResult(design=design.name, algorithm=algorithm,
                       properties={})
    # ``g`` is the same object every iteration, so its prepared arena is
    # built once per run.  The cache dies with the run: sharing it across
    # runs would pin every graph copy.
    prep_cache = PrepCache()

    for _ in range(max_iterations):
        if not active:
            break
        tensors = {
            "G": g,
            "A0": _vector_named("A0", "S", active, n),
            "P0": _vector_named("P0", "V", properties, n),
        }
        env = engine.run_cascade(spec, tensors, opset=opset,
                                 shapes={"V": n, "S": n},
                                 prep_cache=prep_cache)
        messages = env["R"].points()
        if design.cascade == "graphicionado":
            new_props = {p[0]: v for p, v in env["P1"].leaves()}
        else:
            # Driver-side merge of the filtered property updates (the
            # paper's in-place P0 write + P1 = P0 alias).
            new_props = dict(properties)
            for (v,), value in env["PU"].leaves():
                new_props[v] = value
        new_active = {p[0]: v for p, v in env["A1"].leaves()}

        edges = env["SO"].nnz
        modified_ids = [p[0] for p in messages]
        apply_ops = design.apply_ops(n, modified_ids)
        stats = _price_iteration(
            design, config, uses_weight,
            active=len(active), edges=edges, messages=len(messages),
            modified=len(new_active), apply_ops=apply_ops, n=n,
        )
        result.iterations.append(stats)

        properties = new_props
        active = new_active

    if active:
        raise ConvergenceError(
            f"{design.name}/{algorithm} did not converge in "
            f"{max_iterations} iterations: {len(active)} vertices still "
            f"active"
        )
    result.properties = {v: d - _ENCODE for v, d in properties.items()}
    return result


def _price_iteration(design, config, uses_weight, active, edges, messages,
                     modified, apply_ops, n) -> IterationStats:
    edge_bytes = edges * design.edge_bytes(uses_weight, config)
    # Frontier reads + message writes.
    msg_bytes = (active + messages) * config.property_bytes
    apply_bytes = apply_ops * config.property_bytes
    traffic = edge_bytes + msg_bytes + apply_bytes

    processing_cycles = max(edges, 1) / config.streams
    apply_cycles = max(apply_ops, 1) / config.streams
    compute_seconds = (processing_cycles + apply_cycles) / config.clock_hz
    memory_seconds = traffic / (config.bandwidth_gbps * 1e9)
    seconds = max(compute_seconds, memory_seconds)
    return IterationStats(
        active=active,
        edges_processed=edges,
        messages=messages,
        modified=modified,
        apply_ops=apply_ops,
        traffic_bytes=traffic,
        seconds=seconds,
    )
