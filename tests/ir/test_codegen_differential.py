"""Differential test harness: compiled kernels vs. the interpreter.

The compiled backends are only trustworthy if they are
*indistinguishable* from the reference interpreter — same outputs and
the same trace-derived traffic, for every registered accelerator spec
and for the tricky mapping features (occupancy followers, runtime
windows, flattening, multi-level splits, affine projection, take/union
leaves).  The interpreter is the only engine that emits the per-event
trace stream; every generated kernel is held to it.

The execution paths held together here:

* **flat-compiled (arena-native, untraced)** — outputs must equal the
  interpreter's untraced and traced runs, and the specs under test must
  *actually* flat-compile (no silent fallback to the interpreter).
* **flat loop forms of their own** — position-map leaves and inline
  two-way unions must give the interpreter's outputs in its order, on
  both outcomes of the position-map guard.
* **counted (the port-free priced kernel)** — the per-Einsum aggregate
  tallies must equal the aggregates of the interpreter's ordered event
  stream, read for read, intersection for intersection, stamp set for
  stamp set, with ``VLEAF_MIN`` pinned to 0 so the batched numpy spans
  engage even on these small hypothesis inputs.
* **vector (the ported priced kernel)** — full
  :func:`repro.model.evaluate.evaluate` metrics (traffic, cycles,
  energy, action counts, per-component times, outputs) must be
  *bit-identical* between the traced interpreter and the
  ``metrics="auto"`` path (which picks the counted or vector kernel per
  Einsum from the binding), for every spec — buffered accelerators
  included.

Inputs are hypothesis-generated, with a fixed profile (see
``tests/conftest.py``) so CI failures replay exactly.
"""

import contextlib

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import repro.ir.codegen_runtime as rt
from repro.accelerators import FACTORIES, accelerator
from repro.einsum.operators import MIN_PLUS
from repro.fibertree import FlatArena, tensor_from_dense
from repro.graph import graphdyns_cascade
from repro.model import (
    CompileCache,
    CompiledBackend,
    InterpreterBackend,
    evaluate,
)
from repro.model.traces import TraceSink
from repro.spec import load_spec

# One cache for the whole module: repeated hypothesis examples of the same
# spec compile exactly once.
_CACHE = CompileCache()

#: The production span threshold, read before the autouse fixture below
#: pins it to 0 for every test.
PRODUCTION_VLEAF_MIN = rt.VLEAF_MIN


@pytest.fixture(autouse=True)
def force_vector_spans(monkeypatch):
    """Pin the vector-span threshold to 0 so every eligible leaf takes
    the batched numpy path — hypothesis inputs are far below the
    production threshold, and an always-scalar fallback would make the
    vector assertions vacuous."""
    monkeypatch.setattr(rt, "VLEAF_MIN", 0)


class StreamSink(TraceSink):
    """Records the full ordered event stream."""

    def __init__(self):
        self.events = []

    def einsum_begin(self, name, ir):
        self.events.append(("begin", name))

    def einsum_end(self, name):
        self.events.append(("end", name))

    def read(self, tensor, rank, kind, key, ctx):
        self.events.append(("read", tensor, rank, kind, key, tuple(ctx)))

    def write(self, tensor, rank, kind, key, ctx):
        self.events.append(("write", tensor, rank, kind, key, tuple(ctx)))

    def isect(self, rank, visited, matched):
        self.events.append(("isect", rank, visited, matched))

    def compute(self, op, n, time_stamp, space_stamp):
        self.events.append(("compute", op, n, time_stamp, space_stamp))

    def swizzle(self, tensor, n, side):
        self.events.append(("swizzle", tensor, n, side))


def stream_aggregates(events):
    """Per-Einsum aggregates of an ordered event stream.

    Returns ``{einsum: (reads, writes, isects, computes)}`` in exactly
    the shape :class:`~repro.model.traces.KernelCounters` accumulates:
    reads/writes keyed ``(tensor, rank, kind)``, isects keyed rank with
    ``[visited, matched]`` (zero events dropped, as counters never
    record them), computes keyed op with ``[n, time-stamp set]``.
    """
    out = {}
    current = None
    for ev in events:
        if ev[0] == "begin":
            current = out.setdefault(ev[1], ({}, {}, {}, {}))
        elif ev[0] == "end":
            current = None
        elif ev[0] == "read":
            key = (ev[1], ev[2], ev[3])
            current[0][key] = current[0].get(key, 0) + 1
        elif ev[0] == "write":
            key = (ev[1], ev[2], ev[3])
            current[1][key] = current[1].get(key, 0) + 1
        elif ev[0] == "isect":
            _, rank, visited, matched = ev
            if visited or matched:
                entry = current[2].setdefault(rank, [0, 0])
                entry[0] += visited
                entry[1] += matched
        elif ev[0] == "compute":
            _, op, n, ts, _ss = ev
            entry = current[3].setdefault(op, [0, set()])
            entry[0] += n
            entry[1].add(ts)
    return out


def assert_counters_match_stream(spec, tensors, events):
    """The port-free priced kernels (no machines: every touch counts as
    DRAM traffic) must aggregate the traced stream exactly."""
    counters = {}
    backend = CompiledBackend(cache=_CACHE)
    backend.run_cascade_fused(
        spec, {k: t.copy() for k, t in tensors.items()},
        on_fused=lambda name, kc, fm: counters.setdefault(name, kc),
    )
    expected = stream_aggregates(events)
    assert set(counters) == set(expected)
    for name, kc in counters.items():
        reads, writes, isects, computes = expected[name]
        assert dict(kc.reads) == reads, f"{name}: read tallies diverge"
        assert dict(kc.writes) == writes, f"{name}: write tallies diverge"
        assert kc.isects == isects, f"{name}: isect tallies diverge"
        assert {op: [n, ts.tuples()] for op, (n, ts) in kc.computes.items()} \
            == computes, f"{name}: compute tallies diverge"


def metrics_fingerprint(result):
    """Every externally observable metric of an evaluation, exactly."""
    return {
        "read_bits": dict(result.traffic.read_bits),
        "write_bits": dict(result.traffic.write_bits),
        "exec_seconds": result.exec_seconds,
        "exec_cycles": result.exec_cycles,
        "energy_pj": result.energy_pj,
        "actions": result.action_counts(),
        "energy_breakdown": result.energy_breakdown_pj(),
        "ops": result.total_ops(),
        "utilization": result.utilization(),
        "partial_output_fills": result.partial_output_fills(),
        "block_times": result.block_times(),
        "bottlenecks": result.block_bottlenecks(),
        "outputs": {name: result.env[name].points() for name in result.env},
        "per_einsum_actions": {
            name: em.action_counts() for name, em in result.einsums.items()
        },
        "component_times": {
            name: em.component_times() for name, em in result.einsums.items()
        },
    }


def assert_metrics_paths_agree(spec, tensors):
    """Traced-interpreter and auto metrics must be bit-identical (the
    kernel conformance check: the interpreter against the per-Einsum
    counted/vector selection)."""
    backend = CompiledBackend(cache=_CACHE)
    reference = metrics_fingerprint(evaluate(
        spec, {k: t.copy() for k, t in tensors.items()},
        backend=InterpreterBackend(), metrics="trace",
    ))
    got = metrics_fingerprint(evaluate(
        spec, {k: t.copy() for k, t in tensors.items()},
        backend=backend, metrics="auto",
    ))
    assert got == reference, "metrics=auto diverges"


def assert_backends_agree(spec, tensors):
    """Run every engine; outputs, counters, and metrics must agree with
    the interpreter's event stream."""
    interp_sink = StreamSink()
    env_i = InterpreterBackend().run_cascade(
        spec, {k: t.copy() for k, t in tensors.items()}, sink=interp_sink
    )

    # Untraced paths: the interpreter and the arena-native flat kernels
    # must reproduce the same outputs — and the flat kernels must really
    # exist for these specs (no silent fallback).
    for unit in _CACHE.get(spec).units:
        assert unit.flat is not None  # raises CodegenError if rejected
    env_u = InterpreterBackend().run_cascade(
        spec, {k: t.copy() for k, t in tensors.items()}
    )
    env_f = CompiledBackend(cache=_CACHE).run_cascade(
        spec, {k: t.copy() for k, t in tensors.items()}
    )
    for name in spec.einsum.cascade.produced:
        assert env_i[name].points() == env_u[name].points(), name
        assert env_u[name].points() == env_f[name].points(), name

    assert_counters_match_stream(spec, tensors, interp_sink.events)
    assert_metrics_paths_agree(spec, tensors)


def sparse_matrix(rng, rows, cols, density):
    return (rng.random((rows, cols)) < density) * rng.integers(
        1, 9, (rows, cols)
    ).astype(float)


# ----------------------------------------------------------------------
# Every registered accelerator spec
# ----------------------------------------------------------------------
SPMSPM = sorted(set(FACTORIES) - {"eyeriss", "tensaurus"})


@pytest.mark.parametrize("name", SPMSPM)
@settings(max_examples=5)
@given(data=st.data())
def test_registry_spmspm_differential(name, data):
    seed = data.draw(st.integers(0, 2**16), label="seed")
    k = data.draw(st.integers(4, 24), label="K")
    m = data.draw(st.integers(4, 20), label="M")
    n = data.draw(st.integers(4, 20), label="N")
    density = data.draw(st.sampled_from([0.1, 0.3, 0.6]), label="density")
    rng = np.random.default_rng(seed)
    tensors = {
        "A": tensor_from_dense("A", ["K", "M"],
                               sparse_matrix(rng, k, m, density)),
        "B": tensor_from_dense("B", ["K", "N"],
                               sparse_matrix(rng, k, n, density)),
    }
    assert_backends_agree(accelerator(name), tensors)


@settings(max_examples=3)
@given(data=st.data())
def test_registry_tensaurus_differential(data):
    seed = data.draw(st.integers(0, 2**16), label="seed")
    i, j, k, r = (data.draw(st.integers(3, 8), label=d)
                  for d in ("I", "J", "K", "R"))
    rng = np.random.default_rng(seed)
    t = (rng.random((i, j, k)) < 0.4) * rng.integers(
        1, 9, (i, j, k)).astype(float)
    tensors = {
        "T": tensor_from_dense("T", ["I", "J", "K"], t),
        "A": tensor_from_dense("A", ["K", "R"], sparse_matrix(rng, k, r, 0.7)),
        "B": tensor_from_dense("B", ["J", "R"], sparse_matrix(rng, j, r, 0.7)),
    }
    assert_backends_agree(accelerator("tensaurus"), tensors)


@settings(max_examples=3)
@given(data=st.data())
def test_registry_eyeriss_differential(data):
    spec = accelerator("eyeriss")
    p = spec.einsum.shapes["P"]
    q = spec.einsum.shapes["Q"]
    seed = data.draw(st.integers(0, 2**16), label="seed")
    c = data.draw(st.integers(1, 2), label="C")
    mm = data.draw(st.integers(1, 2), label="M")
    r = data.draw(st.integers(1, 3), label="R")
    s = data.draw(st.integers(1, 3), label="S")
    rng = np.random.default_rng(seed)
    ish = (1, c, p + r - 1, q + s - 1)
    fsh = (c, mm, r, s)
    i = (rng.random(ish) < 0.5) * rng.integers(1, 9, ish).astype(float)
    f = (rng.random(fsh) < 0.8) * rng.integers(1, 9, fsh).astype(float)
    tensors = {
        "I": tensor_from_dense("I", ["B", "C", "H", "W"], i),
        "F": tensor_from_dense("F", ["C", "M", "R", "S"], f),
    }
    assert_backends_agree(spec, tensors)


# ----------------------------------------------------------------------
# Feature-focused mappings, including the newly supported followers
# ----------------------------------------------------------------------
MATMUL = """
einsum:
  declaration:
    A: [K, M]
    B: [K, N]
    Z: [M, N]
  expressions:
    - Z[m, n] = A[k, m] * B[k, n]
"""

FEATURE_MAPPINGS = {
    "occupancy-follower": MATMUL + """
mapping:
  partitioning:
    Z:
      K: [uniform_occupancy(A.4)]
  loop-order:
    Z: [K1, M, N, K0]
""",
    "follower-b-leads": MATMUL + """
mapping:
  partitioning:
    Z:
      K: [uniform_occupancy(B.5)]
  loop-order:
    Z: [K1, N, M, K0]
""",
    "multi-level-follower": MATMUL + """
mapping:
  partitioning:
    Z:
      K: [uniform_occupancy(A.8), uniform_occupancy(A.2)]
  loop-order:
    Z: [K2, K1, M, N, K0]
""",
    "shape-tiled": MATMUL + """
mapping:
  partitioning:
    Z:
      K: [uniform_shape(4)]
      M: [uniform_shape(4)]
  loop-order:
    Z: [K1, M1, M0, N, K0]
""",
    "flatten-occupancy": MATMUL + """
mapping:
  partitioning:
    Z:
      (K, M): [flatten()]
      KM: [uniform_occupancy(A.6)]
  loop-order:
    Z: [KM1, KM0, N]
""",
    "subtract": """
einsum:
  declaration: {A: [V], B: [V], Z: [V]}
  expressions: ["Z[v] = A[v] - B[v]"]
""",
    "union-follower": """
einsum:
  declaration: {A: [V], B: [V], Z: [V]}
  expressions: ["Z[v] = A[v] + B[v]"]
mapping:
  partitioning:
    Z:
      V: [uniform_occupancy(A.4)]
  loop-order:
    Z: [V1, V0]
""",
    "take-existential": """
einsum:
  declaration:
    A: [K, M]
    B: [K, N]
    S: [K, M]
  expressions:
    - S[k, m] = take(A[k, m], B[k, n], 0)
""",
    "take-follower": """
einsum:
  declaration:
    A: [K, M]
    B: [K, N]
    T: [K, M, N]
  expressions:
    - T[k, m, n] = take(A[k, m], B[k, n], 1)
mapping:
  partitioning:
    T:
      K: [uniform_occupancy(A.4)]
  loop-order:
    T: [K1, K0, M, N]
""",
}


@pytest.mark.parametrize("feature", sorted(FEATURE_MAPPINGS))
@settings(max_examples=8)
@given(data=st.data())
def test_feature_mapping_differential(feature, data):
    spec = load_spec(FEATURE_MAPPINGS[feature], name=feature)
    seed = data.draw(st.integers(0, 2**16), label="seed")
    density = data.draw(st.sampled_from([0.15, 0.4, 0.7]), label="density")
    rng = np.random.default_rng(seed)
    tensors = {}
    rank_shape = {}
    for t in spec.einsum.cascade.inputs:
        ranks = spec.einsum.ranks_of(t)
        shape = tuple(
            rank_shape.setdefault(r, data.draw(st.integers(3, 16),
                                               label=f"shape {r}"))
            for r in ranks
        )
        arr = (rng.random(shape) < density) * rng.integers(
            1, 9, shape).astype(float)
        tensors[t] = tensor_from_dense(t, ranks, arr)
    assert_backends_agree(spec, tensors)


@settings(max_examples=6)
@given(data=st.data())
def test_convolution_differential(data):
    w = data.draw(st.integers(5, 14), label="W")
    s = data.draw(st.integers(1, 3), label="S")
    q = w - s + 1
    seed = data.draw(st.integers(0, 2**16), label="seed")
    spec = load_spec(f"""
einsum:
  declaration: {{I: [W], F: [S], O: [Q]}}
  expressions: ["O[q] = I[q + s] * F[s]"]
  shapes: {{Q: {q}}}
""")
    rng = np.random.default_rng(seed)
    tensors = {
        "I": tensor_from_dense(
            "I", ["W"],
            (rng.random(w) < 0.7) * rng.integers(1, 9, w).astype(float)),
        "F": tensor_from_dense(
            "F", ["S"], rng.integers(1, 9, s).astype(float)),
    }
    assert_backends_agree(spec, tensors)


# ----------------------------------------------------------------------
# Degenerate inputs: empties must not diverge either
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["gamma", "extensor", "outerspace"])
def test_empty_inputs_differential(name):
    tensors = {
        "A": tensor_from_dense("A", ["K", "M"], np.zeros((6, 5))),
        "B": tensor_from_dense("B", ["K", "N"], np.zeros((6, 4))),
    }
    assert_backends_agree(accelerator(name), tensors)


def test_single_nonzero_differential():
    a = np.zeros((8, 7))
    b = np.zeros((8, 6))
    a[3, 2] = 5.0
    b[3, 4] = 2.0
    tensors = {
        "A": tensor_from_dense("A", ["K", "M"], a),
        "B": tensor_from_dense("B", ["K", "N"], b),
    }
    for name in ("gamma", "sparch"):
        assert_backends_agree(accelerator(name), tensors)


# ----------------------------------------------------------------------
# Batched leaves at the production span threshold
# ----------------------------------------------------------------------
# With VLEAF_MIN pinned to 0 every eligible reduction leaf takes the
# numpy branch, so the short spans that the ported kernels price
# through the batched leaf (the port-free loop plus one span call per
# machine port) are only reached at the production threshold.
@contextlib.contextmanager
def production_spans():
    """Restore the production VLEAF_MIN and record the outcome of every
    batched-leaf guard (``rt.batch_ok``, bound once per kernel call)."""
    outcomes = []
    real = rt.batch_ok

    def spy(*args):
        outcomes.append(real(*args))
        return outcomes[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rt, "VLEAF_MIN", PRODUCTION_VLEAF_MIN)
        mp.setattr(rt, "batch_ok", spy)
        yield outcomes


@pytest.mark.parametrize("name", SPMSPM)
@settings(max_examples=3)
@given(data=st.data())
def test_registry_production_vleaf_min_differential(name, data):
    """Every buffered SpMSpM accelerator prices bit-identically to the
    interpreter with its short spans on the batched leaf."""
    seed = data.draw(st.integers(0, 2**16), label="seed")
    k = data.draw(st.integers(4, 24), label="K")
    m = data.draw(st.integers(4, 20), label="M")
    n = data.draw(st.integers(4, 20), label="N")
    density = data.draw(st.sampled_from([0.1, 0.3, 0.6]), label="density")
    rng = np.random.default_rng(seed)
    tensors = {
        "A": tensor_from_dense("A", ["K", "M"],
                               sparse_matrix(rng, k, m, density)),
        "B": tensor_from_dense("B", ["K", "N"],
                               sparse_matrix(rng, k, n, density)),
    }
    with production_spans() as outcomes:
        assert_metrics_paths_agree(accelerator(name), tensors)
    assert True in outcomes, f"{name}: no batched leaf engaged"


#: (declaration, expression, loop order, Z's bound rank, A's binding)
#: of the buffered leaf specs: a matmul, and A squared, whose merge
#: drivers both read A through one small LRU cache.
LEAF_EINSUMS = {
    "matmul": ("{A: [K, M], B: [K, N], Z: [M, N]}",
               "Z[m, n] = A[k, m] * B[k, n]", "[K1, M, N, K0]", "N",
               "ABuf: [{tensor: A, rank: K, type: elem, style: lazy, "
               "evict-on: M}]\n      BCache: [{tensor: B, rank: K, "
               "type: elem, style: lazy}]"),
    "square": ("{A: [K, M], Z: [M]}", "Z[m] = A[k, m] * A[k, m]",
               "[K1, M, K0]", "M",
               "BCache: [{tensor: A, rank: K, type: elem, style: lazy}]"),
}


def buffered_leaf_spec(einsum: str, z_evict_on: str) -> str:
    """A buffered Einsum whose innermost rank K0 reduces into Z, with
    Z's output buffet evicting on ``z_evict_on``."""
    decl, expr, order, z_rank, a_binding = LEAF_EINSUMS[einsum]
    return f"""
einsum:
  declaration: {decl}
  expressions: ["{expr}"]
mapping:
  partitioning:
    Z:
      K: [uniform_shape(4)]
  loop-order:
    Z: {order}
architecture:
  Main:
    clock: 1.0e9
    subtree:
      - name: System
        local:
          - name: DRAM
            class: DRAM
            attributes: {{bandwidth: 64}}
          - name: ABuf
            class: Buffer
            attributes: {{type: buffet, width: 64, depth: 64}}
          - name: BCache
            class: Buffer
            attributes: {{type: cache, width: 64, depth: 2}}
          - name: ZBuf
            class: Buffer
            attributes: {{type: buffet, width: 64, depth: 64}}
binding:
  Z:
    config: Main
    components:
      {a_binding}
      ZBuf:
        - {{tensor: Z, rank: {z_rank}, type: elem, style: lazy,
            evict-on: {z_evict_on}}}
"""


@pytest.mark.parametrize("einsum, z_evict_on, engaged", [
    # The output window ends outside the leaf: batched.
    ("matmul", "N", True),
    # Z evicts on the leaf's own rank: every write rolls its window.
    ("matmul", "K0", False),
    # Both merge drivers read A through one cache.
    ("square", "M", False),
], ids=["batched", "evict-on-leaf-rank", "shared-machine"])
@settings(max_examples=6)
@given(data=st.data())
def test_batched_leaf_guard_differential(einsum, z_evict_on, engaged, data):
    """The guard picks the batched leaf only when each machine sees one
    access and the output window is fixed across the leaf; either way
    the metrics equal the interpreter's."""
    spec = load_spec(buffered_leaf_spec(einsum, z_evict_on),
                     name=f"leaf-{einsum}-{z_evict_on}")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    density = data.draw(st.sampled_from([0.3, 0.6]), label="density")
    rng = np.random.default_rng(seed)
    shape = {r: data.draw(st.integers(2, 12), label=r) for r in "KMN"}
    tensors = {
        t: tensor_from_dense(t, ranks, sparse_matrix(
            rng, shape[ranks[0]], shape[ranks[1]], density))
        for t, ranks in (("A", ["K", "M"]), ("B", ["K", "N"]))
        if t in spec.einsum.cascade.inputs
    }
    with production_spans() as outcomes:
        assert_metrics_paths_agree(spec, tensors)
    assert outcomes == [engaged]


# ----------------------------------------------------------------------
# Flat-flavor loop forms: position-map leaves and inline two-way unions
# ----------------------------------------------------------------------
def assert_flat_matches_interpreter(spec, tensors):
    """Every flat output equals the untraced interpreter's, point for
    point, value for value and in the same order; the priced kernels,
    whose loops keep the merge and ``rt.flat_union``, return the same."""
    def leaves(env):
        return {name: list(env[name].leaves())
                for name in spec.einsum.cascade.produced}

    want = leaves(InterpreterBackend().run_cascade(
        spec, {k: t.copy() for k, t in tensors.items()}))
    backend = CompiledBackend(cache=_CACHE)
    for unit in _CACHE.get(spec).units:
        assert unit.flat is not None  # raises CodegenError if rejected
    assert leaves(backend.run_cascade(
        spec, {k: t.copy() for k, t in tensors.items()})) == want
    assert leaves(backend.run_cascade_fused(
        spec, {k: t.copy() for k, t in tensors.items()})) == want


class GuardSpy:
    """Stands in for ``rt.PMAP_RATIO`` and records each position-map
    guard's outcome: the kernel computes ``walk <= _pmr * fixed``, which
    Python evaluates as ``(_pmr * fixed).__ge__(walk)``."""

    def __init__(self, ratio):
        self.ratio = ratio
        self.outcomes = []

    def __mul__(self, fixed):
        return _GuardBound(self, fixed)


class _GuardBound:
    def __init__(self, spy, fixed):
        self.spy, self.fixed = spy, fixed

    def __ge__(self, walk):
        took = walk <= self.spy.ratio * self.fixed
        self.spy.outcomes.append(took)
        return took


#: Specs whose innermost two-way intersection has one driver fixed
#: across the enclosing loop (A, F, or G's row under U), so their flat
#: kernels carry a position-map leaf.
PMAP_SPECS = {
    "reduce": """
einsum:
  declaration: {G: [V, S], A: [S], Z: [V]}
  expressions: ["Z[v] = G[v, s] * A[s]"]
mapping:
  loop-order: {Z: [V, S]}
""",
    "take": """
einsum:
  declaration: {G: [V, S], A: [S], Z: [V, S]}
  expressions: ["Z[v, s] = take(G[v, s], A[s], 0)"]
mapping:
  rank-order: {G: [V, S], Z: [V, S]}
""",
    "fixed-first": """
einsum:
  declaration: {G: [V, S], A: [S], Z: [V]}
  expressions: ["Z[v] = A[s] * G[v, s]"]
mapping:
  loop-order: {Z: [V, S]}
""",
    "fixed-offset": """
einsum:
  declaration: {G: [V, S], A: [S], Z: [V]}
  expressions: ["Z[v] = G[v, s] * A[s + 2]"]
  shapes: {S: 16}
mapping:
  loop-order: {Z: [V, S]}
""",
    "walking-offset": """
einsum:
  declaration: {I: [W], F: [S], O: [Q]}
  expressions: ["O[q] = I[q + s] * F[s]"]
  shapes: {Q: 12}
mapping:
  loop-order: {O: [Q, S]}
""",
    "flattened": """
einsum:
  declaration: {G: [V, K, M], A: [K, M], Z: [V]}
  expressions: ["Z[v] = G[v, k, m] * A[k, m]"]
mapping:
  partitioning:
    Z:
      (K, M): [flatten()]
  loop-order: {Z: [V, KM]}
""",
    "absent-third": """
einsum:
  declaration: {G: [V, S], A: [S], B: [V], Z: [V]}
  expressions: ["Z[v] = G[v, s] * A[s] * B[v]"]
mapping:
  loop-order: {Z: [V, S]}
""",
    "fixed-row": """
einsum:
  declaration: {G: [V, S], A: [U, S], Z: [U, V]}
  expressions: ["Z[u, v] = G[v, s] * A[u, s]"]
mapping:
  loop-order: {Z: [V, U, S]}
""",
}


def random_tensors(spec, data, densities=(0.0, 0.2, 0.5, 0.9)):
    """Hypothesis-drawn inputs of ``spec`` (one shared extent per rank;
    a zero density gives an empty tensor)."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16),
                                          label="seed"))
    extent = {}
    tensors = {}
    for t in spec.einsum.cascade.inputs:
        ranks = spec.einsum.ranks_of(t)
        shape = tuple(extent.setdefault(
            r, data.draw(st.integers(1, 16), label=f"shape {r}"))
            for r in ranks)
        density = data.draw(st.sampled_from(densities), label=f"{t} density")
        arr = (rng.random(shape) < density) * rng.integers(
            1, 9, shape).astype(float)
        tensors[t] = tensor_from_dense(t, ranks, arr)
    return tensors


@pytest.mark.parametrize("name", sorted(PMAP_SPECS))
@pytest.mark.parametrize("ratio", ["never", "production", "always"])
@settings(max_examples=8)
@given(data=st.data())
def test_position_map_leaf_differential(name, ratio, data):
    """Whichever way each span's guard goes, the flat outputs equal the
    interpreter's, in order."""
    spec = load_spec(PMAP_SPECS[name], name=f"pmap-{name}")
    assert "pm0 = " in _CACHE.get(spec).units[0].source_for("flat")
    tensors = random_tensors(spec, data)
    # -inf fails every guard (an empty fixed span gives nan); 10**9
    # passes every guard with a non-empty fixed span.
    spy = GuardSpy({"never": float("-inf"), "production": rt.PMAP_RATIO,
                    "always": 10**9}[ratio])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rt, "PMAP_RATIO", spy)
        assert_flat_matches_interpreter(spec, tensors)
    if ratio == "never":
        assert True not in spy.outcomes


def test_position_map_guard_takes_both_branches_in_one_kernel():
    """A fixed span of 2 coordinates: a 2-long row takes the map, a
    15-long row keeps the merge, and each row's matches are exact."""
    spec = load_spec(PMAP_SPECS["reduce"], name="pmap-reduce")
    g = np.zeros((2, 16))
    g[0, [3, 9]] = [2.0, 5.0]
    g[1, 1:16] = np.arange(1.0, 16.0)
    a = np.zeros(16)
    a[[3, 8]] = [3.0, 7.0]
    tensors = {"G": tensor_from_dense("G", ["V", "S"], g),
               "A": tensor_from_dense("A", ["S"], a)}
    spy = GuardSpy(rt.PMAP_RATIO)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rt, "PMAP_RATIO", spy)
        assert_flat_matches_interpreter(spec, tensors)
    assert spy.outcomes == [True, False]


def test_position_map_runs_in_graph_vcp_kernels():
    """Graph-vcp's SO and R take the map on a frontier as long as the
    rows, and their outputs equal the interpreter's."""
    spec = graphdyns_cascade()
    units = {u.ir.output.tensor: u for u in _CACHE.get(spec).units}
    rng = np.random.default_rng(3)
    g = (rng.random((12, 12)) < 0.3) * rng.integers(1, 9, (12, 12))
    a = (rng.random(12) < 0.6) * rng.integers(1, 9, 12)
    tensors = {"G": tensor_from_dense("G", ["V", "S"], g.astype(float)),
               "A0": tensor_from_dense("A0", ["S"], a.astype(float)),
               "P0": tensor_from_dense("P0", ["V"], np.ones(12))}
    env = InterpreterBackend().run_cascade(
        spec, {k: t.copy() for k, t in tensors.items()}, opset=MIN_PLUS)
    for name, inputs in (("SO", ("G", "A0")), ("R", ("SO", "A0"))):
        arenas = {t: FlatArena.from_tensor(env[t] if t == "SO"
                                           else tensors[t]) for t in inputs}
        spy = GuardSpy(rt.PMAP_RATIO)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rt, "PMAP_RATIO", spy)
            out = units[name].flat(arenas, MIN_PLUS, {"V": 12, "S": 12})
        assert True in spy.outcomes, name
        assert list(out.leaves()) == list(env[name].leaves()), name


#: Two-way unions, each span pair of which the flat kernel merges
#: inline: A's and B's V-rows may be absent (an m in one input only),
#: disjoint, identical or empty.
UNION_SPEC = """
einsum:
  declaration: {A: [M, V], B: [M, V], Z: [M, V]}
  expressions: ["Z[m, v] = A[m, v] + B[m, v]"]
mapping:
  loop-order: {Z: [M, V]}
"""


@pytest.mark.parametrize("case", ["absent", "disjoint", "identical",
                                  "empty"])
def test_inline_union_span_cases(case):
    spec = load_spec(UNION_SPEC, name="union2")
    src = _CACHE.get(spec).units[0].source_for("flat")
    assert "flat_union" not in src
    assert "rt.flat_union" in _CACHE.get(spec).units[0].source_for(
        "counted")
    a = np.zeros((3, 8))
    b = np.zeros((3, 8))
    if case == "absent":  # row 0 in A only, row 2 in B only
        a[0, [1, 4]] = [1.0, 2.0]
        a[1, [2, 5]] = [3.0, 4.0]
        b[1, [5, 6]] = [50.0, 60.0]
        b[2, [0, 7]] = [70.0, 80.0]
    elif case == "disjoint":
        a[:, [0, 2, 4]] = 1.0
        b[:, [1, 3, 7]] = 10.0
    elif case == "identical":
        a[:, [1, 5, 6]] = 2.0
        b[:, [1, 5, 6]] = 20.0
    else:
        a[1, [3]] = 4.0
    tensors = {"A": tensor_from_dense("A", ["M", "V"], a),
               "B": tensor_from_dense("B", ["M", "V"], b)}
    assert_flat_matches_interpreter(spec, tensors)


@settings(max_examples=10)
@given(data=st.data())
def test_inline_union_differential(data):
    spec = load_spec(UNION_SPEC, name="union2")
    assert_flat_matches_interpreter(spec, random_tensors(spec, data))


def test_three_way_union_keeps_the_runtime_helper():
    spec = load_spec("""
einsum:
  declaration: {A: [V], B: [V], C: [V], Z: [V]}
  expressions: ["Z[v] = A[v] + B[v] + C[v]"]
""", name="union3")
    assert "rt.flat_union(" in _CACHE.get(spec).units[0].source_for("flat")
