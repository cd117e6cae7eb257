"""Conformance tests for the priced kernels' batched spans.

The priced kernels (port-free ``counted`` and ported ``vector``) price
whole innermost-rank spans with batched numpy primitives.  Their
contract is *bit-identity* with their own per-span scalar fallback and
the traced interpreter: same outputs, same counters, same
component-machine tallies, same metrics — whichever per-span path
(batched or scalar fallback) ran.  These tests
pin ``VLEAF_MIN`` to 0 so the batched path engages on small inputs
(except the long-span test, whose spans clear the production value),
and separately confirm that the batched path *actually* runs (a silent
always-fallback would make every other assertion vacuous).
"""

import os

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import repro.ir.codegen_runtime as rt
from repro.einsum.operators import ARITHMETIC, MIN_PLUS
from repro.fibertree import tensor_from_dense
from repro.model import (
    CompileCache,
    CompiledBackend,
    EnergyModel,
    InterpreterBackend,
    KernelCounters,
    evaluate,
    evaluate_many,
)
from repro.search import metrics_fingerprint
from repro.spec import load_spec
from repro.workloads import uniform_random

_CACHE = CompileCache()

#: Contraction innermost (the vectorized reduction case), no prep.
SPMSPM = """
einsum:
  declaration:
    A: [M, K]
    B: [N, K]
    Z: [M, N]
  expressions:
    - Z[m, n] = A[m, k] * B[n, k]
mapping:
  loop-order:
    Z: [M, N, K]
"""

#: The same Einsum with buffers bound, so the batched span paths drive
#: the fused buffet/cache machines (read_span + pair_extra + write_seq).
SPMSPM_BUFFERED = SPMSPM + """
architecture:
  Buffered:
    clock: 1.0e9
    subtree:
      - name: System
        local:
          - name: DRAM
            class: DRAM
            attributes: {bandwidth: 128}
          - name: ABuf
            class: Buffer
            attributes: {type: buffet, width: 64, depth: 256}
          - name: BCache
            class: Buffer
            attributes: {type: cache, width: 64, depth: 2048}
          - name: ZBuf
            class: Buffer
            attributes: {type: buffet, width: 64, depth: 1024}
          - name: ALU
            class: Compute
            attributes: {type: mul}
binding:
  Z:
    config: Buffered
    components:
      ABuf:
        - {tensor: A, rank: K, type: elem, style: lazy, evict-on: M}
      BCache:
        - {tensor: B, rank: K, type: elem, style: lazy}
      ZBuf:
        - {tensor: Z, rank: N, type: elem, style: lazy, evict-on: M}
      ALU:
        - op: mul
"""

#: Single-driver reduction innermost (row sums).
ROWSUM = """
einsum:
  declaration:
    A: [M, K]
    Z: [M]
  expressions:
    - Z[m] = A[m, k]
mapping:
  loop-order:
    Z: [M, K]
"""

#: Affine projection on the innermost rank (shifted intersection).
PROJECTED = """
einsum:
  declaration:
    A: [M, K]
    B: [K]
    Z: [M]
  expressions:
    - Z[m] = A[m, k] * B[k + 1]
mapping:
  loop-order:
    Z: [M, K]
"""


@pytest.fixture(autouse=True)
def force_vector_spans(monkeypatch):
    monkeypatch.setattr(rt, "VLEAF_MIN", 0)


def matrix(rng, rows, cols, density):
    return (rng.random((rows, cols)) < density) * rng.integers(
        1, 9, (rows, cols)
    ).astype(float)


def fingerprint(result):
    return {
        "read_bits": dict(result.traffic.read_bits),
        "write_bits": dict(result.traffic.write_bits),
        "exec_seconds": result.exec_seconds,
        "energy_pj": result.energy_pj,
        "actions": result.action_counts(),
        "ops": result.total_ops(),
        "utilization": result.utilization(),
        "outputs": {name: result.env[name].points()
                    for name in result.env},
    }


def assert_vector_matches_reference(spec, tensors):
    backend = CompiledBackend(cache=_CACHE)
    reference = fingerprint(evaluate(
        spec, {k: t.copy() for k, t in tensors.items()},
        backend=InterpreterBackend(), metrics="trace",
    ))
    got = fingerprint(evaluate(
        spec, {k: t.copy() for k, t in tensors.items()},
        backend=backend, metrics="auto",
    ))
    assert got == reference, "metrics=auto diverges"


# ----------------------------------------------------------------------
# Differential conformance
# ----------------------------------------------------------------------
@settings(max_examples=15)
@given(data=st.data())
def test_spmspm_vector_exact(data):
    seed = data.draw(st.integers(0, 2**16), label="seed")
    k = data.draw(st.integers(1, 40), label="K")
    m = data.draw(st.integers(1, 12), label="M")
    n = data.draw(st.integers(1, 12), label="N")
    density = data.draw(st.sampled_from([0.05, 0.3, 0.7]), label="density")
    rng = np.random.default_rng(seed)
    tensors = {
        "A": tensor_from_dense("A", ["M", "K"], matrix(rng, m, k, density)),
        "B": tensor_from_dense("B", ["N", "K"], matrix(rng, n, k, density)),
    }
    assert_vector_matches_reference(load_spec(SPMSPM, name="vec-spmspm"),
                                    tensors)


@settings(max_examples=15)
@given(data=st.data())
def test_buffered_vector_exact(data):
    """Batched machine paths (read_span/pair_extra/write_seq) must leave
    buffets and caches in tally-identical states."""
    seed = data.draw(st.integers(0, 2**16), label="seed")
    k = data.draw(st.integers(1, 48), label="K")
    density = data.draw(st.sampled_from([0.1, 0.4]), label="density")
    rng = np.random.default_rng(seed)
    tensors = {
        "A": tensor_from_dense("A", ["M", "K"], matrix(rng, 8, k, density)),
        "B": tensor_from_dense("B", ["N", "K"], matrix(rng, 8, k, density)),
    }
    assert_vector_matches_reference(
        load_spec(SPMSPM_BUFFERED, name="vec-buffered"), tensors
    )


@settings(max_examples=10)
@given(data=st.data())
def test_single_driver_reduction_vector_exact(data):
    seed = data.draw(st.integers(0, 2**16), label="seed")
    rng = np.random.default_rng(seed)
    tensors = {
        "A": tensor_from_dense("A", ["M", "K"], matrix(rng, 10, 30, 0.3)),
    }
    assert_vector_matches_reference(load_spec(ROWSUM, name="vec-rowsum"),
                                    tensors)


@settings(max_examples=10)
@given(data=st.data())
def test_projected_intersection_vector_exact(data):
    seed = data.draw(st.integers(0, 2**16), label="seed")
    rng = np.random.default_rng(seed)
    a = matrix(rng, 6, 40, 0.4)
    b = (rng.random(44) < 0.4) * rng.integers(1, 9, 44).astype(float)
    tensors = {
        "A": tensor_from_dense("A", ["M", "K"], a),
        "B": tensor_from_dense("B", ["K"], b),
    }
    assert_vector_matches_reference(
        load_spec(PROJECTED, name="vec-projected"), tensors
    )


def test_empty_and_disjoint_spans():
    spec = load_spec(SPMSPM, name="vec-empty")
    a = np.zeros((4, 20))
    b = np.zeros((4, 20))
    a[0, :10] = 1.0  # A occupies the low half of K ...
    b[0, 10:] = 2.0  # ... B the high half: visits but zero matches
    tensors = {
        "A": tensor_from_dense("A", ["M", "K"], a),
        "B": tensor_from_dense("B", ["N", "K"], b),
    }
    assert_vector_matches_reference(spec, tensors)
    # Fully empty inputs as well.
    empty = {
        "A": tensor_from_dense("A", ["M", "K"], np.zeros((4, 20))),
        "B": tensor_from_dense("B", ["N", "K"], np.zeros((4, 20))),
    }
    assert_vector_matches_reference(spec, empty)


def test_float_accumulation_is_bitwise_sequential():
    """The reduction over K must round exactly like the scalar left
    fold — adversarial magnitudes where pairwise summation differs."""
    rng = np.random.default_rng(0)
    k = 64
    a = np.zeros((1, k))
    b = np.zeros((1, k))
    a[0] = rng.random(k) * np.logspace(-12, 12, k)
    b[0] = rng.random(k) + 1.0
    tensors = {
        "A": tensor_from_dense("A", ["M", "K"], a),
        "B": tensor_from_dense("B", ["N", "K"], b),
    }
    spec = load_spec(SPMSPM, name="vec-fp")
    backend = CompiledBackend(cache=_CACHE)
    ref = evaluate(spec, {k_: t.copy() for k_, t in tensors.items()},
                   backend=InterpreterBackend(), metrics="trace")
    got = evaluate(spec, {k_: t.copy() for k_, t in tensors.items()},
                   backend=backend, metrics="auto")
    assert got.env["Z"].points() == ref.env["Z"].points()


# ----------------------------------------------------------------------
# Engagement and gating
# ----------------------------------------------------------------------
class _CountingList(list):
    """A list that counts its item reads into ``calls["n"]``."""

    def __init__(self, items, calls):
        super().__init__(items)
        self.calls = calls

    def __getitem__(self, s):
        self.calls["n"] += 1
        return super().__getitem__(s)


def count_numpy_spans(monkeypatch):
    """Count the merge spans that took the numpy branch (``calls["n"]``).

    A span either calls ``rt.visect2`` (``calls["visect2"]``) or reads
    its match count from its parent's sibling batch, exactly once; the
    batch hands the counts over as a :class:`_CountingList`.
    ``calls["batches"]`` counts the sibling batches built."""
    calls = {"n": 0, "visect2": 0, "batches": 0}
    real_visect2 = rt.visect2
    real_intersect = rt.SiblingMap.intersect

    def visect2(*args):
        calls["n"] += 1
        calls["visect2"] += 1
        return real_visect2(*args)

    def intersect(self, *args):
        got = real_intersect(self, *args)
        if got is None:
            return None
        calls["batches"] += 1
        q0, q1, starts, counts, v0, v1 = got
        return q0, q1, starts, _CountingList(counts, calls), v0, v1

    monkeypatch.setattr(rt, "visect2", visect2)
    monkeypatch.setattr(rt.SiblingMap, "intersect", intersect)
    return calls


def test_batched_path_actually_runs(monkeypatch):
    """Guard against a silently always-scalar vector flavor."""
    calls = count_numpy_spans(monkeypatch)
    rng = np.random.default_rng(1)
    tensors = {
        "A": tensor_from_dense("A", ["M", "K"], matrix(rng, 4, 30, 0.5)),
        "B": tensor_from_dense("B", ["N", "K"], matrix(rng, 4, 30, 0.5)),
    }
    evaluate(load_spec(SPMSPM, name="vec-engage"), tensors,
             backend=CompiledBackend(cache=_CACHE), metrics="auto")
    assert calls["n"] > 0


def test_span_threshold_keeps_small_leaves_scalar(monkeypatch):
    monkeypatch.setattr(rt, "VLEAF_MIN", 10**9)
    calls = count_numpy_spans(monkeypatch)
    rng = np.random.default_rng(2)
    tensors = {
        "A": tensor_from_dense("A", ["M", "K"], matrix(rng, 4, 30, 0.5)),
        "B": tensor_from_dense("B", ["N", "K"], matrix(rng, 4, 30, 0.5)),
    }
    spec = load_spec(SPMSPM, name="vec-threshold")
    backend = CompiledBackend(cache=_CACHE)
    got = evaluate(spec, {k: t.copy() for k, t in tensors.items()},
                   backend=backend, metrics="auto")
    assert calls["n"] == 0  # every leaf took the scalar fallback
    assert calls["batches"] == 0  # and no sibling batch was built
    ref = evaluate(spec, {k: t.copy() for k, t in tensors.items()},
                   backend=InterpreterBackend(), metrics="trace")
    assert fingerprint(got) == fingerprint(ref)


def _nnz_workload(nnz):
    """One SpMSpM with a 32x32 output and ~``nnz`` nonzeros per input.
    Density falls with size (``d ~ nnz^-1/4``) while the contraction
    depth grows super-linearly, so K-fibers hold hundreds to thousands
    of coordinates."""
    m = n = 32
    density = 0.1 * (10_000 / max(nnz, 1)) ** 0.25
    k = max(32, int(round(nnz / (m * density))))
    return {
        "A": uniform_random("A", ["M", "K"], (m, k), density, seed=11),
        "B": uniform_random("B", ["N", "K"], (n, k), density, seed=13),
    }


def _priced_result(spec, tensors, ported):
    """Evaluate through one priced kernel: the port-free ``counted``
    kernel, or (``ported``) the ``vector`` kernel with a routing plan —
    the same pricing :func:`evaluate` applies, with the kernel forced."""
    from repro.model.evaluate import (
        EvaluationResult, FusedMachines, ModelSink, _price_counters,
        fuse_blocks,
    )

    env = {}
    sink = ModelSink(spec, env)

    def on_fused(name, counters, fm):
        _price_counters(sink, counters)
        if fm is not None:
            fm.settle(counters)

    CompiledBackend(cache=_CACHE).run_cascade_fused(
        spec, dict(tensors), sink=sink, env=env,
        make_machines=(lambda name, ir: FusedMachines(sink, ir))
        if ported else None,
        on_fused=on_fused,
    )
    return EvaluationResult(spec=spec, einsums=sink.einsums,
                            blocks=fuse_blocks(spec, sink), env=env,
                            oracle=sink.oracle, energy_model=EnergyModel())


@pytest.mark.parametrize("nnz", [20_000, 80_000])
def test_long_span_counters_match_vector(monkeypatch, nnz):
    """Past the production ``VLEAF_MIN`` the priced kernels take their
    batched spans; the port-free counted kernel and the ported vector
    kernel must price bit-identically."""
    monkeypatch.undo()  # the real threshold: these spans clear it
    assert rt.VLEAF_MIN > 0
    spec = load_spec(SPMSPM, name="vec-nnz")
    work = _nnz_workload(nnz)
    prints = {}
    for ported in (False, True):
        calls = count_numpy_spans(monkeypatch)
        prints[ported] = fingerprint(_priced_result(spec, work, ported))
        assert calls["n"] > 0  # the batched spans ran
    assert prints[False] == prints[True], (
        f"nnz={nnz}: vector metrics diverge from counted"
    )


def test_long_span_auto_matches_interpreter(monkeypatch):
    """The long-span regime, cut down: K-fibers deep enough to clear the
    production ``VLEAF_MIN``, on an unbuffered spec, so ``auto`` runs the
    port-free kernel's batched spans.  It must price bit-identically to
    the interpreter."""
    monkeypatch.undo()  # the real threshold: these spans clear it
    assert rt.VLEAF_MIN > 0
    calls = count_numpy_spans(monkeypatch)
    spec = load_spec(SPMSPM, name="vec-long-span")
    work = {
        "A": uniform_random("A", ["M", "K"], (8, 4096), 0.05, seed=11),
        "B": uniform_random("B", ["N", "K"], (8, 4096), 0.05, seed=13),
    }
    got = evaluate(spec, dict(work), backend=CompiledBackend(cache=_CACHE),
                   metrics="auto")
    assert calls["n"] == 8 * 8  # every (m, n) span took the numpy branch
    assert calls["batches"] == 8  # one sibling batch per m served them
    assert calls["visect2"] == 0
    ref = evaluate(spec, dict(work), backend=InterpreterBackend(),
                   metrics="trace")
    assert fingerprint(got) == fingerprint(ref)


def test_position_stamp_spans_are_ranges(monkeypatch):
    """Every numpy-branch span of the long-span spec (``SPMSPM``, with
    ``pos``-style stamps) records its varying stamp slot as a ``range``
    of loop positions, never a column, and the serial steps counted from
    those ranges equal the interpreter's."""
    entries = []
    real = KernelCounters.add_compute

    def add_compute(self, op, n, scalars, spans):
        entries.extend(spans)
        return real(self, op, n, scalars, spans)

    monkeypatch.setattr(KernelCounters, "add_compute", add_compute)
    spec = load_spec(SPMSPM, name="vec-long-span")
    work = {
        "A": uniform_random("A", ["M", "K"], (6, 256), 0.1, seed=11),
        "B": uniform_random("B", ["N", "K"], (6, 256), 0.1, seed=13),
    }
    got = evaluate(spec, dict(work), backend=CompiledBackend(cache=_CACHE),
                   metrics="auto")
    assert entries
    assert all(type(inner) is range and inner.step == 1
               for _, inner in entries)
    ref = evaluate(spec, dict(work), backend=InterpreterBackend(),
                   metrics="trace")
    steps = {name: res.einsums["Z"].computes["mul"].serial_steps()
             for name, res in (("auto", got), ("trace", ref))}
    assert steps["auto"] == steps["trace"] > 0
    assert fingerprint(got) == fingerprint(ref)


#: A spatial rank (N) absent from the time stamp: every (m, n) span of
#: one ``m`` stamps into the same ``(m, k)`` time steps.
SPMSPM_SPATIAL_N = SPMSPM + """  spacetime:
    Z: {{space: [N], time: [M, {k}]}}
"""


@pytest.mark.parametrize("k_stamp", ["K", "K.coord"])
def test_shared_prefix_mixes_scalar_and_vector_spans(monkeypatch, k_stamp):
    """At the production ``VLEAF_MIN``, spans of one ``m`` split between
    the batched branch (long B rows) and the scalar loop (short B rows);
    their time stamps share the ``(m,)`` prefix and must union exactly."""
    monkeypatch.undo()  # the real threshold
    rng = np.random.default_rng(5)
    k = 400

    def rows(lengths):
        dense = np.zeros((len(lengths), k))
        for r, n in enumerate(lengths):
            dense[r, rng.choice(k, n, replace=False)] = \
                rng.integers(1, 9, n)
        return dense

    a_len, b_len = [60, 60, 60], [10, 80, 10, 80, 10, 80]
    assert all(a + b < rt.VLEAF_MIN for a in a_len for b in b_len[::2])
    assert all(a + b >= rt.VLEAF_MIN for a in a_len for b in b_len[1::2])
    tensors = {"A": tensor_from_dense("A", ["M", "K"], rows(a_len)),
               "B": tensor_from_dense("B", ["N", "K"], rows(b_len))}
    spec = load_spec(SPMSPM_SPATIAL_N.format(k=k_stamp),
                     name=f"vec-spatial-{k_stamp}")
    calls = count_numpy_spans(monkeypatch)
    results = {metrics: evaluate(spec, {k: t.copy()
                                        for k, t in tensors.items()},
                                 backend=CompiledBackend(cache=_CACHE),
                                 metrics=metrics)
               for metrics in ("trace", "auto")}
    assert calls["n"] == 9  # the long-row spans took the batched branch
    steps = {metrics: res.einsums["Z"].computes["mul"].serial_steps()
             for metrics, res in results.items()}
    assert steps["auto"] == steps["trace"] > 0
    assert metrics_fingerprint(results["auto"]) == \
        metrics_fingerprint(results["trace"])
    assert fingerprint(results["auto"]) == fingerprint(results["trace"])


#: SpMSpM with only its mapping left open.
SPMSPM_MAPPED = SPMSPM.split("mapping:")[0] + "mapping:\n{}"

#: ``Z[m] = A[m, k] * B[k + <shift>]``: A's K fibers walk the M loop's
#: children, B's one fiber is fixed and projected by the shift.
PROJECTED_BY = PROJECTED.replace("B[k + 1]", "B[k + {}]")

#: Row dot products: the M loop intersects A and B, so both K drivers
#: walk child fibers.
ROW_DOTS = """
einsum:
  declaration:
    A: [M, K]
    B: [M, K]
    Z: [M]
  expressions:
    - Z[m] = A[m, k] * B[m, k]
mapping:
  loop-order:
    Z: [M, K]
"""

#: The sibling-batch eligibility edges: (spec, tensors, numpy-branch
#: merge spans, sibling batches) at the production ``VLEAF_MIN``.
_DEEP_A = ("A", ["M", "K"], (6, 2048), 0.08, 11)
_DEEP_B = ("B", ["N", "K"], (6, 2048), 0.08, 13)
SIBLING_EDGES = {
    # The fixed driver is the second one: one batch per n.
    "fixed-second": (SPMSPM_MAPPED.format(
        "  loop-order:\n    Z: [N, M, K]\n"), (_DEEP_A, _DEEP_B), 36, 6),
    # A partitioned enclosing rank whose lower half (N0) is a plain
    # loop: one batch per (m, n1) chunk.
    "split-enclosing": (SPMSPM_MAPPED.format(
        "  partitioning:\n    Z:\n      N: [uniform_shape(2)]\n"
        "  loop-order:\n    Z: [M, N1, N0, K]\n"), (_DEEP_A, _DEEP_B),
        36, 18),
    # The enclosing loop is an upper (partition) rank: per span.
    "upper-enclosing": (SPMSPM_MAPPED.format(
        "  partitioning:\n    Z:\n      K: [uniform_occupancy(A.64)]\n"
        "  loop-order:\n    Z: [M, N, K1, K0]\n"), (_DEEP_A, _DEEP_B),
        72, 0),
    # The enclosing loop intersects A and B: both leaf drivers walk.
    "intersect-enclosing": (ROW_DOTS, (
        _DEEP_A, ("B", ["M", "K"], (6, 2048), 0.08, 13)), 6, 0),
    # A constant offset is invariant: one batch for the whole M loop.
    "constant-offset": (PROJECTED_BY.format("1"), (_DEEP_A, "B"), 6, 1),
    # An offset that reads the enclosing loop's variable: per span.
    "varying-offset": (PROJECTED_BY.format("m"), (_DEEP_A, "B"), 6, 0),
    # The ported kernel reads the batch's slices too.
    "buffered": (SPMSPM_BUFFERED, (_DEEP_A, _DEEP_B), 36, 6),
}


def _edge_tensor(arg):
    if arg == "B":  # a dense-ish vector for the projected specs
        dense = (np.random.default_rng(3).random(2048) < 0.3) * 2.0
        return tensor_from_dense("B", ["K"], dense)
    name, ranks, shape, density, seed = arg
    return uniform_random(name, ranks, shape, density, seed=seed)


@pytest.mark.parametrize("edge", sorted(SIBLING_EDGES))
def test_sibling_batch_edges_match_interpreter(monkeypatch, edge):
    """At the production ``VLEAF_MIN``, each eligibility edge takes the
    expected mix of sibling batches and per-span ``visect2`` calls, and
    prices bit-identically to the interpreter."""
    monkeypatch.undo()  # the real threshold
    text, args, spans, batches = SIBLING_EDGES[edge]
    tensors = {t.name: t for t in map(_edge_tensor, args)}
    spec = load_spec(text, name=f"vec-edge-{edge}")
    calls = count_numpy_spans(monkeypatch)
    got = evaluate(spec, {k: t.copy() for k, t in tensors.items()},
                   backend=CompiledBackend(cache=_CACHE), metrics="auto")
    assert (calls["n"], calls["batches"]) == (spans, batches)
    assert calls["visect2"] == (0 if batches else spans)
    ref = evaluate(spec, {k: t.copy() for k, t in tensors.items()},
                   backend=InterpreterBackend(), metrics="trace")
    assert fingerprint(got) == fingerprint(ref)


def test_non_elementwise_opsets_stay_scalar_and_exact():
    """MIN_PLUS does not declare vector_ok; the vector kernels must not
    batch it (min() is not elementwise on arrays) yet stay exact."""
    assert not rt.vec_ok(MIN_PLUS)
    assert rt.vec_ok(ARITHMETIC)
    rng = np.random.default_rng(3)
    tensors = {
        "A": tensor_from_dense("A", ["M", "K"], matrix(rng, 6, 24, 0.4)),
        "B": tensor_from_dense("B", ["N", "K"], matrix(rng, 6, 24, 0.4)),
    }
    spec = load_spec(SPMSPM, name="vec-minplus")
    backend = CompiledBackend(cache=_CACHE)
    ref = evaluate(spec, {k: t.copy() for k, t in tensors.items()},
                   backend=InterpreterBackend(), metrics="trace",
                   opset=MIN_PLUS)
    got = evaluate(spec, {k: t.copy() for k, t in tensors.items()},
                   backend=backend, metrics="auto", opset=MIN_PLUS)
    assert fingerprint(got) == fingerprint(ref)


# ----------------------------------------------------------------------
# evaluate_many fan-out: serial or a process pool
# ----------------------------------------------------------------------
def _sweep_workloads(n=3):
    out = []
    for i in range(n):
        out.append({
            "A": uniform_random("A", ["M", "K"], (6, 40), 0.3, seed=2 * i),
            "B": uniform_random("B", ["N", "K"], (6, 40), 0.3,
                                seed=2 * i + 1),
        })
    return out


def test_evaluate_many_process_pool_matches_serial():
    spec = load_spec(SPMSPM, name="vec-pool")
    workloads = _sweep_workloads()
    serial = evaluate_many(spec, [dict(w) for w in workloads], workers=1)
    procs = evaluate_many(spec, [dict(w) for w in workloads], workers=2)
    for a, b in zip(serial, procs):
        assert a.env["Z"].points() == b.env["Z"].points()
        assert a.traffic_bytes() == b.traffic_bytes()
        assert a.exec_seconds == b.exec_seconds
        assert a.energy_pj == b.energy_pj


def test_evaluate_many_executor_env_override(monkeypatch):
    """REPRO_EVALUATE_EXECUTOR is retired: any value raises a named
    error that points at REPRO_EVALUATE_WORKERS, the one knob left."""
    from repro.model.evaluate import EnvVarError

    spec = load_spec(SPMSPM, name="vec-pool-env-executor")
    for value in ("process", "thread", "bogus"):
        monkeypatch.setenv("REPRO_EVALUATE_EXECUTOR", value)
        with pytest.raises(EnvVarError, match="REPRO_EVALUATE_WORKERS"):
            evaluate_many(spec, _sweep_workloads(2))


def test_thread_executor_warns_and_runs_serially():
    """The retired executor="thread" spelling warns, runs serially and
    gives the serial fingerprints; "process" only warns."""
    spec = load_spec(SPMSPM, name="vec-pool-retired")
    workloads = _sweep_workloads(2)
    serial = evaluate_many(spec, [dict(w) for w in workloads])
    with pytest.warns(DeprecationWarning, match="runs serially"):
        threaded = evaluate_many(spec, [dict(w) for w in workloads],
                                 workers=2, executor="thread")
    assert [metrics_fingerprint(r) for r in threaded] \
        == [metrics_fingerprint(r) for r in serial]
    with pytest.warns(DeprecationWarning, match="changes nothing"):
        procs = evaluate_many(spec, [dict(w) for w in workloads],
                              workers=1, executor="process")
    assert [metrics_fingerprint(r) for r in procs] \
        == [metrics_fingerprint(r) for r in serial]


def test_evaluate_many_rejects_unknown_executor():
    spec = load_spec(SPMSPM, name="vec-pool-bad")
    with pytest.raises(ValueError, match="unknown executor"):
        evaluate_many(spec, _sweep_workloads(2), executor="Processes")


def test_explicit_process_executor_raises_on_unpicklable_args():
    """workers=2 by argument must refuse (not silently run serially)
    when the arguments cannot cross the process pool."""
    from repro.model import EnergyModel, ProcessExecutorError

    spec = load_spec(SPMSPM, name="vec-pool-strict")
    with pytest.raises(ProcessExecutorError, match="energy_model"):
        evaluate_many(spec, _sweep_workloads(2), workers=2,
                      energy_model=EnergyModel())


def test_env_process_executor_downgrades_with_warning(monkeypatch):
    """A process pool requested by REPRO_EVALUATE_WORKERS falls back to
    serial, naming the argument that blocked the pool."""
    from repro.model import EnergyModel, ExecutorDowngradeWarning

    monkeypatch.setenv("REPRO_EVALUATE_WORKERS", "2")
    spec = load_spec(SPMSPM, name="vec-pool-env")
    with pytest.warns(ExecutorDowngradeWarning, match="energy_model"):
        results = evaluate_many(spec, _sweep_workloads(2),
                                energy_model=EnergyModel())
    assert len(results) == 2
