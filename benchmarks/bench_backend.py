"""Compiled-simulation fast paths vs. the interpreter on workload sweeps.

Claims under test, on design-space-study-shaped sweeps (one spec, many
input matrices — the scenario the compile cache and the batched API
target):

1. **Traced**: ``evaluate_many`` with a warm compile cache beats per-call
   interpreter evaluation while replaying the interpreter's exact trace
   stream.
2. **Untraced**: the arena-native *flat* kernels (structure-of-arrays
   fibertree storage, inlined galloping intersection) beat the
   interpreter's untraced walk by a wide margin — this is the
   pure-computation path used when no metrics are requested.
3. **Counters**: counter-fused metrics (``metrics="counters"``) price
   component models from aggregate tallies and land between the two.
4. **Fused**: on a *buffered* spec (buffet + LRU cache + output buffet —
   the accelerators TeAAL exists to model), the vector kernels inline
   the component state machines into the arena loops and must beat the
   per-event traced path by a wide margin with bit-identical results.
5. **Vector**: on the long-span sweep (a contraction rank thousands of
   coordinates deep — the regime real large-nnz tensors live in), the
   rank-batched vector kernels (``metrics="vector"``, what
   ``metrics="auto"`` now picks) must beat the counter-fused scalar
   loops by >=3x, bit-identically.
6. **Search**: on a buffered spec's full candidate space (every loop
   order x K-tile choice), the parallel pruned mapping search
   (``repro.search.search`` — trace-exact vector scoring for everyone,
   the top-k kept as scored) must beat the serial exhaustive sweep at
   full traced fidelity by >=2x while choosing the *identical* best
   candidate with bit-identical metrics.
7. **Analytical**: on the same candidate space, the statistics-based
   pricing tier (``metrics="analytical"`` — no tensor walked at all)
   must price candidates >=100x faster than the counter-fused kernels,
   and the pruned search with ``prune_metrics="analytical"`` must still
   land on the exhaustive-best mapping at the bench space's ``k``.
8. **Analytical accuracy**: the ``analytical-accuracy`` flavor records
   the per-accelerator analytical/exact traffic and ops ratios on the
   canonical cross-validation workloads into the trajectory, so model
   accuracy accrues history the way performance does.

An ``--nnz-sweep`` mode grows one synthetic SpMSpM from 1e4 to 1e6
nonzeros and records counted-vs-vector per size — the gap widens with
span length, which is the scaling argument for numpy-native buffers.
``--flavor`` restricts a run to a comma-separated subset of engines.

Every run appends a record to ``benchmarks/BENCH_backend.json`` (wall
times, speedups, commit hash) so performance history accrues across PRs.

Run:  python benchmarks/bench_backend.py [--workloads N] [--no-json]
                                         [--flavor a,b,...]
  or: python benchmarks/bench_backend.py --nnz-sweep [--nnz-sizes ...]
  or: pytest benchmarks/bench_backend.py  (pytest-benchmark)
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import subprocess
import time
from datetime import datetime, timezone

import pytest

from repro.model import (
    CompiledBackend,
    CompileCache,
    InterpreterBackend,
    evaluate,
    evaluate_many,
)
from repro.spec import load_spec
from repro.workloads import uniform_random

try:
    from ._common import print_series
except ImportError:  # running as a plain script
    from _common import print_series

#: The historical sweep spec (occupancy-split contraction): every PR's
#: interpreter/compiled/untraced rows measure this same shape, so the
#: perf-trajectory file stays comparable across the project's history.
SPEC = """
einsum:
  declaration:
    A: [K, M]
    B: [K, N]
    Z: [M, N]
  expressions:
    - Z[m, n] = A[k, m] * B[k, n]
mapping:
  partitioning:
    Z:
      K: [uniform_occupancy(A.16)]
  loop-order:
    Z: [K1, M, N, K0]
"""

#: The buffered variant: same Einsum/mapping, plus an architecture and
#: binding that route A through a buffet, B through an LRU FiberCache,
#: and the Z output through an evict-on buffet — the spec shape every
#: registered accelerator has.
SPEC_BUFFERED = SPEC + """
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
            attributes: {type: cache, width: 64, depth: 16384}
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
        - {tensor: A, rank: K, type: elem, style: lazy, evict-on: K1}
      BCache:
        - {tensor: B, rank: K, type: elem, style: lazy}
      ZBuf:
        - {tensor: Z, rank: N, type: elem, style: lazy, evict-on: M}
      ALU:
        - op: mul
"""

#: The vector sweep spec: storage orders match the loop order (no
#: per-workload swizzle masking kernel time) and the contraction rank
#: is innermost and *long* — K-fibers of ~500 coordinates, the span
#: regime the rank-batched numpy leaves target.
SPEC_VECTOR = """
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

#: Vector-sweep workload geometry: ~12k nonzeros per tensor, K-spans of
#: ~490 coordinates.
VEC_K, VEC_M, VEC_N, VEC_DENSITY = 8192, 24, 24, 0.06

#: The search-sweep spec: the buffered architecture again, but with
#: evict-on ranks (M) that exist in *every* candidate mapping — the
#: sweep tiles only K, so bindings stay meaningful across the space.
SPEC_SEARCH = """
einsum:
  declaration:
    A: [K, M]
    B: [K, N]
    Z: [M, N]
  expressions:
    - Z[m, n] = A[k, m] * B[k, n]
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
            attributes: {type: cache, width: 64, depth: 16384}
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

#: Search-sweep candidate space: all loop orders of the three iteration
#: ranks x (untiled, K:8, K:16); the pruned run re-prices only the top 4.
SEARCH_RANKS = ("M", "N", "K")
SEARCH_TILE_SIZES = {"K": (8, 16)}
SEARCH_PRUNE_TO = 4

#: The ``lint`` flavor's candidate space: the search ladder plus two
#: degenerate tile sizes (K spans only 96, so 256/1024 tiles are
#: single-chunk no-ops the spec linter proves infeasible statically).
LINT_TILE_SIZES = {"K": (8, 16, 256, 1024)}


def _search_n_candidates() -> int:
    from repro.search import MappingSpace

    return MappingSpace.of(SEARCH_RANKS, SEARCH_TILE_SIZES).size()

N_WORKLOADS = 24
N_BUFFERED_WORKLOADS = 8
#: Default nonzero counts of the --nnz-sweep scaling curve.
NNZ_SIZES = (10_000, 100_000, 1_000_000)
TRAJECTORY = os.path.join(os.path.dirname(__file__), "BENCH_backend.json")

ALL_FLAVORS = ("interpreter", "compiled", "counters", "vector",
               "untraced", "buffered", "executor", "search", "analytical",
               "analytical-accuracy", "supervised", "store", "lint")

#: The scaled-down accelerator configs the analytical tier is
#: cross-validated against (mirrors ``tests/model/test_analytical.py``).
ACCURACY_ACCELERATORS = {
    "gamma": dict(pe_rows=16, merge_way=16),
    "outerspace": dict(mult_outer=64, mult_inner=8, merge_outer=32,
                       merge_inner=4),
    "extensor": dict(k1=16, k0=8, m1=16, m0=8, n1=16, n0=8),
    "sigma": dict(k_tile=64, pe_array=512),
}


def _workloads(n: int = N_WORKLOADS):
    out = []
    for i in range(n):
        out.append({
            "A": uniform_random("A", ["K", "M"], (48, 40), 0.25, seed=2 * i),
            "B": uniform_random("B", ["K", "N"], (48, 36), 0.25,
                                seed=2 * i + 1),
        })
    return out


def _n_buffered(n: int) -> int:
    """Buffered sweep size for a requested sweep size of ``n``."""
    return max(2, min(N_BUFFERED_WORKLOADS, n))


def _buffered_workloads(n: int = N_BUFFERED_WORKLOADS):
    out = []
    for i in range(n):
        out.append({
            "A": uniform_random("A", ["K", "M"], (96, 48), 0.15, seed=2 * i),
            "B": uniform_random("B", ["K", "N"], (96, 40), 0.15,
                                seed=2 * i + 1),
        })
    return out


def _vector_workloads(n: int = N_WORKLOADS):
    out = []
    for i in range(n):
        out.append({
            "A": uniform_random("A", ["M", "K"], (VEC_M, VEC_K),
                                VEC_DENSITY, seed=2 * i),
            "B": uniform_random("B", ["N", "K"], (VEC_N, VEC_K),
                                VEC_DENSITY, seed=2 * i + 1),
        })
    return out


def run_comparison(n: int = N_WORKLOADS, flavors=None):
    """Time the sweeps through the selected engines; returns the timings.

    ``timings`` maps engine names to sweep seconds:

    * ``interpreter`` / ``compiled`` / ``counters`` — traced and
      counter-fused metric evaluations on the historical sweep;
    * ``untraced_interpreter`` / ``untraced_flat`` — outputs only, no
      sink (the pure-computation path);
    * ``vspan_counters`` / ``vspan_vector`` — the long-span vector
      sweep through the counted and vector kernels (the >=3x claim);
    * ``buffered_*`` — the buffered spec through the interpreter, the
      traced kernels, and the vector kernels;
    * ``executor_thread`` / ``executor_process`` — the long-span sweep
      through both ``evaluate_many`` pool types (the measurement behind
      the thread default);
    * ``acand_counters`` / ``acand_analytical`` — the search space's
      candidates priced one-by-one through the counter-fused kernels
      and the statistics tier (the >=100x claim).
    """
    flavors = set(ALL_FLAVORS if flavors is None else flavors)
    spec = load_spec(SPEC, name="backend-sweep")
    workloads = _workloads(n)
    timings = {}

    interp = InterpreterBackend()
    compiled = CompiledBackend(cache=CompileCache())
    for unit in compiled.compile(spec).units:
        _ = unit.traced
        _ = unit.counted
        _ = unit.flat

    interp_results = compiled_results = counter_results = None

    if "interpreter" in flavors:
        t0 = time.perf_counter()
        interp_results = [
            evaluate(spec, dict(w), backend=interp, metrics="trace")
            for w in workloads
        ]
        timings["interpreter"] = time.perf_counter() - t0

    # metrics="trace" pins the historical meaning of this row (the
    # traced compiled kernels); the default is now metrics="auto".
    if "compiled" in flavors:
        t0 = time.perf_counter()
        compiled_results = evaluate_many(spec, [dict(w) for w in workloads],
                                         backend=compiled, metrics="trace")
        timings["compiled"] = time.perf_counter() - t0

    if "counters" in flavors:
        t0 = time.perf_counter()
        counter_results = evaluate_many(spec, [dict(w) for w in workloads],
                                        backend=compiled,
                                        metrics="counters")
        timings["counters"] = time.perf_counter() - t0

    # The unbuffered engines must agree before their times are
    # comparable; checked here so their results can be freed before the
    # next sections (a large retained heap taxes every allocation
    # through the garbage collector and would skew the next ratios).
    present = [r for r in (interp_results, compiled_results,
                           counter_results) if r is not None]
    for group in zip(*present):
        first = group[0]
        for other in group[1:]:
            assert first.env["Z"].points() == other.env["Z"].points()
            assert first.traffic_bytes() == other.traffic_bytes()
            assert first.exec_seconds == other.exec_seconds
    del interp_results, compiled_results, counter_results, present
    gc.collect()

    if "untraced" in flavors:
        t0 = time.perf_counter()
        untraced_interp = [
            interp.run_cascade(spec, dict(w)) for w in workloads
        ]
        timings["untraced_interpreter"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        untraced_flat = [
            compiled.run_cascade(spec, dict(w)) for w in workloads
        ]
        timings["untraced_flat"] = time.perf_counter() - t0

        for ei, ef in zip(untraced_interp, untraced_flat):
            assert ei["Z"].points() == ef["Z"].points()
        del untraced_interp, untraced_flat
        gc.collect()

    if "vector" in flavors or "executor" in flavors:
        timings.update(_run_vector_sweep(n, flavors))
    if "buffered" in flavors:
        timings.update(_run_buffered(n, interp))
    if "search" in flavors:
        timings.update(_run_search())
    if "analytical" in flavors:
        timings.update(_run_analytical())
    if "analytical-accuracy" in flavors:
        timings.update(_run_analytical_accuracy())
    if "supervised" in flavors:
        timings.update(_run_supervised())
    if "store" in flavors:
        timings.update(_run_store())
    if "lint" in flavors:
        timings.update(_run_lint())
    return timings


def _run_vector_sweep(n: int, flavors) -> dict:
    """The long-span sweep: counted vs vector kernels (the >=3x claim),
    plus the evaluate_many pool-type measurement."""
    spec = load_spec(SPEC_VECTOR, name="vector-sweep")
    workloads = _vector_workloads(n)
    backend = CompiledBackend(cache=CompileCache())
    for unit in backend.compile(spec).units:
        _ = unit.counted
        _ = unit.vector
    timings = {}

    counter_results = vector_results = None
    if "vector" in flavors:
        gc.collect()
        t0 = time.perf_counter()
        counter_results = evaluate_many(spec, [dict(w) for w in workloads],
                                        backend=backend,
                                        metrics="counters")
        timings["vspan_counters"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        vector_results = evaluate_many(spec, [dict(w) for w in workloads],
                                       backend=backend, metrics="vector")
        timings["vspan_vector"] = time.perf_counter() - t0

        for a, b in zip(counter_results, vector_results):
            assert a.env["Z"].points() == b.env["Z"].points()
            assert a.traffic_bytes() == b.traffic_bytes()
            assert a.exec_seconds == b.exec_seconds
            assert a.energy_pj == b.energy_pj
            assert a.action_counts() == b.action_counts()
        del counter_results, vector_results
        gc.collect()

    if "executor" in flavors:
        # Thread-vs-process measurement behind default_executor()'s
        # thread default (recorded in the JSON trajectory).
        t0 = time.perf_counter()
        evaluate_many(spec, [dict(w) for w in workloads],
                      metrics="vector", executor="thread")
        timings["executor_thread"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        evaluate_many(spec, [dict(w) for w in workloads],
                      metrics="vector", executor="process")
        timings["executor_process"] = time.perf_counter() - t0
    return timings


def _timed_sweep(spec, workloads, metrics, engine):
    """One timed sweep with the collector paused (the standard
    benchmarking hygiene pyperf applies): collections would charge
    whichever engine happens to trigger them."""
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        out = [
            evaluate(spec, dict(w), backend=engine, metrics=metrics)
            for w in workloads
        ]
        return time.perf_counter() - t0, out
    finally:
        gc.enable()


def _run_buffered(n: int, interp) -> dict:
    """The buffered spec: model fusion (the vector kernels) vs. the
    traced path."""
    buf_spec = load_spec(SPEC_BUFFERED, name="buffered-sweep")
    buf_workloads = _buffered_workloads(_n_buffered(n))
    buf_backend = CompiledBackend(cache=CompileCache())
    for unit in buf_backend.compile(buf_spec).units:
        _ = unit.vector

    # Interleaved best-of-3: noisy shared hosts drift between sweeps,
    # so each round measures the engines back to back and every engine
    # keeps its best round.
    rows = (("buffered_vector", "vector", buf_backend),
            ("buffered_traced", "trace", buf_backend),
            ("buffered_interpreter", "trace", interp))
    times = {key: [] for key, _, _ in rows}
    results = {}
    for _ in range(3):
        for key, metrics, engine in rows:
            dt, results[key] = _timed_sweep(buf_spec, buf_workloads,
                                            metrics, engine)
            times[key].append(dt)
    timings = {key: min(values) for key, values in times.items()}

    # The buffered engines must agree before their times are comparable.
    for a, b, c in zip(results["buffered_interpreter"],
                       results["buffered_traced"],
                       results["buffered_vector"]):
        assert a.env["Z"].points() == c.env["Z"].points()
        assert a.traffic_bytes() == b.traffic_bytes() == c.traffic_bytes()
        assert a.exec_seconds == b.exec_seconds == c.exec_seconds
        assert a.energy_pj == b.energy_pj == c.energy_pj
        assert a.action_counts() == b.action_counts() \
            == c.action_counts()
    return timings


def _run_search() -> dict:
    """The mapping-search sweep: serial exhaustive at full traced
    fidelity vs. the parallel pruned search, same candidate space,
    identical best candidate required (the >=2x claim)."""
    from repro.search import search

    spec = load_spec(SPEC_SEARCH, name="search-sweep")
    tensors = {
        "A": uniform_random("A", ["K", "M"], (96, 48), 0.15, seed=5),
        "B": uniform_random("B", ["K", "N"], (96, 40), 0.15, seed=7),
    }
    # Warm the compile cache for *both* kernel flavors the timed runs
    # use (traced for the serial sweep, vector for the pruned search —
    # kernels compile lazily per flavor), so neither timed region pays
    # lowering and the comparison measures evaluation only.
    search(spec, tensors, tile_sizes=SEARCH_TILE_SIZES, workers=1,
           metrics="auto")
    search(spec, tensors, tile_sizes=SEARCH_TILE_SIZES, workers=1,
           metrics="trace")

    gc.collect()
    t0 = time.perf_counter()
    serial = search(spec, tensors, tile_sizes=SEARCH_TILE_SIZES,
                    workers=1, metrics="trace")
    t_serial = time.perf_counter() - t0

    gc.collect()
    t0 = time.perf_counter()
    pruned = search(spec, tensors, tile_sizes=SEARCH_TILE_SIZES,
                    prune_to=SEARCH_PRUNE_TO)
    t_pruned = time.perf_counter() - t0

    # The pruned search must find the *same* best mapping with
    # bit-identical full metrics (vector scoring is trace-exact, so the
    # winner provably survives pruning).
    (cand_s, res_s), (cand_p, res_p) = serial.best(), pruned.best()
    assert cand_s == cand_p, (
        f"pruned search best {cand_p.describe()} diverged from the "
        f"exhaustive best {cand_s.describe()}"
    )
    assert res_s.exec_seconds == res_p.exec_seconds
    assert res_s.traffic_bytes() == res_p.traffic_bytes()
    assert res_s.energy_pj == res_p.energy_pj
    assert res_s.action_counts() == res_p.action_counts()
    assert pruned.n_scored == len(serial.candidates) \
        == _search_n_candidates()
    return {"search_serial_exhaustive": t_serial,
            "search_parallel_pruned": t_pruned}


def _run_analytical() -> dict:
    """The statistics-pricing sweep: every candidate of the search
    space priced by the analytical tier (``metrics="analytical"`` — no
    tensor walked) vs. the counter-fused kernels, per-candidate (the
    >=100x claim), plus an identical-best check of the pruned search
    with ``prune_metrics="analytical"`` against the serial exhaustive
    traced sweep."""
    from repro.model.analytical import WorkloadStats
    from repro.search import MappingSpace, search
    from repro.search.space import apply_candidate

    spec = load_spec(SPEC_SEARCH, name="analytical-sweep")
    tensors = {
        "A": uniform_random("A", ["K", "M"], (96, 48), 0.15, seed=5),
        "B": uniform_random("B", ["K", "N"], (96, 40), 0.15, seed=7),
    }
    einsum = spec.einsum.cascade.produced[0]
    space = MappingSpace.of(SEARCH_RANKS, SEARCH_TILE_SIZES)
    cand_specs = [apply_candidate(spec, einsum, c) for c in space.all()]

    # One-time sweep costs, timed but kept out of the per-candidate
    # rows: statistics extraction for the analytical tier, and a warm
    # pass so neither timed sweep pays kernel lowering.
    t0 = time.perf_counter()
    stats = WorkloadStats.from_tensors(tensors)
    t_stats = time.perf_counter() - t0
    backend = CompiledBackend(cache=CompileCache())
    evaluate(cand_specs[0], dict(tensors), backend=backend,
             metrics="counters")
    evaluate(cand_specs[0], None, metrics="analytical", stats=stats)

    timings = {}
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for cs in cand_specs:
            evaluate(cs, dict(tensors), backend=backend,
                     metrics="counters")
        timings["acand_counters"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        for cs in cand_specs:
            evaluate(cs, None, metrics="analytical", stats=stats)
        timings["acand_analytical"] = time.perf_counter() - t0
    finally:
        gc.enable()
    timings["analytical_stats_extract"] = t_stats

    # The pruned search with the analytical phase-0 scorer must land on
    # the same best mapping as the serial exhaustive traced sweep (the
    # top-k recall contract, at the bench space's documented k).
    exhaustive = search(spec, tensors, tile_sizes=SEARCH_TILE_SIZES,
                        workers=1, metrics="trace")
    pruned = search(spec, tensors, tile_sizes=SEARCH_TILE_SIZES,
                    prune_to=SEARCH_PRUNE_TO,
                    prune_metrics="analytical")
    (cand_s, res_s), (cand_p, res_p) = exhaustive.best(), pruned.best()
    assert cand_s == cand_p, (
        f"analytical-pruned best {cand_p.describe()} diverged from the "
        f"exhaustive best {cand_s.describe()}"
    )
    assert res_s.exec_seconds == res_p.exec_seconds
    assert res_s.traffic_bytes() == res_p.traffic_bytes()
    return timings


def _run_analytical_accuracy() -> dict:
    """Per-accelerator analytical/exact metric ratios on the canonical
    cross-validation workloads (``cross_validation_workload`` — the
    same pair the pinned ``ACCEL_BOUNDS`` tripwires measure), keyed
    ``accuracy::<accel>/<kind>/<metric>`` so ``record_trajectory``
    routes them into the ``analytical_accuracy`` record section rather
    than the wall-time table."""
    from repro.accelerators import accelerator
    from repro.workloads import cross_validation_workload, workload_stats

    out = {}
    for accel, params in ACCURACY_ACCELERATORS.items():
        for kind in ("uniform", "power-law"):
            tensors = cross_validation_workload(kind)
            exact = evaluate(accelerator(accel, **params),
                             {k: v.copy() for k, v in tensors.items()})
            anl = evaluate(accelerator(accel, **params), None,
                           metrics="analytical",
                           stats=workload_stats(tensors))
            for metric, of in (("traffic", lambda r: r.traffic_bytes()),
                               ("ops", lambda r: r.total_ops())):
                out[f"accuracy::{accel}/{kind}/{metric}"] = (
                    of(anl) / max(of(exact), 1e-12))
    return out


def _run_supervised() -> dict:
    """The resumable-sweep contract at bench scale: a journaled sweep
    vs. the identical unjournaled one (journal overhead), then the
    journal torn at its tail as a kill would and resumed — the resumed
    sweep must adopt the surviving records and still land on the
    bit-identical best candidate and metrics fingerprint."""
    import shutil
    import tempfile

    from repro.search import SweepJournal, metrics_fingerprint, search
    from repro.search.journal import JOURNAL_NAME

    spec = load_spec(SPEC_SEARCH, name="supervised-sweep")
    tensors = {
        "A": uniform_random("A", ["K", "M"], (96, 48), 0.15, seed=5),
        "B": uniform_random("B", ["K", "N"], (96, 40), 0.15, seed=7),
    }
    kwargs = dict(tile_sizes=SEARCH_TILE_SIZES, prune_to=SEARCH_PRUNE_TO)
    search(spec, tensors, **kwargs)  # warm both kernel flavors

    gc.collect()
    t0 = time.perf_counter()
    plain = search(spec, tensors, **kwargs)
    t_plain = time.perf_counter() - t0

    scratch = tempfile.mkdtemp(prefix="bench-supervised-")
    try:
        path = os.path.join(scratch, "sweep")
        gc.collect()
        t0 = time.perf_counter()
        journaled = search(spec, tensors, journal=path, **kwargs)
        t_journaled = time.perf_counter() - t0
        assert journaled.best()[0] == plain.best()[0]

        # Tear the journal the way a mid-append kill would: drop the
        # final record and rip the last candidate record in half.
        journal_file = os.path.join(path, JOURNAL_NAME)
        lines = open(journal_file).readlines()
        keep = len(lines) - 3
        torn = lines[keep][: len(lines[keep]) // 2]
        open(journal_file, "w").write("".join(lines[:keep]) + torn)

        resumed = search(spec, tensors, resume=path, **kwargs)
        assert resumed.stats["n_adopted"] > 0
        (cand_p, res_p), (cand_r, res_r) = plain.best(), resumed.best()
        assert cand_r == cand_p, (
            f"resumed best {cand_r.describe()} diverged from the "
            f"uninterrupted best {cand_p.describe()}"
        )
        assert metrics_fingerprint(res_r) == metrics_fingerprint(res_p)
        final = SweepJournal.resume(path)
        assert final.final["status"] == "complete"
        final.close()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return {"search_unjournaled": t_plain,
            "search_journaled": t_journaled}


def _run_store() -> dict:
    """The persistent-store contract at bench scale: the same pruned
    sweep cold (populating a fresh cache directory) and warm (every
    evaluation served from it) — the warm sweep must land on the
    bit-identical best candidate and metrics fingerprint, and its
    speedup is the cache's headline number."""
    import shutil
    import tempfile

    from repro.search import metrics_fingerprint, search
    from repro.store import PersistentStore

    spec = load_spec(SPEC_SEARCH, name="store-sweep")
    tensors = {
        "A": uniform_random("A", ["K", "M"], (96, 48), 0.15, seed=5),
        "B": uniform_random("B", ["K", "N"], (96, 40), 0.15, seed=7),
    }
    kwargs = dict(tile_sizes=SEARCH_TILE_SIZES, prune_to=SEARCH_PRUNE_TO)
    search(spec, tensors, **kwargs)  # warm the in-process kernels

    scratch = tempfile.mkdtemp(prefix="bench-store-")
    try:
        cache = os.path.join(scratch, "cache")
        gc.collect()
        t0 = time.perf_counter()
        cold = search(spec, tensors, cache=cache, **kwargs)
        t_cold = time.perf_counter() - t0

        store = PersistentStore(cache)
        gc.collect()
        t0 = time.perf_counter()
        warm = search(spec, tensors, cache=store, **kwargs)
        t_warm = time.perf_counter() - t0

        assert store.stats.hits > 0 and store.stats.puts == 0, (
            "the warm sweep recomputed instead of hitting the store"
        )
        (cand_c, res_c), (cand_w, res_w) = cold.best(), warm.best()
        assert cand_w == cand_c, (
            f"warm-cache best {cand_w.describe()} diverged from the "
            f"cold best {cand_c.describe()}"
        )
        assert metrics_fingerprint(res_w) == metrics_fingerprint(res_c)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return {"search_cold_store": t_cold, "search_warm_store": t_warm}


def _run_lint() -> dict:
    """Static-pruning effectiveness: the search space augmented with
    degenerate tile sizes, swept exhaustively with and without
    ``validate="strict"``.  The linter must reject every infeasible
    candidate before phase-0 pricing, land on the bit-identical best,
    and the rejected fraction is the headline number.  Count keys are
    prefixed ``lint::`` so ``record_trajectory`` routes them into the
    ``lint`` record section instead of the timings table."""
    from repro.search import MappingSpace, metrics_fingerprint, search

    spec = load_spec(SPEC_SEARCH, name="lint-sweep")
    tensors = {
        "A": uniform_random("A", ["K", "M"], (96, 48), 0.15, seed=5),
        "B": uniform_random("B", ["K", "N"], (96, 40), 0.15, seed=7),
    }
    n_total = MappingSpace.of(SEARCH_RANKS, LINT_TILE_SIZES).size()
    kwargs = dict(tile_sizes=LINT_TILE_SIZES, workers=1)
    search(spec, tensors, **kwargs)  # warm the kernel cache

    gc.collect()
    t0 = time.perf_counter()
    unvalidated = search(spec, tensors, **kwargs)
    t_plain = time.perf_counter() - t0

    gc.collect()
    t0 = time.perf_counter()
    validated = search(spec, tensors, validate="strict", **kwargs)
    t_lint = time.perf_counter() - t0

    pruned = validated.stats["statically_pruned"]
    assert unvalidated.n_scored == n_total
    assert pruned > 0 and validated.n_scored == n_total - pruned, (
        f"static pruning dropped {pruned} of {n_total} but scored "
        f"{validated.n_scored}"
    )
    (cand_u, res_u), (cand_v, res_v) = unvalidated.best(), validated.best()
    assert cand_v == cand_u, (
        f"statically-pruned best {cand_v.describe()} diverged from the "
        f"unpruned best {cand_u.describe()}"
    )
    assert metrics_fingerprint(res_v) == metrics_fingerprint(res_u)
    return {
        "lint_search_unvalidated": t_plain,
        "lint_search_validated": t_lint,
        "lint::n_candidates": float(n_total),
        "lint::statically_pruned": float(pruned),
        "lint::n_scored": float(validated.n_scored),
    }


# ----------------------------------------------------------------------
# nnz-scaling sweep (counted vs vector as spans grow)
# ----------------------------------------------------------------------
def _nnz_workload(nnz: int):
    """One synthetic SpMSpM sized to ~``nnz`` nonzeros per input.

    Density falls with size (``d ~ nnz^-1/4``, the way real sparse
    matrices get sparser as they grow) while the contraction depth
    grows super-linearly: fibers lengthen *and* the match rate drops,
    so the scalar engines pay ever more visited coordinates per
    effectual compute — the regime the vector kernels target.
    """
    m = n = 32
    density = 0.1 * (10_000 / max(nnz, 1)) ** 0.25
    k = max(32, int(round(nnz / (m * density))))
    return {
        "A": uniform_random("A", ["M", "K"], (m, k), density, seed=11),
        "B": uniform_random("B", ["N", "K"], (n, k), density, seed=13),
    }


def _metrics_fingerprint(result):
    return (
        sorted(result.traffic.read_bits.items()),
        sorted(result.traffic.write_bits.items()),
        result.exec_seconds,
        result.energy_pj,
        sorted(result.action_counts().items()),
        result.total_ops(),
    )


def run_nnz_sweep(sizes=NNZ_SIZES):
    """Counted-vs-vector timings per nonzero count.

    Returns ``[{"nnz": target, "actual_nnz": ..., "counters": s,
    "vector": s, "speedup": x}, ...]``.  Asserts, per size, that the
    two engines produce bit-identical metrics fingerprints — this is
    the differential gate the CI scaling-smoke job runs at reduced
    size.
    """
    spec = load_spec(SPEC_VECTOR, name="nnz-sweep")
    backend = CompiledBackend(cache=CompileCache())
    for unit in backend.compile(spec).units:
        _ = unit.counted
        _ = unit.vector
    series = []
    for nnz in sizes:
        w = _nnz_workload(nnz)
        actual = w["A"].nnz
        evaluate(spec, dict(w), backend=backend, metrics="vector")  # warm
        row = {"nnz": int(nnz), "actual_nnz": int(actual),
               "m": int(w["A"].shape[0]), "k": int(w["A"].shape[1])}
        prints = {}
        for metrics in ("counters", "vector"):
            gc.collect()
            gc.disable()
            try:
                t0 = time.perf_counter()
                result = evaluate(spec, dict(w), backend=backend,
                                  metrics=metrics)
                row[metrics] = round(time.perf_counter() - t0, 6)
            finally:
                gc.enable()
            prints[metrics] = _metrics_fingerprint(result)
        assert prints["counters"] == prints["vector"], (
            f"nnz={nnz}: vector metrics diverge from counted"
        )
        row["speedup"] = round(row["counters"] / max(row["vector"], 1e-12),
                               3)
        series.append(row)
        print(f"nnz={row['actual_nnz']:>9d}  counters={row['counters']:8.3f}s"
              f"  vector={row['vector']:8.3f}s"
              f"  speedup={row['speedup']:.2f}x")
    return series


def _commit_hash():
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except Exception:
        return None


def record_trajectory(timings: dict, n: int, path: str = TRAJECTORY,
                      nnz_series=None) -> dict:
    """Append one run to the perf-trajectory file and return the record."""
    accuracy = {k: v for k, v in timings.items()
                if k.startswith("accuracy::")}
    lint_counts = {k.split("::", 1)[1]: int(v) for k, v in timings.items()
                   if k.startswith("lint::")}
    timings = {k: v for k, v in timings.items()
               if "::" not in k}

    def ratio(num, den):
        if num not in timings or den not in timings:
            return None
        return round(timings[num] / max(timings[den], 1e-12), 3)

    speedups = {
        "compiled_vs_interpreter": ratio("interpreter", "compiled"),
        "counters_vs_interpreter": ratio("interpreter", "counters"),
        "vector_vs_counters": ratio("vspan_counters", "vspan_vector"),
        "flat_vs_interpreter_untraced": ratio("untraced_interpreter",
                                              "untraced_flat"),
        "vector_vs_traced_buffered": ratio("buffered_traced",
                                           "buffered_vector"),
        "vector_vs_interpreter_buffered": ratio("buffered_interpreter",
                                                "buffered_vector"),
        "pruned_search_vs_serial_exhaustive": ratio(
            "search_serial_exhaustive", "search_parallel_pruned"),
        "analytical_vs_counters": ratio("acand_counters",
                                        "acand_analytical"),
    }
    record = {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "commit": _commit_hash(),
        "python": platform.python_version(),
    }
    if timings:
        record["n_workloads"] = n
        if "vspan_counters" in timings or "vspan_vector" in timings:
            record["vector_sweep"] = {"K": VEC_K, "M": VEC_M, "N": VEC_N,
                                      "density": VEC_DENSITY}
        record["seconds"] = {k: round(v, 6) for k, v in timings.items()}
        record["speedups"] = {k: v for k, v in speedups.items()
                              if v is not None}
    if "search_serial_exhaustive" in timings:
        # _run_search asserted identical-best before returning timings.
        record["search"] = {
            "n_candidates": _search_n_candidates(),
            "tile_sizes": {r: list(s) for r, s in SEARCH_TILE_SIZES.items()},
            "prune_to": SEARCH_PRUNE_TO,
            "identical_best": True,
            "serial_exhaustive_seconds": round(
                timings["search_serial_exhaustive"], 6),
            "parallel_pruned_seconds": round(
                timings["search_parallel_pruned"], 6),
        }
    if "acand_counters" in timings and "acand_analytical" in timings:
        # _run_analytical asserted identical-best (vs the serial
        # exhaustive traced sweep) before returning timings.
        nc = _search_n_candidates()
        record["analytical"] = {
            "n_candidates": nc,
            "per_candidate_counters_us": round(
                1e6 * timings["acand_counters"] / nc, 3),
            "per_candidate_analytical_us": round(
                1e6 * timings["acand_analytical"] / nc, 3),
            "stats_extract_seconds": round(
                timings["analytical_stats_extract"], 6),
            "identical_best": True,
        }
    if accuracy:
        ratios = {}
        for key, v in sorted(accuracy.items()):
            accel, kind, metric = key.split("::", 1)[1].split("/")
            ratios.setdefault(accel, {}).setdefault(kind, {})[metric] = \
                round(v, 3)
        record["analytical_accuracy"] = ratios
    if "search_unjournaled" in timings and "search_journaled" in timings:
        # _run_supervised asserted the kill-and-resume bit-identity
        # (same best candidate, same metrics fingerprint) before
        # returning timings.
        record["supervised"] = {
            "unjournaled_seconds": round(timings["search_unjournaled"], 6),
            "journaled_seconds": round(timings["search_journaled"], 6),
            "journal_overhead_x": round(
                timings["search_journaled"]
                / max(timings["search_unjournaled"], 1e-12), 3),
            "resume_bit_identical": True,
        }
    if lint_counts and "lint_search_validated" in timings:
        # _run_lint asserted identical-best (and bit-identical metrics
        # fingerprint) between the pruned and unpruned sweeps.
        record["lint"] = {
            "n_candidates": lint_counts.get("n_candidates"),
            "statically_pruned": lint_counts.get("statically_pruned"),
            "n_scored": lint_counts.get("n_scored"),
            "tile_sizes": {r: list(s) for r, s in LINT_TILE_SIZES.items()},
            "identical_best": True,
            "unvalidated_seconds": round(
                timings["lint_search_unvalidated"], 6),
            "validated_seconds": round(
                timings["lint_search_validated"], 6),
        }
    if "search_cold_store" in timings and "search_warm_store" in timings:
        # _run_store asserted the warm sweep hit the cache for every
        # candidate and stayed bit-identical before returning timings.
        record["store"] = {
            "cold_seconds": round(timings["search_cold_store"], 6),
            "warm_seconds": round(timings["search_warm_store"], 6),
            "warm_speedup_x": round(
                timings["search_cold_store"]
                / max(timings["search_warm_store"], 1e-12), 3),
            "hit_bit_identical": True,
        }
    if "executor_thread" in timings and "executor_process" in timings:
        record["executor"] = {
            "thread_seconds": round(timings["executor_thread"], 6),
            "process_seconds": round(timings["executor_process"], 6),
            "default": "thread"
            if timings["executor_thread"] <= timings["executor_process"]
            else "process",
        }
    if nnz_series:
        # A pure scaling-curve record: the per-row m/k geometry lives in
        # the series itself (density falls with size there, so the
        # workload-sweep geometry above would be wrong to claim).
        record["kind"] = "nnz_sweep" if not timings else "sweep+nnz"
        record["nnz_sweep"] = nnz_series
    history = {"schema": 1, "runs": []}
    if os.path.exists(path):
        try:
            with open(path) as f:
                history = json.load(f)
        except (json.JSONDecodeError, OSError):
            pass
    history.setdefault("runs", []).append(record)
    with open(path, "w") as f:
        json.dump(history, f, indent=2)
        f.write("\n")
    return record


def _print_report(timings: dict, n: int) -> None:
    def series(title, names, base_name, strip="", per=None,
               per_label="per workload"):
        present = [name for name in names if name in timings]
        if not present or base_name not in timings:
            return
        base = timings[base_name]
        divisor = per if per is not None else n
        rows = []
        for name in present:
            t = timings[name]
            rows.append((name.replace(strip, ""), t, t / divisor,
                         base / max(t, 1e-12)))
        print_series(title, ["seconds", per_label, "speedup"], rows)

    series(
        f"Traced/metrics sweeps vs interpreter ({n} workloads)",
        ["interpreter", "compiled", "counters"], "interpreter",
    )
    series(
        f"Untraced sweeps, speedup vs interpreter ({n} workloads)",
        ["untraced_interpreter", "untraced_flat"],
        "untraced_interpreter", strip="untraced_",
    )
    series(
        f"Long-span sweep (K={VEC_K}, d={VEC_DENSITY}), speedup vs "
        f"counter-fused kernels ({n} workloads)",
        ["vspan_counters", "vspan_vector"], "vspan_counters",
        strip="vspan_",
    )
    nb = _n_buffered(n)
    series(
        f"Buffered spec (buffet+cache+output buffet), full metrics, "
        f"speedup vs traced kernels ({nb} workloads)",
        ["buffered_interpreter", "buffered_traced", "buffered_vector"],
        "buffered_traced", strip="buffered_",
    )
    series(
        f"evaluate_many pool types, long-span sweep ({n} workloads)",
        ["executor_thread", "executor_process"], "executor_thread",
        strip="executor_",
    )
    series(
        f"Mapping search ({_search_n_candidates()} candidates, buffered "
        "spec), speedup vs serial exhaustive traced sweep",
        ["search_serial_exhaustive", "search_parallel_pruned"],
        "search_serial_exhaustive", strip="search_",
        per=_search_n_candidates(), per_label="per candidate",
    )
    series(
        f"Analytical statistics pricing ({_search_n_candidates()} "
        "candidates, buffered spec), speedup vs counter-fused kernels",
        ["acand_counters", "acand_analytical"],
        "acand_counters", strip="acand_",
        per=_search_n_candidates(), per_label="per candidate",
    )
    series(
        f"Supervised sweep journaling ({_search_n_candidates()} "
        "candidates, kill-and-resume bit-identity asserted), overhead "
        "vs unjournaled sweep",
        ["search_unjournaled", "search_journaled"],
        "search_unjournaled", strip="search_",
        per=_search_n_candidates(), per_label="per candidate",
    )

    series(
        "Static lint pruning (degenerate-tile ladder), exhaustive sweep "
        "with validate=strict vs without",
        ["lint_search_unvalidated", "lint_search_validated"],
        "lint_search_unvalidated", strip="lint_search_",
    )

    accuracy = sorted(k for k in timings if k.startswith("accuracy::"))
    if accuracy:
        print("\nAnalytical-tier accuracy (analytical/exact ratio, "
              "cross-validation workloads)")
        for key in accuracy:
            accel, kind, metric = key.split("::", 1)[1].split("/")
            print(f"  {accel:>10s}  {kind:>9s}  {metric:>7s}  "
                  f"{timings[key]:6.3f}x")


@pytest.mark.benchmark(group="backend")
def test_backend_sweep_speedup(benchmark):
    flavors = [f for f in ALL_FLAVORS if f != "executor"]
    timings = benchmark.pedantic(run_comparison, args=(N_WORKLOADS,),
                                 kwargs={"flavors": flavors},
                                 rounds=1, iterations=1)
    _print_report(timings, N_WORKLOADS)
    # Plain test runs must not dirty the tracked perf-history file; the
    # canonical records come from `make bench-backend` (or exporting
    # REPRO_BENCH_JSON=1 before pytest).
    if os.environ.get("REPRO_BENCH_JSON"):
        record_trajectory(timings, N_WORKLOADS)
    # Allow a small noise margin so a loaded CI runner cannot fail a
    # genuinely faster backend; a real regression (compiled no faster
    # than the interpreter) still trips this by a wide berth.
    assert timings["compiled"] < timings["interpreter"] * 1.10, (
        f"warm compiled sweep ({timings['compiled']:.3f}s) should beat "
        f"the interpreter ({timings['interpreter']:.3f}s)"
    )
    # 1.5x leaves room for CI noise while still catching any real
    # regression of the arena fast path.
    assert timings["untraced_flat"] * 1.5 \
        < timings["untraced_interpreter"], (
        f"flat untraced sweep ({timings['untraced_flat']:.3f}s) should "
        f"beat the interpreter ({timings['untraced_interpreter']:.3f}s) "
        "clearly"
    )
    # The vector kernels land >3x over the counter-fused scalar loops on
    # the long-span sweep on an idle machine; 2x leaves room for noise.
    assert timings["vspan_vector"] * 2.0 < timings["vspan_counters"], (
        f"vector sweep ({timings['vspan_vector']:.3f}s) should beat the "
        f"counter-fused path ({timings['vspan_counters']:.3f}s) clearly"
    )
    # Model fusion lands ~5x over the traced kernels on buffered specs
    # on an idle machine; 2x leaves room for CI noise while catching a
    # real regression of the fused fast path.
    assert timings["buffered_vector"] * 2.0 < timings["buffered_traced"], (
        f"vector buffered sweep ({timings['buffered_vector']:.3f}s) "
        f"should beat the traced path ({timings['buffered_traced']:.3f}s) "
        "clearly"
    )
    # The parallel pruned search lands >=2x over the serial exhaustive
    # traced sweep on an idle machine (identical best candidate asserted
    # inside _run_search); 1.5x leaves room for CI noise.
    assert timings["search_parallel_pruned"] * 1.5 \
        < timings["search_serial_exhaustive"], (
        f"pruned search ({timings['search_parallel_pruned']:.3f}s) should "
        f"beat the serial exhaustive sweep "
        f"({timings['search_serial_exhaustive']:.3f}s) clearly"
    )
    # Statistics pricing lands >=100x over the counter-fused kernels on
    # an idle machine; 20x leaves a wide noise berth while still
    # catching any real regression of the analytical fast path.
    assert timings["acand_analytical"] * 20.0 \
        < timings["acand_counters"], (
        f"analytical pricing ({timings['acand_analytical']:.4f}s) should "
        f"beat the counter-fused sweep "
        f"({timings['acand_counters']:.3f}s) by orders of magnitude"
    )


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workloads", type=int, default=N_WORKLOADS,
                        help="sweep size (default %(default)s)")
    parser.add_argument("--flavor", default=None,
                        help="comma-separated engine subset "
                             f"(choices: {', '.join(ALL_FLAVORS)})")
    parser.add_argument("--nnz-sweep", action="store_true",
                        help="run the counted-vs-vector nnz scaling "
                             "curve instead of the workload sweep")
    parser.add_argument("--nnz-sizes", default=None,
                        help="comma-separated nonzero counts for "
                             "--nnz-sweep (default "
                             f"{','.join(str(s) for s in NNZ_SIZES)})")
    parser.add_argument("--json", default=TRAJECTORY,
                        help="trajectory file (default %(default)s)")
    parser.add_argument("--no-json", action="store_true",
                        help="skip writing the trajectory file")
    args = parser.parse_args()

    flavors = None
    if args.flavor:
        flavors = [f.strip() for f in args.flavor.split(",") if f.strip()]
        unknown = set(flavors) - set(ALL_FLAVORS)
        if unknown:
            parser.error(f"unknown flavors {sorted(unknown)}; "
                         f"choices: {', '.join(ALL_FLAVORS)}")

    if args.nnz_sweep:
        sizes = NNZ_SIZES
        if args.nnz_sizes:
            sizes = tuple(int(s) for s in args.nnz_sizes.split(","))
        series = run_nnz_sweep(sizes)
        if not args.no_json:
            record_trajectory({}, 0, args.json, nnz_series=series)
            print(f"\nrecorded to {args.json}")
    else:
        timings = run_comparison(args.workloads, flavors)
        _print_report(timings, args.workloads)
        if not args.no_json:
            record = record_trajectory(timings, args.workloads, args.json)
            print(f"\nrecorded to {args.json}: "
                  f"{record.get('speedups', record.get('analytical_accuracy', {}))}")
