"""Wall-time ratio gates: every fast path must beat the engine it replaces.

Each gate times two engines on the same sweep, checks that they agree,
and requires the fast one to win by a margin that leaves room for a
noisy shared CI runner while still catching a real regression:

1. arena-native flat kernels vs. the interpreter, outputs only (1.5x);
2. the priced arena kernels (``metrics="auto"``) vs. the interpreter's
   per-event trace path (``metrics="trace"``) on a buffered spec (2x);
3. parallel pruned search vs. the serial exhaustive sweep on the
   interpreter's trace path (1.5x);
4. statistics pricing (``metrics="analytical"``) vs. the exact priced
   kernels (``metrics="auto"``), per candidate (20x).

The correctness contracts of the same sweeps (identical best mappings,
bit-identical metrics) live in the tier-1 suite; ``perfbench/`` is the
repository benchmark.

Run:  python -m pytest benchmarks/bench_speed_gates.py -q
"""

from __future__ import annotations

import gc
import time
from functools import partial

from repro.model import (
    CompileCache,
    CompiledBackend,
    InterpreterBackend,
    evaluate,
)
from repro.model.analytical import WorkloadStats
from repro.search import MappingSpace, search
from repro.search.space import apply_candidate
from repro.spec import load_spec
from repro.workloads import uniform_random

EINSUM = """
einsum:
  declaration:
    A: [K, M]
    B: [K, N]
    Z: [M, N]
  expressions:
    - Z[m, n] = A[k, m] * B[k, n]
"""

#: The historical sweep spec (occupancy-split contraction).
SPEC = EINSUM + """
mapping:
  partitioning:
    Z:
      K: [uniform_occupancy(A.16)]
  loop-order:
    Z: [K1, M, N, K0]
"""


def buffered(spec: str, a_evict_on: str) -> str:
    """``spec`` with A routed through a buffet, B through an LRU cache
    and the Z output through a buffet evicting on M."""
    return spec + f"""
architecture:
  Buffered:
    clock: 1.0e9
    subtree:
      - name: System
        local:
          - name: DRAM
            class: DRAM
            attributes: {{bandwidth: 128}}
          - name: ABuf
            class: Buffer
            attributes: {{type: buffet, width: 64, depth: 256}}
          - name: BCache
            class: Buffer
            attributes: {{type: cache, width: 64, depth: 16384}}
          - name: ZBuf
            class: Buffer
            attributes: {{type: buffet, width: 64, depth: 1024}}
          - name: ALU
            class: Compute
            attributes: {{type: mul}}
binding:
  Z:
    config: Buffered
    components:
      ABuf:
        - {{tensor: A, rank: K, type: elem, style: lazy, evict-on: {a_evict_on}}}
      BCache:
        - {{tensor: B, rank: K, type: elem, style: lazy}}
      ZBuf:
        - {{tensor: Z, rank: N, type: elem, style: lazy, evict-on: M}}
      ALU:
        - op: mul
"""


N_WORKLOADS = 24
N_BUFFERED_WORKLOADS = 8
SEARCH_TILE_SIZES = {"K": (8, 16)}
SEARCH_PRUNE_TO = 4


def workloads(n, shape_a, shape_b, density, ranks_a=("K", "M"),
              ranks_b=("K", "N")):
    return [{
        "A": uniform_random("A", list(ranks_a), shape_a, density, seed=2 * i),
        "B": uniform_random("B", list(ranks_b), shape_b, density,
                            seed=2 * i + 1),
    } for i in range(n)]


def timed(run):
    """Seconds and result of ``run()``, with the collector paused: a
    collection would charge whichever engine happens to trigger it."""
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        out = run()
        return time.perf_counter() - t0, out
    finally:
        gc.enable()


def sweep(spec, work, backend, metrics):
    return [evaluate(spec, dict(w), backend=backend, metrics=metrics)
            for w in work]


def assert_same_metrics(reference, other):
    for a, b in zip(reference, other, strict=True):
        assert a.env["Z"].points() == b.env["Z"].points()
        assert a.traffic_bytes() == b.traffic_bytes()
        assert a.exec_seconds == b.exec_seconds
        assert a.energy_pj == b.energy_pj
        assert a.action_counts() == b.action_counts()


def test_flat_beats_interpreter_untraced():
    spec = load_spec(SPEC, name="backend-sweep")
    work = workloads(N_WORKLOADS, (48, 40), (48, 36), 0.25)
    interp = InterpreterBackend()
    compiled = CompiledBackend(cache=CompileCache())
    compiled.run_cascade(spec, dict(work[0]))  # warm
    t_interp, ref = timed(
        lambda: [interp.run_cascade(spec, dict(w)) for w in work])
    t_flat, got = timed(
        lambda: [compiled.run_cascade(spec, dict(w)) for w in work])
    for a, b in zip(ref, got, strict=True):
        assert a["Z"].points() == b["Z"].points()
    assert t_flat * 1.5 < t_interp, (
        f"flat untraced sweep ({t_flat:.3f}s) should beat the "
        f"interpreter ({t_interp:.3f}s) clearly"
    )


def test_fused_beats_interpreter_trace_on_buffered_spec():
    spec = load_spec(buffered(SPEC, a_evict_on="K1"), name="buffered-sweep")
    work = workloads(N_BUFFERED_WORKLOADS, (96, 48), (96, 40), 0.15)
    backend = CompiledBackend(cache=CompileCache())
    # Interleaved best-of-3: noisy shared hosts drift between sweeps, so
    # each round measures both engines back to back and each keeps its
    # best round.
    times = {"auto": [], "trace": []}
    results = {}
    for _ in range(3):
        for metrics, samples in times.items():
            dt, results[metrics] = timed(
                partial(sweep, spec, work, backend, metrics))
            samples.append(dt)
    assert_same_metrics(results["trace"], results["auto"])
    t_auto, t_trace = min(times["auto"]), min(times["trace"])
    assert t_auto * 2.0 < t_trace, (
        f"auto buffered sweep ({t_auto:.3f}s) should beat the "
        f"interpreter's trace path ({t_trace:.3f}s) clearly"
    )


def search_inputs():
    spec = load_spec(buffered(EINSUM, a_evict_on="M"), name="search-sweep")
    tensors = {
        "A": uniform_random("A", ["K", "M"], (96, 48), 0.15, seed=5),
        "B": uniform_random("B", ["K", "N"], (96, 40), 0.15, seed=7),
    }
    return spec, tensors


def test_pruned_search_beats_exhaustive_sweep():
    spec, tensors = search_inputs()

    def serial():
        return search(spec, tensors, tile_sizes=SEARCH_TILE_SIZES,
                      workers=1, metrics="trace")

    def pruned():
        return search(spec, tensors, tile_sizes=SEARCH_TILE_SIZES,
                      prune_to=SEARCH_PRUNE_TO)

    serial()  # warm the lowering cache ...
    pruned()  # ... and the vector kernels
    t_serial, serial_result = timed(serial)
    t_pruned, pruned_result = timed(pruned)
    assert pruned_result.best()[0] == serial_result.best()[0]
    assert t_pruned * 1.5 < t_serial, (
        f"pruned search ({t_pruned:.3f}s) should beat the serial "
        f"exhaustive sweep on the interpreter's trace path "
        f"({t_serial:.3f}s) clearly"
    )


def test_analytical_pricing_beats_auto():
    spec, tensors = search_inputs()
    einsum = spec.einsum.cascade.produced[0]
    space = MappingSpace.of(("M", "N", "K"), SEARCH_TILE_SIZES)
    cand_specs = [apply_candidate(spec, einsum, c) for c in space.all()]
    stats = WorkloadStats.from_tensors(tensors)
    backend = CompiledBackend(cache=CompileCache())
    evaluate(cand_specs[0], dict(tensors), backend=backend)  # warm
    evaluate(cand_specs[0], None, metrics="analytical", stats=stats)
    t_auto, _ = timed(lambda: [
        evaluate(cs, dict(tensors), backend=backend, metrics="auto")
        for cs in cand_specs])
    t_analytical, _ = timed(lambda: [
        evaluate(cs, None, metrics="analytical", stats=stats)
        for cs in cand_specs])
    assert t_analytical * 20.0 < t_auto, (
        f"analytical pricing ({t_analytical:.4f}s) should beat the "
        f"exact priced sweep ({t_auto:.3f}s) by orders of magnitude"
    )
