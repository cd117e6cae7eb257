"""Model-fused metrics (``evaluate(metrics="auto")`` on a buffered spec):
the fast path for
buffered/cached specs.

The vector kernels log every buffet/cache touch and settle each log
with the decisions of :class:`~repro.model.components.BuffetModel` /
:class:`~repro.model.components.CacheModel`, so — unlike counter fusion
— they price specs that bind buffers exactly.  Every assertion here is strict equality against
the traced evaluation: the fused path is exact by construction, and these
tests pin that down on the edge cases (capacity-1 and zero-capacity
caches, dirty-eviction writebacks, empty-fiber window rolls, multi-Einsum
drains) plus golden numbers for two real buffered accelerators.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from repro.accelerators import accelerator
from repro.fibertree import tensor_from_dense
from repro.ir.codegen_runtime import FusedBuffet, FusedCache
from repro.model import (
    CompileCache,
    CompiledBackend,
    InterpreterBackend,
    evaluate,
    evaluate_many,
)
from repro.spec import load_spec

from machine_logs import (
    History,
    buffet_counts,
    buffet_model,
    buffet_pair,
    cache_counts,
    cache_model,
    cache_pair,
    element,
    priced,
    walk,
)

# One cache for the whole module.
_CACHE = CompileCache()


# ----------------------------------------------------------------------
# Spec scaffolding
# ----------------------------------------------------------------------
def buffered_matmul(b_buffer: str = "", z_buffer: str = "") -> str:
    """A split matmul with an A-buffet and configurable B/Z storage."""
    return f"""
einsum:
  declaration: {{A: [K, M], B: [K, N], Z: [M, N]}}
  expressions: ["Z[m, n] = A[k, m] * B[k, n]"]
mapping:
  partitioning:
    Z:
      K: [uniform_occupancy(A.4)]
  loop-order:
    Z: [K1, M, N, K0]
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
          - name: BStore
            class: Buffer
            attributes: {{type: cache, width: 64, depth: 512}}
          - name: ZStore
            class: Buffer
            attributes: {{type: buffet, width: 64, depth: 256}}
          - name: ALU
            class: Compute
            attributes: {{type: mul}}
binding:
  Z:
    config: Main
    components:
      ABuf:
        - {{tensor: A, rank: K, type: elem, style: lazy, evict-on: K1}}
{b_buffer}{z_buffer}      ALU:
        - op: mul
"""


B_CACHED = "      BStore:\n" \
    "        - {tensor: B, rank: K, type: elem, style: lazy}\n"
Z_BUFFERED = "      ZStore:\n" \
    "        - {tensor: Z, rank: N, type: elem, style: lazy, evict-on: M}\n"


def tensors(seed=0, k=16, m=10, n=9, density=0.35):
    rng = np.random.default_rng(seed)
    a = (rng.random((k, m)) < density) * rng.integers(1, 9, (k, m))
    b = (rng.random((k, n)) < density) * rng.integers(1, 9, (k, n))
    return {
        "A": tensor_from_dense("A", ["K", "M"], a.astype(float)),
        "B": tensor_from_dense("B", ["K", "N"], b.astype(float)),
    }


def fingerprint(result):
    return {
        "read_bits": dict(result.traffic.read_bits),
        "write_bits": dict(result.traffic.write_bits),
        "exec_seconds": result.exec_seconds,
        "energy_pj": result.energy_pj,
        "actions": result.action_counts(),
        "ops": result.total_ops(),
        "utilization": result.utilization(),
        "partial_output_fills": result.partial_output_fills(),
        "outputs": {name: result.env[name].points() for name in result.env},
        "per_einsum_actions": {
            name: em.action_counts() for name, em in result.einsums.items()
        },
    }


def assert_fused_exact(spec, work):
    """Fused metrics must be bit-identical to the traced evaluation."""
    backend = CompiledBackend(cache=_CACHE)
    traced = evaluate(spec, {k: t.copy() for k, t in work.items()},
                      backend=backend, metrics="trace")
    fused = evaluate(spec, {k: t.copy() for k, t in work.items()},
                     backend=backend, metrics="auto")
    assert fingerprint(fused) == fingerprint(traced)
    return traced, fused


# ----------------------------------------------------------------------
# The fused path on buffered specs
# ----------------------------------------------------------------------
def test_fused_prices_buffered_spec_exactly():
    spec = load_spec(buffered_matmul(B_CACHED, Z_BUFFERED), name="fused-bz")
    traced, fused = assert_fused_exact(spec, tensors())
    # The spec genuinely exercises buffers on the fused path.
    assert fused.action_counts()["buffer_read_bits"] > 0
    assert fused.action_counts()["cache_read_bits"] > 0


def test_fused_auto_dispatch_buffered():
    """metrics="auto" must price buffered specs fused-exactly."""
    spec = load_spec(buffered_matmul(B_CACHED, Z_BUFFERED), name="fused-auto")
    backend = CompiledBackend(cache=_CACHE)
    work = tensors(seed=2)
    traced = evaluate(spec, dict(work), backend=backend, metrics="trace")
    auto = evaluate(spec, dict(work), backend=backend, metrics="auto")
    assert fingerprint(auto) == fingerprint(traced)


def test_fused_falls_back_on_interpreter_backend():
    """A non-compiled engine silently uses the traced path."""
    spec = load_spec(buffered_matmul(B_CACHED), name="fused-interp")
    work = tensors(seed=3)
    compiled = evaluate(spec, dict(work),
                        backend=CompiledBackend(cache=_CACHE),
                        metrics="auto")
    interp = evaluate(spec, dict(work), backend=InterpreterBackend(),
                      metrics="auto")
    assert fingerprint(interp) == fingerprint(compiled)


def test_fused_evaluate_many_threads():
    # evaluate_many calls on the caller's own threads share one backend
    # and its compile cache, and price exactly what a serial run does.
    spec = load_spec(buffered_matmul(B_CACHED, Z_BUFFERED), name="fused-many")
    backend = CompiledBackend(cache=_CACHE)
    workloads = [tensors(seed=i) for i in range(4)]
    sequential = evaluate_many(spec, [dict(w) for w in workloads],
                               backend=backend, workers=1, metrics="trace")
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(
            lambda w: evaluate_many(spec, [dict(w)], backend=backend,
                                    metrics="auto")[0], workloads))
    for a, b in zip(sequential, threaded):
        assert fingerprint(a) == fingerprint(b)


# ----------------------------------------------------------------------
# Edge cases: capacity, writeback ordering, empty fibers, cascades
# ----------------------------------------------------------------------
def _with_cache_depth(depth: int) -> str:
    return buffered_matmul(B_CACHED, Z_BUFFERED).replace(
        "{type: cache, width: 64, depth: 512}",
        "{type: cache, width: 64, depth: %d}" % depth,
    )


@pytest.mark.parametrize("depth", [0, 1, 2, 512])
def test_fused_cache_capacity_edges(depth):
    """Zero-capacity and capacity-~1 caches evict on every touch; the
    fused LRU must take the exact same eviction decisions."""
    spec = load_spec(_with_cache_depth(depth), name=f"cache-depth-{depth}")
    _, fused = assert_fused_exact(spec, tensors(seed=4))
    if depth <= 1:
        # Thrashing regime: every (or almost every) touch misses.
        acts = fused.action_counts()
        assert acts["cache_fill_bits"] > 0


def test_fused_dirty_eviction_writeback_ordering():
    """An output bound to a tiny cache: dirty lines evict mid-run and
    write back; the remaining dirty lines write back at einsum end."""
    yaml = buffered_matmul(B_CACHED, Z_BUFFERED).replace(
        "      ZStore:\n"
        "        - {tensor: Z, rank: N, type: elem, style: lazy, "
        "evict-on: M}\n",
        "      TinyZ:\n"
        "        - {tensor: Z, rank: N, type: elem, style: lazy}\n",
    ).replace(
        "          - name: ZStore\n"
        "            class: Buffer\n"
        "            attributes: {type: buffet, width: 64, depth: 256}",
        "          - name: TinyZ\n"
        "            class: Buffer\n"
        "            attributes: {type: cache, width: 32, depth: 4}",
    )
    spec = load_spec(yaml, name="dirty-evict")
    traced, fused = assert_fused_exact(spec, tensors(seed=5))
    # Dirty evictions actually happened (writebacks reached DRAM).
    assert fused.traffic.write_bits["Z"] > 0


def test_fused_window_rolls_at_empty_fibers():
    """Workloads with empty rows/columns roll buffet windows across
    fibers that contribute no events."""
    spec = load_spec(buffered_matmul(B_CACHED, Z_BUFFERED), name="empty-win")
    rng = np.random.default_rng(6)
    a = (rng.random((16, 10)) < 0.3) * rng.integers(1, 9, (16, 10))
    a[3:9, :] = 0.0  # a hole spanning whole occupancy windows
    b = np.zeros((16, 9))
    b[0, 2] = 4.0
    work = {
        "A": tensor_from_dense("A", ["K", "M"], a.astype(float)),
        "B": tensor_from_dense("B", ["K", "N"], b.astype(float)),
    }
    assert_fused_exact(spec, work)
    # Fully-empty inputs as the degenerate limit.
    empty = {
        "A": tensor_from_dense("A", ["K", "M"], np.zeros((16, 10))),
        "B": tensor_from_dense("B", ["K", "N"], np.zeros((16, 9))),
    }
    assert_fused_exact(spec, empty)


CASCADE = """
einsum:
  declaration: {A: [K, M], B: [K, N], T: [M, N], Z: [M]}
  expressions:
    - T[m, n] = A[k, m] * B[k, n]
    - Z[m] = T[m, n]
mapping:
  loop-order:
    T: [M, N, K]
    Z: [M, N]
architecture:
  Main:
    clock: 1.0e9
    subtree:
      - name: System
        local:
          - name: DRAM
            class: DRAM
            attributes: {bandwidth: 64}
          - name: TBuf
            class: Buffer
            attributes: {type: buffet, width: 64, depth: 128}
          - name: ALU
            class: Compute
            attributes: {type: mul}
binding:
  T:
    config: Main
    components:
      TBuf:
        - {tensor: T, rank: N, type: elem, style: lazy, evict-on: M}
      ALU:
        - op: mul
  Z:
    config: Main
    components:
      TBuf:
        - {tensor: T, rank: N, type: elem, style: lazy, evict-on: M}
"""


@pytest.mark.parametrize("store", ["ZStore", "BStore"])
@pytest.mark.parametrize("bound", ["type: subtree, style: lazy",
                                   "type: elem, style: eager"])
def test_fused_truncates_output_writes_to_key_depth(store, bound):
    """An output bound as a subtree (or eagerly) at its outer rank M, in
    a buffet and in a cache: every write is keyed by its M coordinate
    alone (key depth 1), and the ported kernel prices exactly as the
    interpreter's trace."""
    z_buffer = f"      {store}:\n" \
        f"        - {{tensor: Z, rank: M, {bound}, evict-on: K1}}\n"
    spec = load_spec(buffered_matmul(z_buffer=z_buffer),
                     name=f"z-{store}-at-m")
    assert_fused_exact(spec, tensors(seed=7))


FLAT_LOOKUP = """
einsum:
  declaration: {A: [J, K, M], B: [K], Z: [J, M]}
  expressions: ["Z[j, m] = A[j, k, m] * B[k]"]
mapping:
  partitioning:
    Z:
      (K, M): [flatten()]
  loop-order:
    Z: [J, KM]
architecture:
  Main:
    clock: 1.0e9
    subtree:
      - name: System
        local:
          - name: DRAM
            class: DRAM
            attributes: {bandwidth: 64}
          - name: BBuf
            class: Buffer
            attributes: {type: STORE, width: 64, depth: 2}
          - name: ALU
            class: Compute
            attributes: {type: mul}
binding:
  Z:
    config: Main
    components:
      BBuf:
        - {tensor: B, rank: K, type: elem, style: lazyEVICT}
      ALU:
        - op: mul
"""


@pytest.mark.parametrize("store", ["buffet", "cache"])
@pytest.mark.parametrize("evict", ["", ", evict-on: J", ", evict-on: KM"])
def test_fused_innermost_lookups_number_their_contexts(store, evict):
    """B is looked up by k inside the innermost (flattened KM) loop, so
    its reads sit at the innermost loop depth: the ported kernel numbers
    those iterations (each its own window when evicting on KM) and
    prices exactly as the interpreter's trace."""
    spec = load_spec(FLAT_LOOKUP.replace("STORE", store)
                     .replace("EVICT", evict), name=f"lookup-{store}")
    rng = np.random.default_rng(1)
    a = (rng.random((4, 8, 6)) < 0.5) * rng.integers(1, 9, (4, 8, 6))
    b = (rng.random(8) < 0.6) * rng.integers(1, 9, 8)
    work = {"A": tensor_from_dense("A", ["J", "K", "M"], a.astype(float)),
            "B": tensor_from_dense("B", ["K"], b.astype(float))}
    assert_fused_exact(spec, work)


def test_fused_multi_einsum_cascade_drains_between_einsums():
    """Each Einsum gets fresh machines; dirty windows drain at einsum
    end, and the next Einsum's buffet starts cold — exactly as the
    traced models do."""
    spec = load_spec(CASCADE, name="cascade-drain")
    traced, fused = assert_fused_exact(spec, tensors(seed=7))
    # Both Einsums priced buffet activity.
    for name in ("T", "Z"):
        assert fused.einsums[name].buffers, name
        t_actions = traced.einsums[name].action_counts()
        f_actions = fused.einsums[name].action_counts()
        assert t_actions == f_actions, name
    # The producer Einsum drained its dirty T windows.
    t_buffet = fused.einsums["T"].buffers[0]
    assert t_buffet.drains > 0


# ----------------------------------------------------------------------
# Per-component action tallies on KernelCounters
# ----------------------------------------------------------------------
def test_fused_kernel_counters_record_component_actions():
    from repro.model.evaluate import FusedMachines, ModelSink

    spec = load_spec(buffered_matmul(B_CACHED, Z_BUFFERED), name="kc-actions")
    backend = CompiledBackend(cache=_CACHE)
    work = tensors(seed=8)
    env = {}
    sink = ModelSink(spec, env)
    recorded = {}

    def on_fused(name, counters, fm):
        fm.settle(counters)
        recorded[name] = counters

    backend.run_cascade_fused(
        spec, dict(work), sink=sink, env=env,
        make_machines=lambda name, ir: FusedMachines(sink, ir),
        on_fused=on_fused,
    )
    kc = recorded["Z"]
    components = {comp for comp, _tensor, _t in kc.actions}
    assert components == {"ABuf", "BStore", "ZStore"}
    # Tallies match what was priced into the models.
    em = sink.einsums["Z"]
    by_component = {m.component.name: m for m in em.buffers}
    abuf = kc.component_actions("ABuf")
    assert abuf["reads"] == by_component["ABuf"].reads
    assert abuf["fills"] == by_component["ABuf"].fills
    assert abuf["drains"] == by_component["ABuf"].drains
    bstore = kc.component_actions("BStore")
    assert bstore["hits"] == by_component["BStore"].hits
    assert bstore["misses"] == by_component["BStore"].misses
    assert bstore["writebacks"] == by_component["BStore"].writebacks


def test_run_cascade_fused_without_machines_degrades_to_counters():
    """No routing plan: every touch lands on the fused counters and the
    outputs still match the plain untraced run."""
    spec = load_spec(buffered_matmul(B_CACHED), name="null-routing")
    backend = CompiledBackend(cache=_CACHE)
    work = tensors(seed=9)
    recorded = {}
    env = backend.run_cascade_fused(
        spec, dict(work),
        on_fused=lambda name, kc, fm: recorded.setdefault(name, kc),
    )
    kc = recorded["Z"]
    assert kc.actions == []  # no machines were ever built
    assert sum(kc.reads.values()) > 0
    plain = backend.run_cascade(spec, dict(work))
    assert env["Z"].points() == plain["Z"].points()


def test_fused_machines_port_routing():
    from repro.model.evaluate import FusedMachines, ModelSink

    spec = load_spec(buffered_matmul(B_CACHED, Z_BUFFERED), name="ports")
    backend = CompiledBackend(cache=_CACHE)
    ir = backend.compile(spec).units[0].ir
    sink = ModelSink(spec, {})
    sink.einsum_begin("Z", ir)
    fm = FusedMachines(sink, ir)
    # A's K coord and payload share one buffet machine.
    coord = fm.port("A", "K", "coord")
    payload = fm.port("A", "K", "payload")
    assert coord is not None and coord is payload
    assert isinstance(coord, FusedBuffet)
    # A's M rank is unbound: straight to DRAM.
    assert fm.port("A", "M", "coord") is None
    assert isinstance(fm.port("B", "K", "coord"), FusedCache)
    # Evict window cut: K1 is the first loop rank.
    assert coord.cut == list(ir.loop_ranks).index("K1") + 1
    sink.einsum_end("Z")


# ----------------------------------------------------------------------
# Machine-log conformance: settled logs vs. event-driven models
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_fused_buffet_machine_matches_model(data):
    """Any read/write history: the settled buffet log prices into
    BuffetModel's exact tallies and DRAM traffic."""
    key_depth = data.draw(st.sampled_from([None, 0, 1]), label="kd")
    cut = data.draw(st.sampled_from([0, 1, 2, 4]), label="cut")
    h = History(*buffet_pair(key_depth, cut))
    walk(data, h)
    tallies = h.settle()
    h.model.finish()
    assert buffet_counts(priced(lambda: buffet_model(key_depth, cut),
                                tallies)) == buffet_counts(h.model)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_fused_cache_machine_matches_model(data):
    """Any history (pair, span and repeat records included): the
    replayed cache log prices into CacheModel's exact tallies."""
    key_depth = data.draw(st.sampled_from([None, 0, 1]), label="kd")
    depth = data.draw(st.sampled_from([0, 1, 2, 8]), label="depth")
    h = History(*cache_pair(key_depth, depth))
    walk(data, h)
    tallies = h.settle()
    h.model.finish()
    assert cache_counts(priced(lambda: cache_model(key_depth, depth),
                               tallies)) == cache_counts(h.model)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_fused_buffet_read2_and_span_match_singles(data):
    """PAIR and SPAN records settle exactly as their per-event
    expansions into single read records."""
    cut = data.draw(st.sampled_from([0, 1]), label="cut")
    kd = data.draw(st.sampled_from([None, 1]), label="kd")
    single = History(*buffet_pair(kd, cut))
    batched = History(*buffet_pair(kd, cut))
    for c in range(data.draw(st.integers(1, 15), label="n")):
        if data.draw(st.booleans(), label="enter"):
            single.enter(0, c)
            batched.enter(0, c)
        depth = min(len(single.ctx), 1)
        level, lo = element(data, single, "at")
        if data.draw(st.booleans(), label="pair"):
            single.read(level, lo, depth)
            single.read(level, lo, depth)
            batched.read(level, lo, depth, pair=True)
        else:
            hi = data.draw(st.integers(lo, single.size(level)), label="hi")
            for pos in range(lo, hi):
                single.read(level, pos, depth)
            batched.span(level, lo, hi, depth)
    assert single.settle() == batched.settle()


# ----------------------------------------------------------------------
# Golden pinned metrics: real buffered accelerators through fused
# ----------------------------------------------------------------------
def golden_workload():
    rng = np.random.default_rng(42)
    a = (rng.random((24, 18)) < 0.3) * rng.integers(1, 9, (24, 18))
    b = (rng.random((24, 16)) < 0.3) * rng.integers(1, 9, (24, 16))
    return {
        "A": tensor_from_dense("A", ["K", "M"], a.astype(float)),
        "B": tensor_from_dense("B", ["K", "N"], b.astype(float)),
    }


GOLDEN = {
    "extensor": {
        "traffic_bytes": 8844.0,
        "exec_cycles": 658.0,
        "energy_pj": 1445321.1400000001,
        "total_ops": 1057,
        "actions": {
            "alu_mul_ops": 1057.0,
            "buffer_fill_bits": 28512,
            "buffer_read_bits": 59520,
            "buffer_write_bits": 63168,
            "dram_read_bits": 45888,
            "dram_write_bits": 24864,
            "isect_compares": 1281.75,
        },
    },
    "gamma": {
        "traffic_bytes": 8456.0,
        "exec_cycles": 114.1875,
        "energy_pj": 1544292.5199999998,
        "total_ops": 1715,
        "actions": {
            "alu_mul_ops": 1715.0,
            "buffer_fill_bits": 54048,
            "buffer_read_bits": 233856,
            "buffer_write_bits": 63168,
            "cache_fill_bits": 12576.0,
            "cache_read_bits": 237536,
            "cache_write_bits": 63168,
            "dram_read_bits": 42784.0,
            "dram_write_bits": 24864,
            "isect_compares": 249.0,
            "merger_elements": 658.0,
        },
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_fused_golden_metrics(name):
    """Pinned numbers through the fused path for two buffered
    accelerators — regressions show exact numeric diffs."""
    spec = accelerator(name)
    backend = CompiledBackend(cache=_CACHE)
    result = evaluate(spec, golden_workload(), backend=backend,
                      metrics="auto")
    golden = GOLDEN[name]
    assert result.traffic_bytes() == golden["traffic_bytes"]
    assert result.exec_cycles == golden["exec_cycles"]
    assert result.energy_pj == golden["energy_pj"]
    assert result.total_ops() == golden["total_ops"]
    assert result.action_counts() == golden["actions"]
    # And the traced path agrees with the same pins (mutual lockdown).
    traced = evaluate(spec, golden_workload(), backend=backend,
                      metrics="trace")
    assert traced.action_counts() == golden["actions"]
    assert traced.energy_pj == golden["energy_pj"]
