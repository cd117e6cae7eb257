"""Per-Einsum kernel selection on the priced path, and the flat untraced
backend path.

``metrics="auto"`` runs the port-free ``counted`` kernel for an Einsum
whose binding routes nothing to a buffer or cache, and the ported
``vector`` kernel otherwise.  Every assertion here is strict equality
against the interpreter's traced evaluation, not a tolerance band.
"""

import importlib

import numpy as np
import pytest

from repro.accelerators import accelerator
from repro.fibertree import tensor_from_dense
from repro.model import (
    CompileCache,
    CompiledBackend,
    InterpreterBackend,
    default_workers,
    evaluate,
    evaluate_many,
)
from repro.search import metrics_fingerprint, search, submit
from repro.spec import load_spec

# ``repro.model.evaluate`` the attribute is the function; this is the module.
evaluate_mod = importlib.import_module("repro.model.evaluate")

MATMUL = """
einsum:
  declaration:
    A: [K, M]
    B: [K, N]
    Z: [M, N]
  expressions:
    - Z[m, n] = A[k, m] * B[k, n]
"""

SPLIT = MATMUL + """
mapping:
  partitioning:
    Z:
      K: [uniform_occupancy(A.6)]
  loop-order:
    Z: [K1, M, N, K0]
"""

ISECT_BOUND = SPLIT + """
architecture:
  Main:
    clock: 1.0e9
    subtree:
      - name: System
        local:
          - name: DRAM
            class: DRAM
            attributes: {bandwidth: 64}
          - name: ISect
            class: Intersection
            attributes: {type: two-finger}
          - name: ALU
            class: Compute
            attributes: {type: mul}
binding:
  Z:
    config: Main
    components:
      ISect:
        - op: intersect
          rank: K0
      ALU:
        - op: mul
"""


def tensors(seed=0, k=12, m=9, n=8, density=0.4):
    rng = np.random.default_rng(seed)
    a = (rng.random((k, m)) < density) * rng.integers(1, 9, (k, m))
    b = (rng.random((k, n)) < density) * rng.integers(1, 9, (k, n))
    return {
        "A": tensor_from_dense("A", ["K", "M"], a.astype(float)),
        "B": tensor_from_dense("B", ["K", "N"], b.astype(float)),
    }


def assert_results_equal(a, b):
    assert a.traffic_bytes() == b.traffic_bytes()
    assert a.exec_seconds == b.exec_seconds
    assert a.energy_pj == b.energy_pj
    assert a.total_ops() == b.total_ops()
    assert a.utilization() == b.utilization()
    assert a.action_counts() == b.action_counts()
    for name in a.env:
        assert a.env[name].points() == b.env[name].points()


@pytest.fixture
def machines_built(monkeypatch):
    """The Einsum names a buffet/cache routing plan was built for."""
    built = []

    class Recording(evaluate_mod.FusedMachines):
        def __init__(self, sink, ir):
            super().__init__(sink, ir)
            built.append(ir.name)

    monkeypatch.setattr(evaluate_mod, "FusedMachines", Recording)
    return built


def compiled_flavors(backend, spec):
    """Per Einsum, the kernel flavors compiled so far (each compiles on
    first use, so on a fresh cache these are the kernels that ran)."""
    return {unit.ir.name: sorted(unit._kernels)
            for unit in backend.cache.get(spec).units}


def traced(spec, work):
    return evaluate(spec, dict(work), backend=InterpreterBackend(),
                    metrics="trace")


@pytest.mark.parametrize("spec_yaml", [MATMUL, SPLIT, ISECT_BOUND])
def test_counter_pricing_equals_traced(spec_yaml, machines_built):
    """An unbuffered Einsum runs the port-free kernel, builds no
    machine, and prices exactly what the interpreter's trace does."""
    spec = load_spec(spec_yaml, name="ctr")
    backend = CompiledBackend(cache=CompileCache())
    work = tensors()
    got = evaluate(spec, dict(work), backend=backend)
    assert compiled_flavors(backend, spec) == {"Z": ["counted"]}
    assert machines_built == []
    assert_results_equal(got, traced(spec, work))


def test_counters_alias_warns_and_equals_trace():
    """The retired ``"counters"`` mode runs the interpreter's trace, so
    it stays independent of the kernels ``"auto"`` runs."""
    spec = accelerator("gamma")
    backend = CompiledBackend(cache=CompileCache())
    work = tensors(seed=3)
    with pytest.warns(DeprecationWarning, match="auto"):
        got = evaluate(spec, dict(work), backend=backend,
                       metrics="counters")
    assert all(not unit._kernels
               for unit in backend.cache.get(spec).units)
    assert_results_equal(got, traced(spec, work))


@pytest.mark.parametrize("call", ["evaluate_many", "search", "submit"])
def test_batch_apis_reject_counters(call, tmp_path):
    spec = load_spec(SPLIT, name="reject")
    with pytest.raises(ValueError, match="auto"):
        if call == "evaluate_many":
            evaluate_many(spec, [tensors()], metrics="counters", workers=1)
        elif call == "search":
            search(spec, tensors(), metrics="counters", workers=1)
        else:
            submit(str(tmp_path / "job"), spec, tensors(),
                   metrics="counters")


def test_unknown_metrics_mode_rejected():
    spec = load_spec(MATMUL)
    with pytest.raises(ValueError, match="metrics"):
        evaluate(spec, tensors(), metrics="vibes")


ONE_BUFFER = SPLIT + """
architecture:
  Main:
    clock: 1.0e9
    subtree:
      - name: System
        local:
          - name: DRAM
            class: DRAM
            attributes: {bandwidth: 64}
          - name: ABuf
            class: Buffer
            attributes: {type: buffet, width: 64, depth: 64}
binding:
  Z:
    config: Main
    components:
      ABuf:
        - {tensor: A, rank: K, type: elem, style: lazy, evict-on: K1}
"""


def test_buffered_einsum_runs_ported_kernel(machines_built):
    spec = load_spec(ONE_BUFFER, name="buffered")
    backend = CompiledBackend(cache=CompileCache())
    work = tensors(seed=2)
    got = evaluate(spec, dict(work), backend=backend)
    assert compiled_flavors(backend, spec) == {"Z": ["vector"]}
    assert machines_built == ["Z"]
    assert_results_equal(got, traced(spec, work))


#: Two Einsums, only the first bound to a buffet.
CASCADE = """
einsum:
  declaration:
    A: [K, M]
    B: [K, N]
    T: [M, N]
    Z: [M]
  expressions:
    - T[m, n] = A[k, m] * B[k, n]
    - Z[m] = T[m, n]
mapping:
  loop-order:
    T: [K, M, N]
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
          - name: BBuf
            class: Buffer
            attributes: {type: buffet, width: 64, depth: 16}
binding:
  T:
    config: Main
    components:
      BBuf:
        - {tensor: B, rank: N, type: elem, style: lazy, evict-on: K}
  Z:
    config: Main
    components: {}
"""


def test_kernel_selection_is_per_einsum(machines_built):
    spec = load_spec(CASCADE, name="per-einsum")
    backend = CompiledBackend(cache=CompileCache())
    work = tensors(seed=4)
    got = evaluate(spec, dict(work), backend=backend)
    assert compiled_flavors(backend, spec) == {"T": ["vector"],
                                               "Z": ["counted"]}
    assert machines_built == ["T"]
    ref = traced(spec, work)
    assert metrics_fingerprint(got) == metrics_fingerprint(ref)
    assert_results_equal(got, ref)


def test_kernel_selection_follows_binding_content(machines_built):
    """Selection reads the live binding on every evaluation: clearing the
    data bindings in place after a first evaluation switches the next
    one to the port-free kernel."""
    spec = load_spec(ONE_BUFFER, name="mutate-binding")
    backend = CompiledBackend(cache=CompileCache())
    before = evaluate(spec, tensors(seed=1), backend=backend)
    assert machines_built == ["Z"]
    for eb in spec.binding.einsums.values():
        eb.data.clear()
    after = evaluate(spec, tensors(seed=1), backend=backend)
    assert machines_built == ["Z"]  # none built for the second run
    assert compiled_flavors(backend, spec) == {"Z": ["counted", "vector"]}
    assert_results_equal(after, traced(spec, tensors(seed=1)))
    # The buffet really changed DRAM traffic, so the two runs priced
    # different specs.
    assert before.traffic_bytes() != after.traffic_bytes()


def test_kernel_selection_follows_architecture_content(machines_built):
    """Rebinding the buffer's component class to DRAM in place leaves
    nothing to route to a machine: the port-free kernel runs."""
    spec = load_spec(ONE_BUFFER, name="mutate-arch")
    spec.architecture.topologies["Main"].components["ABuf"].klass = "DRAM"
    backend = CompiledBackend(cache=CompileCache())
    got = evaluate(spec, tensors(seed=1), backend=backend)
    assert compiled_flavors(backend, spec) == {"Z": ["counted"]}
    assert machines_built == []
    assert_results_equal(got, traced(spec, tensors(seed=1)))


def test_evaluate_many_counters_and_workers():
    spec = load_spec(SPLIT, name="sweep")
    backend = CompiledBackend(cache=CompileCache())
    workloads = [tensors(seed=i) for i in range(5)]
    sequential = evaluate_many(spec, [dict(w) for w in workloads],
                               backend=backend, workers=1, metrics="trace")
    # A process pool rebuilds the default engine in each worker.
    pooled = evaluate_many(spec, [dict(w) for w in workloads], workers=2)
    for a, b in zip(sequential, pooled):
        assert_results_equal(a, b)


def test_default_workers_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_EVALUATE_WORKERS", "3")
    assert default_workers() == 3
    # Unset (or empty), the fan-out is serial whatever the cpu count.
    monkeypatch.delenv("REPRO_EVALUATE_WORKERS")
    assert default_workers() == 1
    monkeypatch.setenv("REPRO_EVALUATE_WORKERS", "")
    assert default_workers() == 1


def test_default_workers_rejects_non_numeric_env(monkeypatch):
    """A garbage REPRO_EVALUATE_WORKERS used to crash with an opaque
    ValueError from int(); it now raises a named error that points at
    the variable and the fix."""
    from repro.model import EnvVarError

    monkeypatch.setenv("REPRO_EVALUATE_WORKERS", "many")
    with pytest.raises(EnvVarError, match="REPRO_EVALUATE_WORKERS"):
        default_workers()


def test_default_workers_rejects_zero_and_negative_env(monkeypatch):
    """0 used to be silently clamped to 1, masking a broken deployment
    config; 0 and negatives are now rejected with the named error."""
    from repro.model import EnvVarError

    for bogus in ("0", "-3"):
        monkeypatch.setenv("REPRO_EVALUATE_WORKERS", bogus)
        with pytest.raises(EnvVarError, match="REPRO_EVALUATE_WORKERS"):
            default_workers()


def test_flat_untraced_matches_interpreter():
    spec = load_spec(SPLIT, name="flavors")
    cache = CompileCache()
    work = tensors(seed=9)
    env_i = InterpreterBackend().run_cascade(spec, dict(work))
    env_f = CompiledBackend(cache=cache).run_cascade(spec, dict(work))
    assert env_i["Z"].points() == env_f["Z"].points()
    # The flat kernel genuinely compiles (raises CodegenError if not),
    # so the untraced run took it rather than the traced fallback.
    assert cache.get(spec).units[0].flat is not None
