"""Counter-fused metrics (``evaluate(metrics="counters")``) and the flat
untraced backend path.

Counter pricing is only offered where it is *exact* — specs that bind no
buffers/caches — so every assertion here is strict equality against the
traced evaluation, not a tolerance band.
"""

import numpy as np
import pytest

from repro.accelerators import accelerator
from repro.fibertree import tensor_from_dense
from repro.model import (
    CompileCache,
    CompiledBackend,
    InterpreterBackend,
    counters_priceable,
    default_workers,
    evaluate,
    evaluate_many,
)
from repro.model.evaluate import MAX_DEFAULT_WORKERS
from repro.spec import load_spec

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


@pytest.mark.parametrize("spec_yaml", [MATMUL, SPLIT, ISECT_BOUND])
def test_counter_pricing_equals_traced(spec_yaml):
    spec = load_spec(spec_yaml, name="ctr")
    assert counters_priceable(spec)
    backend = CompiledBackend(cache=CompileCache())
    work = tensors()
    traced = evaluate(spec, dict(work), backend=backend)
    counted = evaluate(spec, dict(work), backend=backend,
                       metrics="counters")
    assert_results_equal(traced, counted)


def test_buffered_specs_fall_back_to_trace():
    spec = accelerator("gamma")
    assert not counters_priceable(spec)
    backend = CompiledBackend(cache=CompileCache())
    work = tensors(seed=3)
    traced = evaluate(spec, dict(work), backend=backend)
    counted = evaluate(spec, dict(work), backend=backend,
                       metrics="counters")
    # Fallback must be silent and results identical to the traced path.
    assert_results_equal(traced, counted)


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


def test_priceability_rekeys_after_binding_mutation():
    """The memo must never serve a stale answer for a spec whose
    bindings were mutated in place after a first evaluation."""
    spec = load_spec(ONE_BUFFER, name="mutate-binding")
    backend = CompiledBackend(cache=CompileCache())
    assert not counters_priceable(spec)
    before = evaluate(spec, tensors(seed=1), backend=backend,
                      metrics="counters")  # exercises the memo + fallback
    # Strip every data binding: the spec is now unbuffered.
    for eb in spec.binding.einsums.values():
        eb.data.clear()
    assert counters_priceable(spec)
    after = evaluate(spec, tensors(seed=1), backend=backend,
                     metrics="counters")
    traced_after = evaluate(spec, tensors(seed=1), backend=backend)
    assert_results_equal(after, traced_after)
    # The buffered evaluation really was different (the buffet changed
    # DRAM traffic), so the two memo answers describe different specs.
    assert before.traffic_bytes() != after.traffic_bytes()


def test_priceability_rekeys_after_architecture_mutation():
    """Mutating the architecture in place (Buffer -> DRAM class) flips
    priceability; the memo must follow the content, not the object."""
    spec = load_spec(ONE_BUFFER, name="mutate-arch")
    assert not counters_priceable(spec)
    spec.architecture.topologies["Main"].components["ABuf"].klass = "DRAM"
    assert counters_priceable(spec)


def test_priceability_key_ignores_mapping_and_shapes():
    """Shape/mapping variants of one accelerator share the memo entry
    (they cannot change whether a binding lands on a buffer)."""
    from repro.model.evaluate import _priceable_key

    a = load_spec(ONE_BUFFER, name="k1")
    b = load_spec(ONE_BUFFER.replace(
        "uniform_occupancy(A.6)", "uniform_occupancy(A.3)"), name="k2")
    assert _priceable_key(a) == _priceable_key(b)
    c = load_spec(ONE_BUFFER.replace("evict-on: K1", "evict-on: M"),
                  name="k3")
    assert _priceable_key(a) != _priceable_key(c)


def test_evaluate_many_counters_and_workers():
    spec = load_spec(SPLIT, name="sweep")
    backend = CompiledBackend(cache=CompileCache())
    workloads = [tensors(seed=i) for i in range(5)]
    sequential = evaluate_many(spec, [dict(w) for w in workloads],
                               backend=backend, workers=1)
    threaded = evaluate_many(spec, [dict(w) for w in workloads],
                             backend=backend, workers=4,
                             metrics="counters")
    for a, b in zip(sequential, threaded):
        assert_results_equal(a, b)


def test_default_workers_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_EVALUATE_WORKERS", "3")
    assert default_workers() == 3
    monkeypatch.delenv("REPRO_EVALUATE_WORKERS")
    import os

    expected = max(1, min(os.cpu_count() or 1, MAX_DEFAULT_WORKERS))
    assert default_workers() == expected


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
