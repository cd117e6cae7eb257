"""The ``cache=`` seam through ``evaluate``/``evaluate_many``/``search``.

The contract under test: a cache *hit* is bit-identical to a cold run
(same fingerprint, same action counts), incompatible arguments bypass
the store loudly instead of mis-keying, the analytical tier never
touches disk, and a journaled sweep with ``cache=`` checkpoints into
that store — resume reads it back, with or without ``cache=``.
"""

import os
import warnings

import pytest

from repro.model import EnergyModel
from repro.model.backend import CompileCache, CompiledCascade
from repro.model.evaluate import StoreBypassWarning, evaluate, evaluate_many
from repro.search import search
from repro.search.results import metrics_fingerprint
from repro.spec import load_spec
from repro.store import PersistentStore
from repro.workloads import uniform_random

BASE = """
einsum:
  declaration:
    A: [K, M]
    B: [K, N]
    Z: [M, N]
  expressions:
    - Z[m, n] = A[k, m] * B[k, n]
"""

BUFFERED = BASE + """
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
          - name: ALU
            class: Compute
            attributes: {type: mul}
binding:
  Z:
    config: Buffered
    components:
      ABuf:
        - {tensor: A, rank: K, type: elem, style: lazy, evict-on: M}
      ALU:
        - op: mul
"""


@pytest.fixture
def tensors():
    return {
        "A": uniform_random("A", ["K", "M"], (24, 20), 0.25, seed=1),
        "B": uniform_random("B", ["K", "N"], (24, 16), 0.25, seed=2),
    }


@pytest.fixture
def cache_dir(tmp_path):
    return str(tmp_path / "cache")


def _object_count(path):
    n = 0
    for _, _, files in os.walk(os.path.join(path, "objects")):
        n += len(files)
    return n


class TestEvaluateThroughCache:
    def test_warm_hit_is_bit_identical(self, tensors, cache_dir):
        spec = load_spec(BUFFERED)
        cold = evaluate(spec, tensors, cache=cache_dir)
        store = PersistentStore(cache_dir)
        warm = evaluate(spec, tensors, cache=store)
        assert store.stats.hits == 1
        assert metrics_fingerprint(warm) == metrics_fingerprint(cold)
        assert warm.action_counts() == cold.action_counts()
        ref = evaluate(spec, tensors)  # never saw the cache
        assert metrics_fingerprint(ref) == metrics_fingerprint(cold)

    def test_metrics_modes_key_separately(self, tensors, cache_dir):
        spec = load_spec(BASE)
        store = PersistentStore(cache_dir)
        evaluate(spec, tensors, cache=store)
        evaluate(spec, tensors, metrics="trace", cache=store)
        assert store.stats.hits == 0
        assert store.stats.puts == 2

    def test_analytical_tier_never_touches_disk(self, tensors, cache_dir):
        spec = load_spec(BASE)
        evaluate(spec, tensors, metrics="analytical", cache=cache_dir)
        evaluate_many(spec, [tensors], metrics="analytical", workers=1,
                      cache=cache_dir)
        search(spec, tensors, tile_sizes={"K": [8]}, workers=1,
               metrics="analytical", cache=cache_dir)
        assert not os.path.exists(cache_dir) \
            or _object_count(cache_dir) == 0

    def test_custom_energy_model_bypasses_loudly(self, tensors, cache_dir):
        spec = load_spec(BASE)
        with pytest.warns(StoreBypassWarning, match="energy_model"):
            evaluate(spec, tensors, energy_model=EnergyModel(),
                     cache=cache_dir)
        assert _object_count(cache_dir) == 0


class TestKernelPersistence:
    def test_second_compile_cache_hits_persistently(self, cache_dir):
        spec = load_spec(BUFFERED)
        store = PersistentStore(cache_dir)
        first = CompileCache(persistent=store)
        first.get(spec)
        assert first.persistent_hits == 0
        # A *fresh* in-memory cache — a new process, effectively — finds
        # the lowered IR on disk instead of re-lowering.
        second = CompileCache(persistent=store)
        compiled = second.get(spec)
        assert second.persistent_hits == 1
        assert compiled.units


class TestEvaluateManyThroughCache:
    def test_thread_and_process_pools_hit_bit_identically(
            self, tensors, cache_dir):
        spec = load_spec(BASE)
        workloads = [tensors, {
            "A": uniform_random("A", ["K", "M"], (24, 20), 0.25, seed=7),
            "B": uniform_random("B", ["K", "N"], (24, 16), 0.25, seed=8),
        }]
        cold = evaluate_many(spec, workloads, workers=2,
                             executor="thread", cache=cache_dir)
        store = PersistentStore(cache_dir)
        warm_t = evaluate_many(spec, workloads, workers=2,
                               executor="thread", cache=store)
        warm_p = evaluate_many(spec, workloads, workers=2,
                               executor="process", cache=store)
        fp = lambda rs: [metrics_fingerprint(r) for r in rs]
        assert fp(warm_t) == fp(cold)
        assert fp(warm_p) == fp(cold)
        assert store.stats.hits >= len(workloads)
        assert store.stats.puts == 0  # nothing was recomputed

    def test_populates_both_namespaces(self, tensors, cache_dir):
        spec = load_spec(BUFFERED)
        evaluate_many(spec, [tensors], workers=1, cache=cache_dir)
        store = PersistentStore(cache_dir)
        assert store.get_kernels(spec) is not None
        assert _object_count(cache_dir) >= 2  # kernels + result


class TestSearchThroughCache:
    def test_warm_sweep_is_bit_identical(self, tensors, cache_dir):
        spec = load_spec(BASE)
        ref = search(spec, tensors, tile_sizes={"K": [8, 24]}, workers=1)
        cold = search(spec, tensors, tile_sizes={"K": [8, 24]}, workers=1,
                      cache=cache_dir)
        store = PersistentStore(cache_dir)
        warm = search(spec, tensors, tile_sizes={"K": [8, 24]}, workers=1,
                      cache=store)
        fp = lambda r: [(c, metrics_fingerprint(res))
                        for c, res in r.candidates]
        assert fp(cold) == fp(ref)
        assert fp(warm) == fp(ref)
        assert warm.best()[0] == ref.best()[0]
        assert store.stats.hits == len(ref.candidates)

    def test_pruned_sweep_caches_both_phases(self, tensors, cache_dir):
        spec = load_spec(BASE)
        ref = search(spec, tensors, workers=1, prune_to=2)
        search(spec, tensors, workers=1, prune_to=2, cache=cache_dir)
        store = PersistentStore(cache_dir)
        warm = search(spec, tensors, workers=1, prune_to=2, cache=store)
        fp = lambda r: [(c, metrics_fingerprint(res))
                        for c, res in r.candidates]
        assert fp(warm) == fp(ref)
        assert store.stats.hits > 0
        assert store.stats.puts == 0  # everything came from the cache

    def test_process_pool_sweep_shares_the_store(self, tensors, cache_dir):
        spec = load_spec(BASE)
        ref = search(spec, tensors, workers=1)
        search(spec, tensors, workers=2, executor="process",
               cache=cache_dir)
        store = PersistentStore(cache_dir)
        warm = search(spec, tensors, workers=1, cache=store)
        fp = lambda r: [(c, metrics_fingerprint(res))
                        for c, res in r.candidates]
        assert fp(warm) == fp(ref)
        # The pool workers' puts are visible to the serial warm pass.
        assert store.stats.hits == len(ref.candidates)

    def test_incompatible_sweep_bypasses_loudly(self, tensors, cache_dir):
        spec = load_spec(BASE)
        with pytest.warns(StoreBypassWarning, match="energy_model"):
            search(spec, tensors, max_loop_orders=2, workers=1,
                   energy_model=EnergyModel(), cache=cache_dir)
        assert _object_count(cache_dir) == 0


class TestJournalComposesWithCache:
    def test_resume_adopts_then_hits(self, tensors, tmp_path, cache_dir):
        import json

        spec = load_spec(BASE)
        baseline = search(spec, tensors, workers=1)
        path = str(tmp_path / "sweep")
        search(spec, tensors, workers=1, journal=path, cache=cache_dir)
        # The journal keeps no store of its own: its manifest names the
        # cache= store, which holds every result.
        assert not os.path.exists(os.path.join(path, "store"))
        manifest = json.load(open(os.path.join(path, "manifest.json")))
        assert os.path.normpath(os.path.join(path, manifest["store"])) \
            == os.path.normpath(cache_dir)

        fp = lambda r: [(c, metrics_fingerprint(res))
                        for c, res in r.candidates]
        store = PersistentStore(cache_dir)
        resumed = search(spec, tensors, workers=1, resume=path,
                         cache=store)
        assert fp(resumed) == fp(baseline)
        assert resumed.stats["n_adopted"] == 6
        assert store.stats.hits == 6
        assert store.stats.puts == 0
        # Without cache=, resume reads the store the manifest names.
        again = search(spec, tensors, workers=1, resume=path)
        assert fp(again) == fp(baseline)
        assert again.stats["n_adopted"] == 6
