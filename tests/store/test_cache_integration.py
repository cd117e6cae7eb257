"""The ``cache=`` seam through ``evaluate``/``evaluate_many``/``search``.

The contract under test: a cache *hit* is bit-identical to a cold run
(same fingerprint, same action counts), incompatible arguments bypass
the store loudly instead of mis-keying, the analytical tier never
touches disk, and a sweep re-run with the same ``cache=`` adopts what
the store kept — a torn entry is quarantined and re-evaluated, and
every re-evaluated candidate is published for the next re-run.
"""

import json
import os
import warnings

import pytest

from repro.model import EnergyModel
from repro.model.backend import GLOBAL_COMPILE_CACHE
from repro.model.evaluate import StoreBypassWarning, evaluate, evaluate_many
from repro.search import search
from repro.search.results import metrics_fingerprint
from repro.search.space import apply_candidate
from repro.spec import load_spec
from repro.store import PayloadVersionError, PersistentStore
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


def _entries(path, namespace="results"):
    root = os.path.join(path, "objects", namespace)
    return sorted(os.path.join(d, f) for d, _, files in os.walk(root)
                  for f in files)


def _fingerprints(result):
    return [(c, metrics_fingerprint(res)) for c, res in result.candidates]


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
        # A bypassed store is never opened: not even its directory is
        # created.
        assert not os.path.exists(cache_dir)


class TestCompileCacheSharing:
    def test_cached_runs_reuse_the_process_compile_cache(self, tensors,
                                                          cache_dir):
        # The store holds results only: a cache= run compiles through
        # the process-wide compile cache, so a spec an uncached run has
        # already compiled costs no lowering, and no kernel entry is
        # written.
        spec = load_spec(BUFFERED)
        sweep = {"tile_sizes": {"K": [8, 24]}, "workers": 1}
        evaluate(spec, tensors)
        search(spec, tensors, **sweep)
        hits, misses = GLOBAL_COMPILE_CACHE.hits, GLOBAL_COMPILE_CACHE.misses
        evaluate(spec, tensors, cache=cache_dir)
        evaluate_many(spec, [tensors], workers=1, cache=cache_dir)
        search(spec, tensors, cache=cache_dir, **sweep)
        assert GLOBAL_COMPILE_CACHE.misses == misses
        assert GLOBAL_COMPILE_CACHE.hits > hits
        assert not os.path.exists(os.path.join(cache_dir, "objects",
                                               "kernels"))
        assert _entries(cache_dir)


class TestEvaluateManyThroughCache:
    def test_serial_and_process_pools_hit_bit_identically(
            self, tensors, cache_dir):
        spec = load_spec(BASE)
        workloads = [tensors, {
            "A": uniform_random("A", ["K", "M"], (24, 20), 0.25, seed=7),
            "B": uniform_random("B", ["K", "N"], (24, 16), 0.25, seed=8),
        }]
        cold = evaluate_many(spec, workloads, workers=2, cache=cache_dir)
        store = PersistentStore(cache_dir)
        warm_s = evaluate_many(spec, workloads, workers=1, cache=store)
        warm_p = evaluate_many(spec, workloads, workers=2, cache=store)
        fp = lambda rs: [metrics_fingerprint(r) for r in rs]
        assert fp(warm_s) == fp(cold)
        assert fp(warm_p) == fp(cold)
        assert store.stats.hits >= len(workloads)
        assert store.stats.puts == 0  # nothing was recomputed

    def test_populates_results_only(self, tensors, cache_dir):
        spec = load_spec(BUFFERED)
        evaluate_many(spec, [tensors], workers=1, cache=cache_dir)
        assert os.listdir(os.path.join(cache_dir, "objects")) == ["results"]
        assert len(_entries(cache_dir)) == _object_count(cache_dir) == 1


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
        search(spec, tensors, workers=2, cache=cache_dir)
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


class TestRerunThroughCache:
    def test_resume_adopts_then_hits(self, tensors, cache_dir):
        spec = load_spec(BASE)
        baseline = search(spec, tensors, workers=1)
        search(spec, tensors, workers=1, cache=cache_dir)
        store = PersistentStore(cache_dir)
        resumed = search(spec, tensors, workers=1, cache=store)
        assert _fingerprints(resumed) == _fingerprints(baseline)
        assert resumed.stats["n_adopted"] == 6
        assert store.stats.hits == 6
        assert store.stats.puts == 0

    def test_torn_entry_is_quarantined_and_healed(self, tensors,
                                                  cache_dir):
        spec = load_spec(BASE)
        baseline = search(spec, tensors, workers=1)
        search(spec, tensors, workers=1, cache=cache_dir)
        entry = _entries(cache_dir)[0]
        blob = open(entry, "rb").read()
        open(entry, "wb").write(blob[: len(blob) - 17])
        rerun = search(spec, tensors, workers=1, cache=cache_dir)
        assert rerun.stats["n_adopted"] == 5
        assert _fingerprints(rerun) == _fingerprints(baseline)
        quarantine = os.listdir(os.path.join(cache_dir, "quarantine"))
        assert len(quarantine) == 2  # the torn bytes plus a .reason
        assert len(_entries(cache_dir)) == 6  # healed by the re-run

    def test_reevaluated_candidates_are_published(self, tensors,
                                                  cache_dir):
        spec = load_spec(BASE)
        search(spec, tensors, workers=1, cache=cache_dir)
        for entry in _entries(cache_dir)[:2]:
            os.remove(entry)
        rerun = search(spec, tensors, workers=1, cache=cache_dir)
        assert rerun.stats["n_adopted"] == 4
        # The re-evaluated candidates were published to the same store,
        # so the next re-run adopts everything.
        assert len(_entries(cache_dir)) == 6
        again = search(spec, tensors, workers=1, cache=cache_dir)
        assert again.stats["n_adopted"] == 6

    def test_results_round_trip_through_a_fresh_handle(self, tensors,
                                                       cache_dir):
        spec = load_spec(BASE)
        result = search(spec, tensors, workers=1, cache=cache_dir)
        store = PersistentStore(cache_dir)
        for cand, res in result.candidates:
            key = store.result_key(apply_candidate(spec, "Z", cand),
                                   tensors, "auto", "arithmetic", None)
            stored = store.get_result(key)
            assert metrics_fingerprint(stored) == metrics_fingerprint(res)

    def test_rerun_names_a_foreign_protocol(self, tensors, cache_dir):
        # Each store entry stamps its own pickle protocol; a payload
        # this interpreter cannot unpickle raises the named error.
        from repro.store.persistent import ENTRY_MAGIC

        spec = load_spec(BASE)
        search(spec, tensors, workers=1, cache=cache_dir)
        entry = _entries(cache_dir)[0]
        blob = open(entry, "rb").read()
        start = len(ENTRY_MAGIC) + 8
        size = int.from_bytes(blob[len(ENTRY_MAGIC):start], "big")
        meta = json.loads(blob[start:start + size])
        meta["pickle_protocol"] = 99
        header = json.dumps(meta).encode()
        open(entry, "wb").write(ENTRY_MAGIC + len(header).to_bytes(8, "big")
                                + header + blob[start + size:])
        with pytest.raises(PayloadVersionError, match="protocol 99"):
            search(spec, tensors, workers=1, cache=cache_dir)


class TestDurabilityPolicy:
    def test_default_syncs_every_append(self, tensors, cache_dir,
                                        monkeypatch):
        import repro.store.persistent as persistent

        syncs = []
        real_fsync = persistent.os.fsync
        monkeypatch.setattr(persistent.os, "fsync",
                            lambda fd: syncs.append(real_fsync(fd)))
        search(load_spec(BASE), tensors, workers=1, cache=cache_dir)
        # One per committed entry: the six candidates' results.
        assert len(syncs) == _object_count(cache_dir) == 6
