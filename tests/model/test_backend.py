"""Property tests for the compile cache and backend selection.

The cache key must be *canonical*: the same semantics always hit the same
compiled kernels (regardless of YAML dict ordering or cosmetic naming),
and semantically distinct specs never collide.
"""

import numpy as np
import pytest

from repro.ir.codegen import CodegenError
from repro.fibertree import tensor_from_dense
from repro.model import (
    CompileCache,
    CompiledBackend,
    InterpreterBackend,
    evaluate,
    evaluate_many,
    resolve_backend,
    spec_cache_key,
)
from repro.model.backend import DEFAULT_BACKEND
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


def tensors(seed=0, k=10, m=8, n=7, density=0.4):
    rng = np.random.default_rng(seed)
    a = (rng.random((k, m)) < density) * rng.integers(1, 9, (k, m))
    b = (rng.random((k, n)) < density) * rng.integers(1, 9, (k, n))
    return {
        "A": tensor_from_dense("A", ["K", "M"], a.astype(float)),
        "B": tensor_from_dense("B", ["K", "N"], b.astype(float)),
    }


class TestCacheHits:
    def test_same_spec_hits_same_compiled_object(self):
        cache = CompileCache()
        spec = load_spec(MATMUL)
        first = cache.get(spec)
        second = cache.get(spec)
        assert first is second
        assert cache.hits == 1 and cache.misses == 1
        assert second.units[0].traced is first.units[0].traced

    def test_equal_specs_from_separate_loads_share_kernels(self):
        cache = CompileCache()
        a = cache.get(load_spec(MATMUL))
        b = cache.get(load_spec(MATMUL))
        assert a is b

    def test_name_is_cosmetic(self):
        assert spec_cache_key(load_spec(MATMUL, name="x")) == \
            spec_cache_key(load_spec(MATMUL, name="y"))

    def test_dict_ordering_is_canonicalized(self):
        reordered = """
einsum:
  declaration:
    Z: [M, N]
    B: [K, N]
    A: [K, M]
  expressions:
    - Z[m, n] = A[k, m] * B[k, n]
"""
        assert spec_cache_key(load_spec(MATMUL)) == \
            spec_cache_key(load_spec(reordered))

    def test_dict_ordering_in_mapping_blocks(self):
        base = MATMUL + """
mapping:
  rank-order:
    A: [M, K]
    B: [K, N]
  loop-order:
    Z: [M, N, K]
"""
        reordered = MATMUL + """
mapping:
  loop-order:
    Z: [M, N, K]
  rank-order:
    B: [K, N]
    A: [M, K]
"""
        assert spec_cache_key(load_spec(base)) == \
            spec_cache_key(load_spec(reordered))

    def test_format_and_binding_do_not_affect_kernels(self):
        # Pricing layers shape the sink models, never the loop nest.
        priced = MATMUL + """
format:
  A:
    default:
      K: {format: C, cbits: 32, pbits: 64}
"""
        assert spec_cache_key(load_spec(MATMUL)) == \
            spec_cache_key(load_spec(priced))


class TestCacheCollisions:
    def variants(self):
        yield load_spec(MATMUL)
        yield load_spec(MATMUL + """
mapping:
  loop-order:
    Z: [M, N, K]
""")
        yield load_spec(MATMUL + """
mapping:
  loop-order:
    Z: [N, M, K]
""")
        yield load_spec(MATMUL + """
mapping:
  partitioning:
    Z:
      K: [uniform_shape(4)]
  loop-order:
    Z: [K1, M, N, K0]
""")
        yield load_spec(MATMUL + """
mapping:
  partitioning:
    Z:
      K: [uniform_shape(8)]
  loop-order:
    Z: [K1, M, N, K0]
""")
        yield load_spec(MATMUL + """
mapping:
  partitioning:
    Z:
      K: [uniform_occupancy(A.8)]
  loop-order:
    Z: [K1, M, N, K0]
""")
        yield load_spec(MATMUL.replace("A[k, m] * B[k, n]",
                                       "A[k, m] * B[k, n] * B[k, n]"))
        yield load_spec(MATMUL + "  shapes: {K: 32}\n")

    def test_distinct_specs_have_distinct_keys(self):
        keys = [spec_cache_key(s) for s in self.variants()]
        assert len(set(keys)) == len(keys)

    def test_params_are_part_of_the_key(self):
        sized = MATMUL + """
mapping:
  partitioning:
    Z:
      K: [uniform_shape(K1)]
  loop-order:
    Z: [K1, M, N, K0]
params: {K1: %d}
"""
        assert spec_cache_key(load_spec(sized % 4)) != \
            spec_cache_key(load_spec(sized % 8))


class TestBackendSelection:
    def test_resolve_names(self):
        assert resolve_backend(None) is DEFAULT_BACKEND
        assert resolve_backend("auto") is DEFAULT_BACKEND
        assert isinstance(resolve_backend("compiled"), CompiledBackend)
        assert isinstance(resolve_backend("interpreter"), InterpreterBackend)
        backend = CompiledBackend(cache=CompileCache())
        assert resolve_backend(backend) is backend

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("llvm")

    def test_backends_agree_on_metrics(self):
        spec = load_spec(MATMUL)
        ts = tensors()
        a = evaluate(spec, {k: t.copy() for k, t in ts.items()},
                     backend="interpreter")
        b = evaluate(spec, {k: t.copy() for k, t in ts.items()},
                     backend="compiled")
        assert a.env["Z"].points() == b.env["Z"].points()
        assert a.traffic_bytes() == b.traffic_bytes()
        assert a.exec_seconds == b.exec_seconds
        assert a.energy_pj == b.energy_pj
        assert a.action_counts() == b.action_counts()

    def test_fallback_on_codegen_error(self):
        # No registered mapping still trips CodegenError (the differential
        # suite proves full coverage), so force one to exercise the
        # fallback mechanism itself.
        class RefusingCache(CompileCache):
            def get(self, spec):
                raise CodegenError("forced for the test")

        spec = load_spec(MATMUL)
        ts = tensors()
        strict = CompiledBackend(cache=RefusingCache())
        with pytest.raises(CodegenError):
            evaluate(spec, {k: t.copy() for k, t in ts.items()},
                     backend=strict)
        auto = CompiledBackend(cache=RefusingCache(), fallback=True)
        a = evaluate(spec, {k: t.copy() for k, t in ts.items()},
                     backend=auto)
        ref = evaluate(spec, {k: t.copy() for k, t in ts.items()},
                       backend="interpreter")
        assert a.env["Z"].points() == ref.env["Z"].points()
        assert a.traffic_bytes() == ref.traffic_bytes()

    def test_untraced_run_falls_back_to_traced_kernel(self, monkeypatch):
        """An Einsum the flat generator rejects runs untraced through its
        traced kernel with a no-op sink; outputs equal the interpreter's."""
        import repro.ir.codegen_flat as flat_mod

        def refuse(*args, **kwargs):
            raise CodegenError("forced for the test")

        monkeypatch.setattr(flat_mod, "generate_flat_source", refuse)
        spec = load_spec(MATMUL)
        ts = tensors(seed=3)
        cache = CompileCache()
        env = CompiledBackend(cache=cache).run_cascade(
            spec, {k: t.copy() for k, t in ts.items()})
        ref = InterpreterBackend().run_cascade(
            spec, {k: t.copy() for k, t in ts.items()})
        assert env["Z"].points() == ref["Z"].points()
        assert env["Z"].nnz > 0
        with pytest.raises(CodegenError):
            cache.get(spec).units[0].flat  # the flat kernel was rejected


class TestEvaluateMany:
    def test_matches_per_call_evaluate(self):
        spec = load_spec(MATMUL)
        workloads = [tensors(seed=s) for s in range(4)]
        batch = evaluate_many(spec, [dict(w) for w in workloads])
        for w, res in zip(workloads, batch):
            single = evaluate(spec, dict(w), backend="interpreter")
            assert res.env["Z"].points() == single.env["Z"].points()
            assert res.traffic_bytes() == single.traffic_bytes()
            assert res.exec_seconds == single.exec_seconds

    def test_compiles_once_across_workloads(self):
        cache = CompileCache()
        backend = CompiledBackend(cache=cache)
        spec = load_spec(MATMUL)
        evaluate_many(spec, [tensors(seed=s) for s in range(5)],
                      backend=backend)
        assert cache.misses == 1
        assert cache.hits >= 5

    def test_failed_compiles_are_negative_cached(self, monkeypatch):
        import repro.model.backend as backend_mod

        calls = []

        def refuse(spec):
            calls.append(spec)
            raise CodegenError("forced for the test")

        monkeypatch.setattr(backend_mod, "build_cascade_ir", refuse)
        cache = CompileCache()
        spec = load_spec(MATMUL)
        with pytest.raises(CodegenError):
            cache.get(spec)
        with pytest.raises(CodegenError):
            cache.get(spec)
        assert len(calls) == 1  # second failure came from the cache
        assert cache.misses == 1 and cache.hits == 1

    def test_thread_pool_workers(self):
        spec = load_spec(MATMUL)
        workloads = [tensors(seed=s) for s in range(6)]
        serial = evaluate_many(spec, [dict(w) for w in workloads])
        threaded = evaluate_many(spec, [dict(w) for w in workloads],
                                 workers=3)
        for a, b in zip(serial, threaded):
            assert a.env["Z"].points() == b.env["Z"].points()
            assert a.traffic_bytes() == b.traffic_bytes()


class TestPrepCache:
    CASCADE = """
einsum:
  declaration:
    A: [K, M]
    T: [M, K]
    Z: [M]
  expressions:
    - T[m, k] = A[k, m]
    - Z[m] = T[m, k]
mapping:
  loop-order:
    T: [M, K]
    Z: [M, K]
"""

    def _tensors(self):
        rng = np.random.default_rng(4)
        dense = (rng.random((10, 8)) < 0.4) * rng.integers(
            1, 9, (10, 8)
        ).astype(float)
        return {"A": tensor_from_dense("A", ["K", "M"], dense)}

    def test_inputs_memoize_and_intermediates_do_not_accumulate(self):
        """Shared-cache evaluations must reuse input preparations but
        never pin per-run intermediates (that would leak one tensor +
        arena per candidate over a sweep)."""
        from repro.model import PrepCache, evaluate

        spec = load_spec(self.CASCADE, name="prep-cascade")
        tensors = self._tensors()
        cache = PrepCache()
        first = evaluate(spec, dict(tensors), prep_cache=cache)
        entries_after_one = len(cache._prepared)
        assert entries_after_one > 0
        for _ in range(3):
            again = evaluate(spec, dict(tensors), prep_cache=cache)
            assert again.env["Z"].points() == first.env["Z"].points()
        # Inputs: no new prepared forms beyond the first run.
        assert len(cache._prepared) == entries_after_one
        # The per-run T intermediates were prepared but never pinned:
        # every entry's source is a caller-supplied input.
        inputs = {id(t) for t in tensors.values()}
        assert all(id(src) in inputs
                   for src, _ in cache._prepared.values())
        assert cache.hits > 0

    def test_cached_results_match_uncached(self):
        from repro.model import PrepCache, evaluate

        spec = load_spec(self.CASCADE, name="prep-eq")
        tensors = self._tensors()
        plain = evaluate(spec, dict(tensors))
        cached = evaluate(spec, dict(tensors), prep_cache=PrepCache())
        assert plain.env["Z"].points() == cached.env["Z"].points()
        assert plain.traffic_bytes() == cached.traffic_bytes()
        assert plain.exec_seconds == cached.exec_seconds

    def test_contended_prepare_resolves_to_one_object(self):
        """Many threads racing the same preparation key must all adopt
        a single prepared object (one logical miss), even when several
        builds run before the first insert wins."""
        import threading

        from repro.model import PrepCache

        cache = PrepCache()
        src = self._tensors()["A"]
        n_threads = 16
        barrier = threading.Barrier(n_threads)
        builds = []
        winners = []

        def build():
            t = src.swizzle(["M", "K"])
            builds.append(t)  # list.append is atomic under the GIL
            return t

        def contend():
            barrier.wait()  # maximize the build race
            winners.append(cache.prepared(src, ["M", "K"], ("swizzle",),
                                          build))

        threads = [threading.Thread(target=contend)
                   for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(winners) == n_threads
        assert len({id(t) for t in winners}) == 1  # one shared object
        assert cache.misses == 1  # lost races count as hits
        assert cache.hits == n_threads - 1
        assert len(builds) >= 1  # redundant builds allowed, discarded

    def test_contended_evaluations_share_one_preparation(self):
        """A full-stack stress: many threads evaluating the same
        workload through one shared cache end with exactly the entries
        a single serial evaluation creates, and identical results."""
        import threading

        from repro.model import PrepCache, evaluate

        spec = load_spec(self.CASCADE, name="prep-stress")
        tensors = self._tensors()
        reference_cache = PrepCache()
        reference = evaluate(spec, dict(tensors),
                             prep_cache=reference_cache)
        entries_for_one = len(reference_cache._prepared)

        cache = PrepCache()
        n_threads = 8
        barrier = threading.Barrier(n_threads)
        results = [None] * n_threads
        errors = []

        def worker(slot):
            barrier.wait()
            try:
                results[slot] = evaluate(spec, dict(tensors),
                                         prep_cache=cache)
            except BaseException as exc:  # surfaced after join
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(k,))
                   for k in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # Prepared once: the contended cache holds exactly what one
        # serial evaluation would have created, nothing accumulated.
        assert len(cache._prepared) == entries_for_one
        assert cache.misses == reference_cache.misses
        for res in results:
            assert res.env["Z"].points() == reference.env["Z"].points()
            assert res.traffic_bytes() == reference.traffic_bytes()
