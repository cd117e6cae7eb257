"""Property tests for the compile cache and backend selection.

The cache key must be *canonical*: the same semantics always hit the same
compiled kernels (regardless of YAML dict ordering or cosmetic naming),
and semantically distinct specs never collide.
"""

import collections
import dataclasses
import enum
import hashlib
from concurrent.futures import ThreadPoolExecutor
from typing import Any, ClassVar

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from repro.accelerators import FACTORIES
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
    spec_fingerprint,
)
from repro.model.backend import DEFAULT_BACKEND, canonical_key
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
        assert second.units[0].flat is first.units[0].flat

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


def reference_key(obj):
    """The per-object recursive walk :func:`canonical_key` must equal:
    ``isinstance`` checks and ``dataclasses.fields`` on every object."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return (obj.__class__.__name__,
                tuple((f.name, reference_key(getattr(obj, f.name)))
                      for f in dataclasses.fields(obj)))
    if isinstance(obj, dict):
        items = [(reference_key(k), reference_key(v))
                 for k, v in obj.items()]
        items.sort(key=lambda kv: repr(kv[0]))
        return ("dict", tuple(items))
    if isinstance(obj, (list, tuple)):
        return ("seq", tuple(reference_key(x) for x in obj))
    if isinstance(obj, (set, frozenset)):
        return ("set", tuple(sorted((reference_key(x) for x in obj),
                                    key=repr)))
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return (type(obj).__name__, obj)
    return ("repr", repr(obj))


@dataclasses.dataclass
class _Node:
    label: str
    children: list
    extra: Any = None
    kind: ClassVar[str] = "node"  # not a field: never part of the key


@dataclasses.dataclass(frozen=True)
class _Leaf:
    value: Any


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


_Pair = collections.namedtuple("_Pair", "left right")

#: Hashable leaves: exact scalars, scalar subclasses (bool, IntEnum,
#: numpy float64) and a numpy integer, which is keyed by its repr.
_HASHABLE = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=4),
    st.floats(allow_nan=False), st.sampled_from(list(_Level)),
    st.integers(-9, 9).map(np.int64), st.floats(-9, 9).map(np.float64),
    st.integers(0, 3).map(_Leaf),
)

_NESTED = st.recursive(
    _HASHABLE,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(_HASHABLE, children, max_size=3),
        st.dictionaries(st.text(max_size=2), children, max_size=3)
        .map(collections.OrderedDict),
        st.sets(_HASHABLE, max_size=3),
        st.frozensets(_HASHABLE, max_size=3),
        st.tuples(children, children).map(lambda p: _Pair(*p)),
        st.builds(_Node, st.text(max_size=3), st.lists(children, max_size=2),
                  children),
    ),
    max_leaves=12,
)


class TestCanonicalKey:
    """:func:`canonical_key` picks its encoder once per type; every key
    must still be what the per-object walk builds, so compile-cache keys,
    ``spec_fingerprint`` and persistent-store keys are unchanged."""

    @pytest.mark.parametrize("name", sorted(FACTORIES))
    def test_registered_specs_match_the_reference(self, name):
        spec = FACTORIES[name]()
        layers = (spec.einsum, spec.mapping, spec.format, spec.architecture,
                  spec.binding, spec.params)
        want = reference_key(layers)
        assert canonical_key(layers) == want
        assert spec_fingerprint(spec) == hashlib.sha256(
            repr(want).encode("utf-8")).hexdigest()
        assert spec_cache_key(spec) == reference_key(
            (spec.einsum, spec.mapping, spec.params))

    @given(_NESTED)
    def test_nested_data_matches_the_reference(self, obj):
        got = canonical_key(obj)
        assert got == reference_key(obj)
        assert repr(got) == repr(reference_key(obj))

    def test_classes_are_keyed_by_repr(self):
        # A dataclass *class* is not a dataclass instance.
        assert canonical_key(_Leaf) == reference_key(_Leaf) == \
            ("repr", repr(_Leaf))


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

    def test_rejected_flat_kernels_run_on_interpreter(self, monkeypatch):
        """When the arena generator rejects an Einsum, the default backend
        prices every exact metrics mode on the interpreter (outputs and
        metrics equal its own), while the strict backend refuses an
        untraced run and a priced one, and still runs the trace."""
        import repro.ir.codegen_flat as flat_mod
        import repro.model.backend as backend_mod

        def refuse(*args, **kwargs):
            raise CodegenError("forced for the test")

        monkeypatch.setattr(flat_mod, "generate_flat_source", refuse)
        # A fresh default engine: the process-wide cache may already
        # hold kernels compiled before the generator was patched.
        monkeypatch.setattr(backend_mod, "DEFAULT_BACKEND",
                            CompiledBackend(cache=CompileCache(),
                                            fallback=True))
        spec = load_spec(MATMUL)
        ts = tensors(seed=3)
        ref = evaluate(spec, {k: t.copy() for k, t in ts.items()},
                       backend="interpreter")
        assert ref.env["Z"].nnz > 0
        strict = CompiledBackend(cache=CompileCache())
        runs = [(None, "auto"), (None, "trace"), (strict, "trace")]
        for backend, metrics in runs:
            got = evaluate(spec, {k: t.copy() for k, t in ts.items()},
                           backend=backend, metrics=metrics)
            case = (backend, metrics)
            assert got.env["Z"].points() == ref.env["Z"].points(), case
            assert got.traffic_bytes() == ref.traffic_bytes(), case
            assert got.exec_seconds == ref.exec_seconds, case
            assert got.energy_pj == ref.energy_pj, case
            assert got.action_counts() == ref.action_counts(), case
        env = resolve_backend(None).run_cascade(
            spec, {k: t.copy() for k, t in ts.items()})
        assert env["Z"].points() == ref.env["Z"].points()
        with pytest.raises(CodegenError):
            strict.run_cascade(spec, {k: t.copy() for k, t in ts.items()})
        with pytest.raises(CodegenError):
            evaluate(spec, {k: t.copy() for k, t in ts.items()},
                     backend=strict, metrics="auto")

    def test_traced_run_delegates_to_interpreter(self, monkeypatch):
        """A compiled run with a sink is the interpreter's run: the same
        event stream, and no kernel is compiled for it."""
        from repro.model.traces import TraceSink

        class Recorder(TraceSink):
            def __init__(self):
                self.events = []

            def read(self, tensor, rank, kind, key, ctx):
                self.events.append((tensor, rank, kind, key, tuple(ctx)))

        spec = load_spec(MATMUL)
        ts = tensors(seed=4)
        cache = CompileCache()
        got, ref = Recorder(), Recorder()
        env = CompiledBackend(cache=cache).run_cascade(
            spec, {k: t.copy() for k, t in ts.items()}, sink=got)
        ref_env = InterpreterBackend().run_cascade(
            spec, {k: t.copy() for k, t in ts.items()}, sink=ref)
        assert env["Z"].points() == ref_env["Z"].points()
        assert got.events == ref.events and got.events
        assert cache.get(spec).units[0]._kernels == {}


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

    def test_unknown_metrics_mode_is_rejected_up_front(self, tmp_path):
        """An unknown mode — including the retired ``"vector"``, once a
        second name for ``"auto"`` — fails at every front door before
        anything is lowered or written."""
        from repro.search import search
        from repro.search.jobs import submit

        cache = CompileCache()
        backend = CompiledBackend(cache=cache)
        spec = load_spec(MATMUL)
        def unknown(what="metrics mode"):
            return pytest.raises(ValueError, match=f"unknown {what}")

        for mode in ("bogus", "vector"):
            with unknown():
                evaluate_many(spec, [], metrics=mode)
            with unknown():
                evaluate_many(spec, [tensors()], backend=backend,
                              metrics=mode)
            with unknown():
                evaluate(spec, tensors(), backend=backend, metrics=mode)
            with unknown():
                search(spec, tensors(), backend=backend, metrics=mode)
            with unknown("prune_metrics mode"):
                search(spec, tensors(), backend=backend, prune_to=1,
                       prune_metrics=mode)
            with unknown():
                submit(str(tmp_path / "job"), spec, tensors(),
                       metrics=mode)
        assert cache.misses == 0 and len(cache) == 0  # nothing lowered
        assert not (tmp_path / "job").exists()  # nothing written

    def test_analytical_sweep_skips_the_compile_warmup(self):
        """The analytical tier never runs a kernel, so a spec the strict
        backend cannot compile still prices, exactly as per call."""
        class RefusingCache(CompileCache):
            def get(self, spec):
                raise CodegenError("forced for the test")

        spec = load_spec(MATMUL)
        strict = CompiledBackend(cache=RefusingCache())
        work = tensors(seed=2)
        [many] = evaluate_many(spec, [dict(work)], backend=strict,
                               metrics="analytical")
        one = evaluate(spec, dict(work), backend=strict,
                       metrics="analytical")
        assert many.traffic_bytes() == one.traffic_bytes()
        assert many.exec_seconds == one.exec_seconds
        assert many.energy_pj == one.energy_pj

    def test_thread_pool_workers(self):
        # Callers' own thread-pool workers share the process compile
        # cache: concurrent evaluate_many calls match a serial one.
        spec = load_spec(MATMUL)
        workloads = [tensors(seed=s) for s in range(6)]
        serial = evaluate_many(spec, [dict(w) for w in workloads])
        with ThreadPoolExecutor(max_workers=3) as pool:
            threaded = list(pool.map(
                lambda w: evaluate_many(spec, [dict(w)])[0], workloads))
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
            winners.append(cache.arena(src, ["M", "K"], ("swizzle",),
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
