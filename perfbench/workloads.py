"""The four benchmark workloads.

Each workload is a closed loop over a fixed list of operations, driven
by one client.  The spec text and input recipes are copies (the ratio
harness under ``benchmarks/`` may change without moving this
benchmark).  Every input tensor is a fixed recipe's tensor relabeled by
a seeded permutation of each rank's coordinates: seed 0 is the identity
(the recipe exactly), and any other seed gives an isomorphic input — different
coordinates, fibertree layouts and tile occupancy, the same number of
effectual products — so the work per operation stays steady across
seeds while the inputs change.

``repro`` is imported inside the methods only, so a set-up measured in
a fresh process includes ``import repro``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import statistics
import time
from typing import Callable, Dict, List, Tuple

#: Partitioning/tiling parameters scaled to the stand-in sizes (copied
#: from the figure benchmarks' SCALED_PARAMS).
SCALED_PARAMS: Dict[str, dict] = {
    "extensor": dict(k1=64, k0=16, m1=64, m0=16, n1=64, n0=16),
    "gamma": dict(pe_rows=32, merge_way=64),
    "outerspace": dict(mult_outer=256, mult_inner=16, merge_outer=128,
                       merge_inner=8),
    "sigma": dict(k_tile=64, pe_array=1024),
}

#: Unbuffered long-span spec: contraction rank innermost and deep.
SPEC_LONG_SPAN = """
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

#: Buffered search spec: buffet for A, LRU cache for B, output buffet
#: for Z, with evict-on ranks present in every candidate mapping.
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

#: The degenerate-tile ladder: K spans 96, so the 256/1024 tiles are
#: single-chunk no-ops the linter rejects statically (30 candidates,
#: 12 pruned).
SEARCH_TILE_SIZES = {"K": (8, 16, 256, 1024)}
SEARCH_PRUNE_TO = 4
#: Timed operations run on one thread.  On a shared 2-vCPU host, two
#: pool threads ran long-span and mapping-search slower than one, and
#: their time followed the sibling vCPU's load (run-to-run spread
#: 0.2-0.35 against 0.05-0.1 on one thread).  The fan-out itself is
#: measured by the traced run's ``model.fanout_efficiency`` probe on
#: FANOUT_WORKERS.
WORKERS = 1
FANOUT_WORKERS = 2

#: Per-size input parameters and fresh-process set-up samples per run
#: (``setup_s`` is their median).  The full sizes give each operation
#: 10-50 samples in a 20 s run.  "smoke" keeps the self-test fast.
SIZES = {
    "full": {"pv_datasets": ("wi",), "pv_shrink": 2,
             "search_shape": (96, 24, 20), "ls_nnz": 50_000,
             "ls_pairs": 3, "graph_shrink": 8, "setup_samples": 7},
    "smoke": {"pv_datasets": ("wi",), "pv_shrink": 4,
              "search_shape": (48, 24, 20), "ls_nnz": 4_000,
              "ls_pairs": 3, "graph_shrink": 16, "setup_samples": 1},
}


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def permutation(seed: int, salt: str, n: int):
    """A seeded permutation of ``range(n)``; None (identity) for seed 0."""
    import numpy as np

    if seed == 0:
        return None
    key = int.from_bytes(hashlib.sha256(salt.encode()).digest()[:4], "big")
    return np.random.default_rng([seed, key]).permutation(n)


def relabel(tensor, perms: Dict[str, object]):
    """``tensor`` with every coordinate of rank ``r`` mapped through
    ``perms[r]`` (ranks without a permutation keep their coordinates)."""
    from repro.fibertree import Tensor

    maps = [perms.get(r) for r in tensor.rank_ids]
    if all(m is None for m in maps):
        return tensor
    points = [(tuple(int(m[c]) if m is not None else c
                     for m, c in zip(maps, point)), value)
              for point, value in tensor.leaves()]
    return Tensor.from_coo(tensor.name, tensor.rank_ids, points,
                           shape=list(tensor.shape))


def uniform_matrix(name: str, rank_ids, shape, nnz: int, seed: int,
                   perms: Dict[str, object]):
    """``nnz`` distinct uniformly placed nonzeros with values in (0, 1],
    each rank's coordinates mapped through ``perms`` (see
    :func:`relabel`) before the one tensor build."""
    import numpy as np

    from repro.fibertree import Tensor

    rng = np.random.default_rng(seed)
    rows, cols = shape
    cells = rng.choice(rows * cols, size=nnz, replace=False)
    coords = [cells // cols, cells % cols]
    for i, rank in enumerate(rank_ids):
        if perms.get(rank) is not None:
            coords[i] = perms[rank][coords[i]]
    values = 1.0 - rng.random(nnz)
    points = zip(zip(coords[0].tolist(), coords[1].tolist()),
                 values.tolist())
    return Tensor.from_coo(name, list(rank_ids), points, shape=list(shape))


def inputs_fingerprint(tensors) -> str:
    """Content digest of a list of tensors (coordinates and values)."""
    h = hashlib.sha256()
    for t in tensors:
        h.update(f"{t.name}{t.rank_ids}{t.shape}".encode())
        for point, value in t.leaves():
            h.update(repr((point, value)).encode())
    return h.hexdigest()


# ----------------------------------------------------------------------
# Digests of simulated results
# ----------------------------------------------------------------------
def result_digest(result) -> str:
    """Digest over traffic by tensor, cycles, energy, action counts,
    total ops and the output points of one evaluation."""
    h = hashlib.sha256()
    traffic = result.traffic
    for bits in (traffic.read_bits, traffic.write_bits):
        h.update(repr(sorted((k, float(v).hex())
                             for k, v in bits.items())).encode())
    h.update(float(result.exec_cycles).hex().encode())
    h.update(float(result.energy_pj).hex().encode())
    h.update(repr(sorted((k, float(v).hex())
                         for k, v in result.action_counts().items()))
             .encode())
    h.update(float(result.total_ops()).hex().encode())
    for name in result.spec.einsum.cascade.outputs:
        if name in result.env:
            h.update(name.encode())
            h.update(repr(sorted(result.env[name].points().items()))
                     .encode())
    return h.hexdigest()


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t0, out


Call = Callable[..., object]
Operation = Tuple[str, Callable[[Call], object]]


class Workload:
    """One workload: set-up, seeded inputs, its operation list, and the
    checks and metrics that interpret the operations' results."""

    name = ""
    #: Keep every traced operation's result for :meth:`layer_metrics`.
    keeps_traced_results = False

    def __init__(self, size: str = "full", workdir: str = ".perfbench"):
        self.size = size
        self.params = SIZES[size]
        #: Directory (inside the checkout) for anything written to disk.
        self.workdir = workdir
        #: Set-up breakdown (seconds): spec construction, compile,
        #: forcing kernel flavors.
        self.setup_parts: Dict[str, float] = {}
        self.gen_s = 0.0
        self.inputs_digest = ""
        self.seed = 0

    def setup(self) -> None:
        raise NotImplementedError

    def make_inputs(self, seed: int) -> None:
        raise NotImplementedError

    def operations(self) -> List[Operation]:
        raise NotImplementedError

    def digest(self, key: str, result) -> str:
        return result_digest(result)

    def reference_failures(self, results: Dict[str, object]) -> List[str]:
        """Keys whose results disagree with an independent reference
        (run outside the timed region, at non-default seeds)."""
        return []

    def model_err_pct(self, results: Dict[str, object]) -> float:
        """Simulated-vs-reference error, always on the canonical (seed 0)
        inputs so that it does not depend on the seed: ``results`` are
        the seeded operations' results, reused when the seed is 0."""
        raise NotImplementedError

    def sim_counts(self, results: Dict[str, object]) -> Dict[str, float]:
        return {
            "sim.cycles": sum(r.exec_cycles for r in results.values()),
            "sim.traffic_bytes": sum(r.traffic_bytes()
                                     for r in results.values()),
            "sim.total_ops": sum(r.total_ops() for r in results.values()),
        }

    def layer_metrics(self, results, traced, op_best
                      ) -> Dict[str, float]:
        """Workload-specific per-layer numbers from results and each
        operation's untraced time."""
        return {}

    def probe(self) -> Dict[str, float]:
        """Standalone per-layer probes (traced run only)."""
        return {}

    def close(self) -> None:
        """Release what the operations hold open (stores, temp dirs)."""

    def _force(self, backend, spec, flavors) -> None:
        t0 = time.perf_counter()
        units = backend.compile(spec).units
        t1 = time.perf_counter()
        for unit in units:
            for flavor in flavors:
                getattr(unit, flavor)
        t2 = time.perf_counter()
        self.setup_parts["compile_s"] = \
            self.setup_parts.get("compile_s", 0.0) + t1 - t0
        self.setup_parts["kernel_codegen_s"] = \
            self.setup_parts.get("kernel_codegen_s", 0.0) + t2 - t1

    def _kernel_price_probe(self, spec, tensors) -> Tuple[float, float]:
        """(untraced run_cascade seconds, evaluate(auto) minus that)."""
        from repro.model import CompiledBackend, evaluate

        backend = CompiledBackend(fallback=True)
        t_kernel, _ = _timed(backend.run_cascade, spec, dict(tensors))
        t_eval, _ = _timed(evaluate, spec, dict(tensors), metrics="auto")
        return t_kernel, t_eval - t_kernel


# ----------------------------------------------------------------------
# paper-validation
# ----------------------------------------------------------------------
class PaperValidation(Workload):
    """The four accelerators priced on Table-4 stand-ins (Fig. 9/10)."""

    name = "paper-validation"
    #: The cheapest operation, re-priced with the traced engine.
    reference_op = "sigma/wi"

    def setup(self) -> None:
        t0 = time.perf_counter()
        from repro.accelerators import accelerator
        from repro.model import CompiledBackend
        t1 = time.perf_counter()
        self.specs = {a: accelerator(a, **p) for a, p in
                      SCALED_PARAMS.items()}
        t2 = time.perf_counter()
        self.setup_parts.update(import_s=t1 - t0, spec_build_s=t2 - t1)
        backend = CompiledBackend()
        for spec in self.specs.values():
            self._force(backend, spec, ("vector", "traced"))

    def make_inputs(self, seed: int) -> None:
        from repro.workloads import TABLE4

        def square(a):
            # B = A, as the validation methodology squares the matrix.
            b = a.copy(name="B")
            b.rank_ids = ["K", "N"]
            return a, b

        t0 = time.perf_counter()
        self.seed = seed
        self.pairs, self.canonical = {}, {}
        for ds in self.params["pv_datasets"]:
            # The timed operations run a shrunk stand-in, so that a run
            # holds many samples of each; the model error is priced on
            # the library's stand-in itself.
            d = TABLE4[ds]
            self.canonical[ds] = square(d.matrix(name="A",
                                                 rank_ids=("K", "M")))
            d = dataclasses.replace(d, scale=d.scale
                                    / self.params["pv_shrink"])
            a = d.matrix(name="A", rank_ids=("K", "M"))
            perms = {"K": permutation(seed, f"{ds}/K", d.shape[0]),
                     "M": permutation(seed, f"{ds}/M", d.shape[1])}
            self.pairs[ds] = square(relabel(a, perms))
        self.gen_s = time.perf_counter() - t0
        self.inputs_digest = inputs_fingerprint(
            t for pair in self.pairs.values() for t in pair)

    def operations(self) -> List[Operation]:
        from repro.model import evaluate

        ops = []
        for ds, (a, b) in self.pairs.items():
            for accel, spec in self.specs.items():
                def op(call, spec=spec, a=a, b=b):
                    return call("model.evaluate", evaluate, spec,
                                {"A": a, "B": b}, metrics="auto")
                ops.append((f"{accel}/{ds}", op))
        return ops

    def reference_failures(self, results) -> List[str]:
        from repro.model import evaluate

        accel, ds = self.reference_op.split("/")
        a, b = self.pairs[ds]
        ref = evaluate(self.specs[accel], {"A": a, "B": b}, metrics="trace")
        if result_digest(ref) != result_digest(results[self.reference_op]):
            return [self.reference_op]
        return []

    def model_err_pct(self, results) -> float:
        from repro.published import (
            FIG9A_EXTENSOR_TRAFFIC,
            FIG9B_GAMMA_TRAFFIC,
            FIG9C_OUTERSPACE_TRAFFIC,
        )

        from repro.model import evaluate

        published = {"extensor": FIG9A_EXTENSOR_TRAFFIC,
                     "gamma": FIG9B_GAMMA_TRAFFIC,
                     "outerspace": FIG9C_OUTERSPACE_TRAFFIC}
        results = {f"{accel}/{ds}": evaluate(self.specs[accel],
                                             {"A": a, "B": b})
                   for ds, (a, b) in self.canonical.items()
                   for accel in published}
        errs = [abs(results[f"{accel}/{ds}"].normalized_traffic()
                    / table[ds] - 1)
                for accel, table in published.items()
                for ds in self.pairs]
        return 100 * statistics.fmean(errs)

    def layer_metrics(self, results, traced, op_best):
        out = {}
        for accel in SCALED_PARAMS:
            times = [op_best[f"{accel}/{ds}"] for ds in self.pairs
                     if f"{accel}/{ds}" in op_best]
            out[f"model.eval_s.{accel}"] = statistics.fmean(times) \
                if times else 0.0
        return out

    def probe(self):
        kernel, price = [], []
        for a, b in self.pairs.values():
            for spec in self.specs.values():
                k, p = self._kernel_price_probe(spec, {"A": a, "B": b})
                kernel.append(k)
                price.append(p)
        return {"model.kernel_s": statistics.fmean(kernel),
                "model.price_s": statistics.fmean(price)}


# ----------------------------------------------------------------------
# mapping-search
# ----------------------------------------------------------------------
class MappingSearch(Workload):
    """Pruned, strictly-validated mapping search in three modes."""

    name = "mapping-search"
    keeps_traced_results = True
    MODES = ("exact", "analytical", "cached")

    store = None

    def setup(self) -> None:
        t0 = time.perf_counter()
        from repro.model import CompiledBackend
        from repro.spec import load_spec
        t1 = time.perf_counter()
        self.spec = load_spec(SPEC_SEARCH, name="search-sweep")
        t2 = time.perf_counter()
        self.setup_parts.update(import_s=t1 - t0, spec_build_s=t2 - t1)
        self._force(CompiledBackend(), self.spec, ("vector", "traced"))

    def make_inputs(self, seed: int) -> None:
        from repro.workloads import uniform_random

        t0 = time.perf_counter()
        self.seed = seed
        k, m, n = self.params["search_shape"]
        perms = {"K": permutation(seed, "search/K", k),
                 "M": permutation(seed, "search/M", m),
                 "N": permutation(seed, "search/N", n)}
        self.canonical = {
            "A": uniform_random("A", ["K", "M"], (k, m), 0.15, seed=5),
            "B": uniform_random("B", ["K", "N"], (k, n), 0.15, seed=7),
        }
        self.tensors = {name: relabel(t, perms)
                        for name, t in self.canonical.items()}
        self.gen_s = time.perf_counter() - t0
        self.inputs_digest = inputs_fingerprint(self.tensors.values())

    def open_store(self) -> None:
        """A fresh store directory for this run's cached mode."""
        import tempfile

        from repro.store import PersistentStore

        os.makedirs(self.workdir, exist_ok=True)
        self.store_path = tempfile.mkdtemp(prefix="store-",
                                           dir=self.workdir)
        self.store = PersistentStore(self.store_path)

    def close(self) -> None:
        import shutil

        if self.store is not None:
            shutil.rmtree(self.store_path, ignore_errors=True)
            self.store = None

    def operations(self) -> List[Operation]:
        from repro.search import search

        if self.store is None:
            self.open_store()
        ops = []
        for mode in self.MODES:
            def op(call, kwargs=self._search_kwargs(mode)):
                return call("search", search, self.spec, self.tensors,
                            **kwargs)
            ops.append((mode, op))
        return ops

    def _search_kwargs(self, mode: str) -> dict:
        extra = {"exact": {}, "analytical": {"prune_metrics": "analytical"},
                 "cached": {"cache": self.store}}[mode]
        return dict(tile_sizes=SEARCH_TILE_SIZES, prune_to=SEARCH_PRUNE_TO,
                    validate="strict", workers=WORKERS, **extra)

    def digest(self, key, result) -> str:
        from repro.search import metrics_fingerprint

        cand, res = result.best()
        return hashlib.sha256(repr((
            cand.describe(), metrics_fingerprint(res), result.n_scored,
            result.stats["statically_pruned"], len(result.failures),
        )).encode()).hexdigest()

    def reference_failures(self, results) -> List[str]:
        """Phase 2 re-prices the survivors with the traced engine; the
        reference is the exact vector engine (``metrics="auto"``), which
        re-prices the best, and in the exact modes also priced every
        survivor's phase-1 score."""
        from repro.model import evaluate
        from repro.search import (
            apply_candidate,
            metric_value,
            metrics_fingerprint,
        )

        einsum = self.spec.einsum.cascade.produced[0]
        bad = []
        for key, result in results.items():
            cand, res = result.best()
            ref = evaluate(apply_candidate(self.spec, einsum, cand),
                           dict(self.tensors), metrics="auto")
            scores = dict(result.scores)
            if metrics_fingerprint(ref) != metrics_fingerprint(res) or (
                    key != "analytical"
                    and any(scores[c] != metric_value(r, result.metric)
                            for c, r in result.candidates)):
                bad.append(key)
        return bad

    def model_err_pct(self, results) -> float:
        """Analytical-surrogate error: mean |phase-1 analytical score ÷
        exact re-priced metric − 1| over the re-priced survivors."""
        from repro.search import metric_value, search

        if self.seed:
            result = search(self.spec, self.canonical,
                            **self._search_kwargs("analytical"))
        else:
            result = results["analytical"]
        scores = dict(result.scores)
        errs = [abs(scores[c] / metric_value(r, result.metric) - 1)
                for c, r in result.candidates]
        return 100 * statistics.fmean(errs)

    def sim_counts(self, results):
        return super().sim_counts(
            {k: r.best()[1] for k, r in results.items()})

    def layer_metrics(self, results, traced, op_best):
        from repro.search import metric_value

        if not traced:
            return {}
        exact = [s for mode, s in traced if mode != "analytical"]
        changed = repriced = 0
        for s in exact:
            scores = dict(s.scores)
            if s.stats["n_repriced"]:
                repriced += len(s.candidates)
                changed += sum(scores[c] != metric_value(r, s.metric)
                               for c, r in s.candidates)
        all_s = [s for _, s in traced]
        pruned = sum(s.stats["statically_pruned"] for s in all_s)
        proposed = pruned + sum(s.n_scored for s in all_s)
        stats = self.store.stats if self.store is not None else None
        lookups = (stats.hits + stats.misses) if stats else 0
        return {
            "analysis.pruned_frac": pruned / max(proposed, 1),
            "search.phase1_s": statistics.fmean(
                s.stats["phase1_seconds"] for s in all_s),
            "search.phase2_s": statistics.fmean(
                s.stats["phase2_seconds"] for s in all_s),
            "search.n_repriced": statistics.fmean(
                s.stats["n_repriced"] for s in all_s),
            "search.rerank_frac": changed / max(repriced, 1),
            "store.hit_frac": stats.hits / lookups if lookups else 0.0,
        }

    def probe(self):
        k, p = self._kernel_price_probe(self.spec, self.tensors)
        return {"model.kernel_s": k, "model.price_s": p}


# ----------------------------------------------------------------------
# long-span
# ----------------------------------------------------------------------
class LongSpan(Workload):
    """Deep contraction spans, unbuffered, in evaluate_many batches."""

    name = "long-span"

    def setup(self) -> None:
        t0 = time.perf_counter()
        from repro.model import CompiledBackend
        from repro.spec import load_spec
        t1 = time.perf_counter()
        self.spec = load_spec(SPEC_LONG_SPAN, name="long-span")
        t2 = time.perf_counter()
        self.setup_parts.update(import_s=t1 - t0, spec_build_s=t2 - t1)
        self._force(CompiledBackend(), self.spec, ("vector", "counted"))

    def make_inputs(self, seed: int) -> None:
        t0 = time.perf_counter()
        # The nnz-sweep geometry: density falls as nnz^-1/4, K deepens.
        nnz = self.params["ls_nnz"]
        m = n = 32
        density = 0.1 * (10_000 / nnz) ** 0.25
        k = max(32, int(round(nnz / (m * density))))
        self.seed = seed

        def pair(i, perms):
            return {"A": uniform_matrix("A", ["M", "K"], (m, k), nnz,
                                        11 + 2 * i, perms),
                    "B": uniform_matrix("B", ["N", "K"], (n, k), nnz,
                                        13 + 2 * i, perms)}

        self.pairs = [pair(i, {"M": permutation(seed, f"ls{i}/M", m),
                               "N": permutation(seed, f"ls{i}/N", n),
                               "K": permutation(seed, f"ls{i}/K", k)})
                      for i in range(self.params["ls_pairs"])]
        self.canonical = self.pairs[0] if seed == 0 else pair(0, {})
        self.gen_s = time.perf_counter() - t0
        self.inputs_digest = inputs_fingerprint(
            t for p in self.pairs for t in p.values())

    def _batches(self):
        n = len(self.pairs)
        return [(f"batch{i}", [self.pairs[i], self.pairs[(i + 1) % n]])
                for i in range(n)]

    def operations(self) -> List[Operation]:
        from repro.model import evaluate_many

        ops = []
        for key, batch in self._batches():
            def op(call, batch=batch):
                return call("model.evaluate_many", evaluate_many, self.spec,
                            [dict(w) for w in batch], metrics="auto",
                            workers=WORKERS, executor="thread")
            ops.append((key, op))
        return ops

    def digest(self, key, result) -> str:
        return hashlib.sha256("".join(result_digest(r) for r in result)
                              .encode()).hexdigest()

    def reference_failures(self, results) -> List[str]:
        # The traced engine took ~20 s per 1e5-nonzero input; the
        # counter-fused engine is the independent exact reference instead.
        from repro.model import evaluate

        ref = evaluate(self.spec, dict(self.pairs[0]), metrics="counters")
        if result_digest(ref) != result_digest(results["batch0"][0]):
            return ["batch0"]
        return []

    def model_err_pct(self, results) -> float:
        """Analytical-tier traffic error against the exact simulation."""
        from repro.model import WorkloadStats, evaluate

        exact = evaluate(self.spec, dict(self.canonical)) if self.seed \
            else results["batch0"][0]
        anl = evaluate(self.spec, None, metrics="analytical",
                       stats=WorkloadStats.from_tensors(self.canonical))
        return 100 * abs(anl.traffic_bytes() / exact.traffic_bytes() - 1)

    def sim_counts(self, results):
        return super().sim_counts(
            {f"{k}/{i}": r for k, rs in results.items()
             for i, r in enumerate(rs)})

    def probe(self):
        from repro.model import evaluate, evaluate_many

        batch = self._batches()[0][1]
        serial = sum(_timed(evaluate, self.spec, dict(w), metrics="auto")[0]
                     for w in batch)
        fanned, _ = _timed(evaluate_many, self.spec,
                           [dict(w) for w in batch], metrics="auto",
                           workers=FANOUT_WORKERS, executor="thread")
        k, p = self._kernel_price_probe(self.spec, batch[0])
        return {"model.fanout_efficiency":
                serial / (fanned * FANOUT_WORKERS),
                "model.kernel_s": k, "model.price_s": p}


# ----------------------------------------------------------------------
# graph-vcp
# ----------------------------------------------------------------------
class GraphVCP(Workload):
    """BFS and SSSP under the three vertex-centric designs (Fig. 13)."""

    name = "graph-vcp"
    ALGORITHMS = ("bfs", "sssp")

    def setup(self) -> None:
        t0 = time.perf_counter()
        from repro.graph import (
            DESIGNS,
            graphdyns_cascade,
            graphicionado_cascade,
        )
        t1 = time.perf_counter()
        # run_vertex_centric builds these per run; building them here measures
        # the spec layer's share of set-up.
        graphicionado_cascade()
        graphdyns_cascade()
        t2 = time.perf_counter()
        self.designs = DESIGNS
        self.setup_parts.update(import_s=t1 - t0, spec_build_s=t2 - t1)

    def make_inputs(self, seed: int) -> None:
        import numpy as np

        from repro.fibertree import Tensor
        from repro.workloads import TABLE4, reachable_source

        t0 = time.perf_counter()
        self.seed = seed
        d = TABLE4["fl"]
        d = dataclasses.replace(d, scale=d.scale / self.params["graph_shrink"])
        n = max(d.shape)
        base = d.matrix(name="G", rank_ids=("D", "S"))
        self.canonical = {}
        for alg in self.ALGORITHMS:
            # The adjacency_from_dataset recipe.
            rng = np.random.default_rng(17)
            weighted = alg != "bfs"
            points = [((dst % n, src % n),
                       float(rng.integers(1, 10)) if weighted else 1.0)
                      for (dst, src), _ in base.leaves()]
            self.canonical[alg] = Tensor.from_coo("G", ["D", "S"], points,
                                                  shape=[n, n])
        self.canonical_source = reachable_source(self.canonical["bfs"],
                                                 seed=0)
        perm = permutation(seed, "fl/V", n)
        self.graphs = {alg: relabel(g, {"D": perm, "S": perm})
                       for alg, g in self.canonical.items()}
        self.source = self.canonical_source if perm is None \
            else int(perm[self.canonical_source])
        self.gen_s = time.perf_counter() - t0
        self.inputs_digest = inputs_fingerprint(
            list(self.graphs.values())) + f"/{self.source}"

    def operations(self) -> List[Operation]:
        from repro.graph import run_vertex_centric

        ops = []
        for alg in self.ALGORITHMS:
            for key, design in self.designs.items():
                def op(call, design=design, alg=alg):
                    return call("graph.run", run_vertex_centric, design,
                                self.graphs[alg], self.source, alg)
                ops.append((f"{key}/{alg}", op))
        return ops

    def digest(self, key, result) -> str:
        return hashlib.sha256(repr((
            sorted((v, float(d).hex()) for v, d in result.properties.items()),
            [dataclasses.astuple(it) for it in result.iterations],
        )).encode()).hexdigest()

    def reference_failures(self, results) -> List[str]:
        from repro.graph import reference_bfs, reference_sssp

        refs = {"bfs": reference_bfs(self.graphs["bfs"], self.source),
                "sssp": reference_sssp(self.graphs["sssp"], self.source)}
        return [key for key, r in results.items()
                if r.properties != refs[key.split("/")[1]]]

    def model_err_pct(self, results) -> float:
        from repro.graph import run_vertex_centric
        from repro.published import FIG13_PROPOSAL_OVER_GRAPHDYNS

        if self.seed:
            results = {f"{key}/{alg}": run_vertex_centric(
                           self.designs[key], self.canonical[alg],
                           self.canonical_source, alg)
                       for alg in self.ALGORITHMS
                       for key in ("graphdyns", "proposal")}
        errs = []
        for alg in self.ALGORITHMS:
            ratio = (results[f"graphdyns/{alg}"].total_seconds
                     / results[f"proposal/{alg}"].total_seconds)
            errs.append(abs(ratio / FIG13_PROPOSAL_OVER_GRAPHDYNS[alg] - 1))
        return 100 * statistics.fmean(errs)

    def sim_counts(self, results):
        from repro.graph import GraphicionadoConfig

        clock = GraphicionadoConfig().clock_hz
        its = [it for r in results.values() for it in r.iterations]
        return {
            "sim.cycles": sum(it.seconds for it in its) * clock,
            "sim.traffic_bytes": sum(it.traffic_bytes for it in its),
            "sim.total_ops": float(sum(it.edges_processed + it.apply_ops
                                       for it in its)),
        }

    def layer_metrics(self, results, traced, op_best):
        n_iter = sum(len(r.iterations) for r in results.values())
        return {"graph.n_iterations": float(n_iter),
                "graph.iter_s": sum(op_best.values()) / max(n_iter, 1)}


WORKLOADS = {w.name: w for w in (PaperValidation, MappingSearch, LongSpan,
                                 GraphVCP)}
