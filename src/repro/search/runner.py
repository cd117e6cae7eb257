"""Parallel, pruned mapping-space search over real tensors.

This is the evaluation engine behind :func:`search` and
:func:`explore_cascade` (the paper's named future-work rung: searching a
whole cascade's mappings Einsum by Einsum).  The historical serial
exhaustive sweep is ``search(spec, tensors, strategy="exhaustive",
workers=1)``.

The runner composes three independent pieces:

* **A strategy** (:mod:`repro.search.strategies`) proposes candidate
  batches and sees only float scores back.
* **Parallel evaluation** fans each batch out over the
  ``evaluate_many`` machinery, by worker count alone: ``workers=1``
  (the default) evaluates in-process, sharing the process-wide compile
  cache and one :class:`~repro.model.backend.PrepCache` per sweep;
  ``workers > 1`` runs a process pool shipping picklable
  ``(spec, tensors, opset, shapes, metrics)`` payloads.  An explicit
  ``workers > 1`` with process-incompatible arguments raises
  :class:`~repro.model.evaluate.ProcessExecutorError`; a count from
  ``REPRO_EVALUATE_WORKERS`` runs serially with an
  :class:`~repro.model.evaluate.ExecutorDowngradeWarning` naming each
  offender.  Every fan-out runs under a
  :class:`~repro.search.supervisor.SweepSupervisor`: per-candidate
  wall-clock ``timeout`` (process pools only), bounded retry of
  transient worker failures (``max_retries``/``retry_backoff``), broken
  process pools rebuilt once then finished serially, and deterministic
  spec errors recorded on ``SearchResult.failures`` instead of killing
  the sweep.
* **One result store** (:class:`~repro.store.PersistentStore`, the
  ``cache=`` store) is the only place per-candidate outcomes are
  written.  Before dispatch, a store-backed sweep adopts every stored
  result and stored deterministic failure (counted in
  ``stats["n_adopted"]``); whatever it prices, it publishes.  The
  store's keys are content digests and the built-in strategies are
  seeded, so re-running a killed or interrupted sweep with the same
  ``cache=`` evaluates only what is missing and finishes
  bit-identically to an uninterrupted run, while a re-run over a
  different spec or workload misses and runs cold.
* **Two-phase pruning** (``prune_to=k``): every proposed candidate is
  scored first with the ``prune_metrics`` surrogate and only the top-k
  survive.  Two surrogates are available:

  - ``"auto"`` (the default) or ``"trace"`` — an exact mode: the
    priced arena kernels, or the interpreter's trace.  Both are
    *bit-identical* to each other (the conformance suite enforces it),
    so the survivors' phase-1 results are already exact: there is no
    phase 2, and pruning with any ``k >= 1`` provably preserves the
    best candidate.
  - ``"analytical"`` — the statistics-based pricing tier
    (:func:`~repro.model.analytical.evaluate_analytical`): no tensor is
    walked at all, candidates are priced from sparsity statistics
    extracted once per sweep.  Orders of magnitude faster than any
    executing surrogate, but approximate, so phase 2 re-prices the
    survivors with the runner's ``metrics`` and the exact-survivor
    guarantee is relaxed to top-k recall: the true best survives
    whenever ``k`` absorbs the documented error bounds (the
    cross-validation suite in ``tests/model/test_analytical.py`` pins
    them).  Scored serially — each candidate prices in well under a
    millisecond, so pool dispatch would cost more than it saves.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..einsum.operators import ARITHMETIC, OpSet
from ..fibertree.rankid import rank_of_var
from ..model.backend import PrepCache, resolve_backend
from ..model.evaluate import (
    EvaluationResult,
    _durable_store,
    _opset_token,
    _process_one,
    check_metrics_mode,
    check_validate_mode,
    evaluate,
    lint_shapes,
    resolve_workers,
)
from ..spec.loader import AcceleratorSpec
from ..store.persistent import MISS, PersistentStore
from .results import (
    CascadeSearchResult,
    SearchResult,
    check_metric,
    metric_value,
)
from .space import Candidate, MappingSpace, apply_candidate, candidate_key
from .strategies import SearchStrategy, resolve_strategy
from .supervisor import DETERMINISTIC, FailureRecord, SweepSupervisor

#: How many consecutive all-duplicate proposal rounds the runner
#: tolerates before concluding a strategy is stuck (its contract allows
#: re-proposing seen candidates, so one stale round is not an error).
MAX_STALE_ROUNDS = 8


def _resolve_einsum(spec: AcceleratorSpec, einsum: Optional[str]) -> str:
    if einsum is not None:
        return einsum
    if len(spec.einsum.cascade) != 1:
        raise ValueError("name the Einsum to explore in a cascade "
                         "(or use explore_cascade to search them all)")
    return spec.einsum.cascade.produced[0]


def _einsum_ranks(spec: AcceleratorSpec, einsum: str) -> List[str]:
    return [rank_of_var(v) for v in spec.einsum.cascade[einsum].all_vars]


class SearchRunner:
    """Evaluates a strategy's candidate batches, in parallel, with
    optional two-phase pruning.  One runner covers one (spec, Einsum,
    tensors) sweep; construction resolves the backend and builds the
    sweep-wide :class:`~repro.model.backend.PrepCache`."""

    def __init__(
        self,
        spec: AcceleratorSpec,
        tensors,
        einsum: Optional[str] = None,
        opset: OpSet = ARITHMETIC,
        shapes: Optional[Dict[str, int]] = None,
        energy_model=None,
        backend=None,
        metrics: str = "auto",
        metric: str = "exec_seconds",
        workers: Optional[int] = None,
        prune_to: Optional[int] = None,
        prune_metrics: str = "auto",
        prep_cache: Optional[PrepCache] = None,
        timeout: Optional[float] = None,
        max_retries: int = 2,
        retry_backoff: float = 0.05,
        cache=None,
        validate: str = "off",
    ):
        check_validate_mode(validate)
        check_metric(metric)
        check_metrics_mode(metrics)
        check_metrics_mode(prune_metrics, "prune_metrics mode")
        if prune_to is not None and prune_to < 1:
            raise ValueError("prune_to must be >= 1")
        self.spec = spec
        self.tensors = dict(tensors)
        self.einsum = _resolve_einsum(spec, einsum)
        self.opset = opset
        self.shapes = shapes
        self.energy_model = energy_model
        #: 1 (serial, in-process) or the size of the process pool.
        self.workers = resolve_workers(workers, None, timeout, opset,
                                       energy_model, backend)
        self.engine = resolve_backend(backend)
        #: The ``cache=`` store results are published to (None when
        #: absent or bypassed).
        self.store: Optional[PersistentStore] = _durable_store(
            cache, opset, energy_model, self.engine, "search")
        self.metrics = metrics
        self.metric = metric
        self.prune_to = prune_to
        self.prune_metrics = prune_metrics
        self.prep_cache = prep_cache if prep_cache is not None else PrepCache()
        self.timeout = timeout
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.validate = validate
        #: Rank shapes for the per-candidate feasibility rules.
        self._lint_shapes = lint_shapes(self.tensors, shapes)
        if validate != "off":
            # The base spec is linted once up front: a strict run rejects
            # a statically-broken spec before the pools even spin up.
            from ..model.evaluate import lint_gate

            lint_gate(spec, tensors=self.tensors, shapes=shapes,
                      validate=validate)
        # Supervision state, owned by run(): one supervisor (and its
        # pools) serves every batch of a search — multi-round strategies
        # would otherwise pay pool spin-up, worker-process imports
        # included, per round.
        self._supervisor: Optional[SweepSupervisor] = None
        self._n_adopted = 0
        # Sweep-wide sparsity statistics for the analytical surrogate,
        # extracted lazily (and only once — they are mapping-independent,
        # so every candidate shares them).
        self._workload_stats = None

    # ---- evaluation ---------------------------------------------------
    def _stats(self):
        if self._workload_stats is None:
            from ..model.analytical import WorkloadStats

            self._workload_stats = WorkloadStats.from_tensors(self.tensors)
        return self._workload_stats

    def _statically_infeasible(self, candidate: Candidate) -> bool:
        """Does the cheap error-severity feasibility subset reject this
        candidate's spec?  Only *error* rules vote (warn findings never
        prune), so dropping the candidate cannot change the best: an
        infeasible mapping could not have executed as specified."""
        from ..analysis import feasibility_findings

        cand_spec = apply_candidate(self.spec, self.einsum, candidate)
        return bool(feasibility_findings(cand_spec,
                                         shapes=self._lint_shapes))

    def _evaluate_one(self, candidate: Candidate, metrics: str,
                      key: Optional[str] = None) -> EvaluationResult:
        cand_spec = apply_candidate(self.spec, self.einsum, candidate)
        if metrics == "analytical":
            return evaluate(cand_spec, None, shapes=self.shapes,
                            energy_model=self.energy_model,
                            metrics="analytical", stats=self._stats())
        result = evaluate(cand_spec, dict(self.tensors), opset=self.opset,
                          shapes=self.shapes, energy_model=self.energy_model,
                          backend=self.engine, metrics=metrics,
                          prep_cache=self.prep_cache)
        if key is not None:
            # Publish, adopting a racing writer's committed winner (the
            # store's setdefault rule; both computed the same result).
            result = self.store.put_result(key, result)
        return result

    def _adopt_stored(self, candidates: Sequence[Candidate], metrics: str,
                      phase: int
                      ) -> Tuple[Dict[Candidate, EvaluationResult],
                                 Dict[Candidate, Optional[str]]]:
        """Split a batch into store-adopted results and work to run.

        A store-backed sweep adopts every stored result (the store's key
        covers everything that can change a result, so the hit is
        bit-identical to a cold run) and every stored *deterministic*
        failure (re-running a poison candidate would fail identically;
        the failure is re-surfaced on this run's ``failures`` instead),
        counting both in ``n_adopted``.  Returns the adopted results and
        the candidates left to run, each with its result key (None when
        the batch is not store-backed: no store, or the analytical tier,
        which is never stored).
        """
        if self.store is None or metrics == "analytical":
            return {}, {cand: None for cand in candidates}
        adopted: Dict[Candidate, EvaluationResult] = {}
        to_run: Dict[Candidate, Optional[str]] = {}
        token = _opset_token(self.opset)
        for cand in candidates:
            key = self.store.result_key(
                apply_candidate(self.spec, self.einsum, cand),
                self.tensors, metrics, token, self.shapes)
            result = self.store.get_result(key)
            if result is not MISS:
                adopted[cand] = result
                continue
            failure = self.store.get_failure(key)
            if failure is MISS:
                to_run[cand] = key
                continue
            self._supervisor.failures.append(FailureRecord(
                item=cand, key=candidate_key(cand), phase=phase, **failure))
        self._n_adopted += len(candidates) - len(to_run)
        return adopted, to_run

    def _evaluate_batch(self, candidates: Sequence[Candidate],
                        metrics: str, phase: int = 1
                        ) -> List[Tuple[Candidate, EvaluationResult]]:
        """Evaluate one batch under supervision, preserving candidate
        order (so parallel and serial sweeps yield bit-identical result
        lists).  Returns completions only — ``(candidate, result)``
        pairs; candidates whose evaluation failed terminally land on the
        supervisor's ``failures`` (and, when deterministic, in the
        store) instead."""
        supervisor = self._supervisor
        adopted, keys = self._adopt_stored(candidates, metrics, phase)
        to_run = list(keys)

        def on_failure(record: FailureRecord) -> None:
            record.phase = phase
            key = keys[record.item]
            if key is not None and record.classification == DETERMINISTIC:
                self.store.put_failure(key, record.entry())

        if metrics == "analytical":
            # Statistics pricing is ~1000x cheaper than an executing
            # surrogate; pool dispatch would dominate the work.
            completed = supervisor.run_serial(
                to_run, lambda c: self._evaluate_one(c, metrics),
                phase=phase, on_failure=on_failure,
            )
        else:
            token = _opset_token(self.opset)
            # Process workers publish straight into the store.
            cache_dir = None if self.store is None else self.store.path
            completed = supervisor.run_batch(
                to_run, lambda c: self._evaluate_one(c, metrics, keys[c]),
                payload=lambda c: (
                    apply_candidate(self.spec, self.einsum, c),
                    self.tensors, token, self.shapes, metrics, cache_dir),
                process_worker=_process_one,
                phase=phase, on_failure=on_failure,
            )
        if not adopted:
            return completed
        done = dict(completed)
        done.update(adopted)
        return [(c, done[c]) for c in candidates if c in done]

    # ---- the search loop ----------------------------------------------
    def run(self, strategy: SearchStrategy,
            space: MappingSpace) -> SearchResult:
        """Drive one strategy over one space to a ranked result."""
        t_start = time.perf_counter()
        strategy.reset(space)
        pruning = self.prune_to is not None
        phase1_metrics = self.prune_metrics if pruning else self.metrics
        self._supervisor = SweepSupervisor(
            workers=self.workers, timeout=self.timeout,
            max_retries=self.max_retries, backoff=self.retry_backoff,
            key=candidate_key,
        )
        self._n_adopted = 0

        scored: List[Tuple[Candidate, EvaluationResult]] = []
        scores: List[Tuple[Candidate, float]] = []
        seen = set()
        stale_rounds = 0
        n_statically_pruned = 0
        try:
            while True:
                proposal = strategy.propose(space, scores)
                if not proposal:
                    break  # the strategy is done
                batch = []
                for cand in proposal:  # dedup across *and* within batches
                    if cand not in seen:
                        seen.add(cand)
                        batch.append(cand)
                if not batch:
                    # Everything proposed was already evaluated.  The
                    # strategy contract allows that ("harmless but
                    # wasted"), so ask again — bounded, in case a
                    # strategy never produces anything new.
                    stale_rounds += 1
                    if stale_rounds >= MAX_STALE_ROUNDS:
                        break
                    continue
                stale_rounds = 0
                if self.validate != "off":
                    # Static feasibility pre-pass: drop candidates an
                    # error-severity lint rule proves cannot execute,
                    # before phase-1 spends anything pricing them.
                    feasible = []
                    for cand in batch:
                        if self._statically_infeasible(cand):
                            n_statically_pruned += 1
                        else:
                            feasible.append(cand)
                    batch = feasible
                    if not batch:
                        continue  # whole round was infeasible; ask again
                for cand, res in self._evaluate_batch(batch, phase1_metrics,
                                                      phase=1):
                    scored.append((cand, res))
                    scores.append((cand, metric_value(res, self.metric)))
            t_phase1 = time.perf_counter()

            n_repriced = 0
            if pruning and scored:
                k = min(self.prune_to, len(scored))
                # Deterministic top-k: ties break on proposal order.
                by_score = sorted(range(len(scored)),
                                  key=lambda i: (scores[i][1], i))
                keep = {scores[i][0] for i in by_score[:k]}
                candidates = [(c, r) for c, r in scored if c in keep]
                if phase1_metrics == "analytical":
                    # Only the approximate surrogate needs re-pricing;
                    # an exact mode already priced the survivors.
                    candidates = self._evaluate_batch(
                        [c for c, _ in candidates], self.metrics, phase=2)
                    n_repriced = len(candidates)
            else:
                candidates = scored
        finally:
            supervisor = self._supervisor
            supervisor.close()
            self._supervisor = None
        t_end = time.perf_counter()

        return SearchResult(
            candidates=candidates,
            scores=scores,
            strategy=strategy.name,
            metric=self.metric,
            pruned_to=self.prune_to,
            stats={
                "seconds": t_end - t_start,
                "phase1_seconds": t_phase1 - t_start,
                "phase2_seconds": t_end - t_phase1,
                "n_scored": len(scored),
                "n_repriced": n_repriced,
                "statically_pruned": n_statically_pruned,
                "workers": self.workers,
                "executor": supervisor.mode,
                "n_retried": supervisor.retries,
                "n_failed": len(supervisor.failures),
                "n_adopted": self._n_adopted,
                "events": list(supervisor.events),
            },
            failures=list(supervisor.failures),
        )


def search(
    spec: AcceleratorSpec,
    tensors,
    einsum: Optional[str] = None,
    strategy="exhaustive",
    tile_sizes: Optional[Dict[str, Sequence[int]]] = None,
    max_loop_orders: Optional[int] = None,
    metric: str = "exec_seconds",
    prune_to: Optional[int] = None,
    prune_metrics: str = "auto",
    workers: Optional[int] = None,
    seed: int = 0,
    samples: int = 32,
    beam_width: int = 4,
    opset: OpSet = ARITHMETIC,
    shapes: Optional[Dict[str, int]] = None,
    energy_model=None,
    backend=None,
    metrics: str = "auto",
    prep_cache: Optional[PrepCache] = None,
    timeout: Optional[float] = None,
    max_retries: int = 2,
    retry_backoff: float = 0.05,
    cache=None,
    validate: str = "off",
) -> SearchResult:
    """Search one Einsum's mapping space and rank the outcomes.

    ``strategy`` picks the candidate generator: ``"exhaustive"`` (the
    whole space), ``"random"`` (``samples`` seeded draws), ``"beam"``
    (greedy refinement from ``beam_width`` survivors per round), or any
    :class:`~repro.search.strategies.SearchStrategy` instance.

    ``workers`` picks the candidate fan-out (see
    :func:`~repro.model.evaluate.resolve_workers`): 1 evaluates
    serially in-process, more runs a process pool of that size; it
    defaults to :func:`~repro.model.evaluate.default_workers`
    (``REPRO_EVALUATE_WORKERS``, or 1).  Parallel and serial runs
    produce bit-identical candidate lists and rankings.

    ``prune_to=k`` keeps only the best ``k`` candidates as scored by
    ``prune_metrics``: an exact mode (``"auto"``, the priced arena
    kernels, or ``"trace"`` — bit-identical to each other, so the best
    provably survives and nothing is re-priced) or ``"analytical"``,
    which prices candidates from sparsity statistics alone, needs ``k``
    large enough to absorb its documented error bounds, and re-prices
    the ``k`` survivors with ``metrics``; see the module docstring for
    the contract.  Unknown
    ``metrics``/``prune_metrics`` modes raise ``ValueError``.
    ``metric`` picks the ranking scalar: ``"exec_seconds"``,
    ``"cycles"``, ``"traffic"``, or ``"energy"``.

    Every run is *supervised*: ``timeout`` bounds each candidate's
    wall-clock evaluation (it needs ``workers > 1``: a serial sweep
    cannot preempt itself, so ``timeout`` with one worker raises
    ``ValueError``), transient worker failures retry up to
    ``max_retries`` times with ``retry_backoff``-seconded exponential
    backoff, and deterministic spec errors are recorded on
    ``result.failures`` (never retried) instead of killing the sweep.

    ``cache=dir`` (a directory path or a
    :class:`~repro.store.PersistentStore`) makes the sweep read-through
    and write-through a disk-backed cross-process store: every priced
    candidate is published under its durable key (spec fingerprint +
    tensor content digests + metrics mode + opset + shapes), and so is
    every deterministic failure.  Before dispatch, a re-run of the same
    sweep — in this process or any other — adopts the stored results
    and failures bit-identically instead of re-evaluating, counting them
    in ``result.stats["n_adopted"]``.  Arguments without a durable key
    bypass the store with a
    :class:`~repro.model.evaluate.StoreBypassWarning`.

    That makes a cached sweep resumable: each result is committed as
    its candidate is priced, and an interrupted sweep (``Ctrl-C`` drains
    in-flight candidates into the store before the
    ``KeyboardInterrupt`` propagates) finishes when re-run with the
    same ``cache=``, evaluating only what is missing, bit-identically to
    an uninterrupted run.  A re-run over a different spec or workload
    misses and runs cold.

    ``validate`` engages static verification (see
    :func:`~repro.model.evaluate.lint_gate` and
    :mod:`repro.analysis`): the base spec is linted up front
    (``"strict"`` rejects it on error findings, ``"warn"`` warns), and
    every proposed candidate runs through the linter's cheap
    error-severity feasibility subset *before* phase-1 pricing —
    statically-infeasible mappings are dropped without evaluating
    anything, counted in ``result.stats["statically_pruned"]``.  Only
    error rules prune, so the surviving ranking (and the best
    candidate) is bit-identical to an unpruned run.
    """
    runner = SearchRunner(
        spec, tensors, einsum=einsum, opset=opset, shapes=shapes,
        energy_model=energy_model, backend=backend, metrics=metrics,
        metric=metric, workers=workers, prune_to=prune_to,
        prune_metrics=prune_metrics, prep_cache=prep_cache,
        timeout=timeout, max_retries=max_retries,
        retry_backoff=retry_backoff, cache=cache, validate=validate,
    )
    space = MappingSpace.of(_einsum_ranks(spec, runner.einsum),
                            tile_sizes, max_loop_orders)
    strat = resolve_strategy(strategy, seed=seed, samples=samples,
                             beam_width=beam_width)
    return runner.run(strat, space)


def explore_cascade(
    spec: AcceleratorSpec,
    tensors,
    tile_sizes: Optional[Dict[str, Sequence[int]]] = None,
    max_loop_orders: Optional[int] = None,
    strategy="exhaustive",
    metric: str = "exec_seconds",
    prune_to: Optional[int] = None,
    prune_metrics: str = "auto",
    workers: Optional[int] = None,
    seed: int = 0,
    samples: int = 32,
    beam_width: int = 4,
    opset: OpSet = ARITHMETIC,
    shapes: Optional[Dict[str, int]] = None,
    energy_model=None,
    backend=None,
    metrics: str = "auto",
    timeout: Optional[float] = None,
    max_retries: int = 2,
    retry_backoff: float = 0.05,
    validate: str = "off",
) -> CascadeSearchResult:
    """Search every Einsum's mapping in cascade (topological) order,
    carrying the best prefix forward — the paper's future-work rung.

    Einsum ``i`` is searched with Einsums ``0..i-1`` pinned to their
    already-chosen best mappings (and later Einsums at the spec's
    original mappings); every candidate is scored on the *whole
    cascade's* metric, so upstream choices that help downstream Einsums
    win.  ``tile_sizes`` applies per rank wherever that rank appears.

    Returns a :class:`~repro.search.results.CascadeSearchResult` whose
    ``spec`` carries every chosen mapping and whose ``best_result`` is
    the full-cascade evaluation under them.
    """
    out = CascadeSearchResult()
    current = spec
    prep_cache = PrepCache()
    for e in spec.einsum.cascade:
        ranks = [rank_of_var(v) for v in e.all_vars]
        ts = {r: sizes for r, sizes in (tile_sizes or {}).items()
              if r in ranks}
        result = search(
            current, tensors, einsum=e.name, strategy=strategy,
            tile_sizes=ts, max_loop_orders=max_loop_orders, metric=metric,
            prune_to=prune_to, prune_metrics=prune_metrics,
            workers=workers, seed=seed, samples=samples,
            beam_width=beam_width, opset=opset, shapes=shapes,
            energy_model=energy_model, backend=backend, metrics=metrics,
            prep_cache=prep_cache,
            timeout=timeout, max_retries=max_retries,
            retry_backoff=retry_backoff, validate=validate,
        )
        cand, res = result.best(metric)
        current = apply_candidate(current, e.name, cand)
        out.per_einsum[e.name] = result
        out.best_candidates[e.name] = cand
        out.best_result = res
    out.spec = current
    return out
