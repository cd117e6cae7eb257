"""Fault-injection coverage of the sweep supervision layer.

Every recovery path of :class:`repro.search.supervisor.SweepSupervisor`
is driven deterministically through the env-gated hook in
``repro.model.executor`` (armed by :class:`faults.FaultPlan`): poison
candidates recorded without retry, transient crashes retried to
bit-identical success, hangs timed out and their pools retired, broken
process pools rebuilt once then finished serially, ``KeyboardInterrupt``
drained into the ``cache=`` store, and killed sweeps finished
bit-identically by a re-run over the results their store kept.  Every
pooled test runs a real two-worker process pool.  No test sleeps to
synchronize: a hung worker blocks until the supervisor kills its
retired pool, and counters are exact across pool worker processes.
"""

import multiprocessing
import os
import warnings

import pytest

from faults import FaultPlan, WorkerCrash
from repro.model import evaluate_many
from repro.search import (
    CandidateTimeoutError,
    SweepDegradationWarning,
    classify_failure,
    metrics_fingerprint,
    search,
)
from repro.fibertree import Tensor
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

#: How ``apply_candidate`` names one specific candidate's spec — rules
#: match on this substring, so faults target exactly one candidate.
TARGET = "loop=[K, N, M]"

FORK = multiprocessing.get_start_method() == "fork"

#: Pool faults need forked workers: they inherit the armed hook and the
#: counter paths.
needs_fork = pytest.mark.skipif(
    not FORK, reason="pool faults rely on fork inheriting the armed hook "
    "and counter paths")

#: Wall-clock budget per candidate in the hang tests.  Two orders of
#: magnitude above a real evaluation (~ms), so only the injected hang —
#: which blocks *forever* — can ever hit it.
TIMEOUT = 1.0


@pytest.fixture(scope="module")
def tensors():
    a = uniform_random("A", ["K", "M"], (24, 20), 0.25, seed=1)
    b = uniform_random("B", ["K", "N"], (24, 16), 0.25, seed=2)
    return {"A": a, "B": b}


@pytest.fixture
def plan(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_FAULT_INJECTION", "1")
    p = FaultPlan(str(tmp_path / "faults"))
    os.makedirs(p.root, exist_ok=True)
    p.install()
    yield p
    p.uninstall()


def _fingerprints(result):
    return [(cand, metrics_fingerprint(res))
            for cand, res in result.candidates]


def _assert_matches_uncached(result, spec, tensors, **kw):
    """``result`` has the candidates, fingerprints and best of an
    uncached run on the same arguments."""
    ref = search(spec, tensors, workers=1, **kw)
    assert _fingerprints(result) == _fingerprints(ref)
    assert result.best()[0] == ref.best()[0]
    assert metrics_fingerprint(result.best()[1]) \
        == metrics_fingerprint(ref.best()[1])


def _entries(path, namespace="results"):
    """The committed entry files of the store at ``path``."""
    root = os.path.join(path, "objects", namespace)
    return sorted(os.path.join(d, f) for d, _, files in os.walk(root)
                  for f in files)


def _cached_sweep(path, tensors):
    """Child: a serial cached sweep, killed by the armed fault rule."""
    search(load_spec(BASE), tensors, workers=1, max_retries=0, cache=path)


class TestSeam:
    def test_hook_refuses_to_arm_without_env_gate(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.delenv("REPRO_FAULT_INJECTION", raising=False)
        p = FaultPlan(str(tmp_path))
        with pytest.raises(RuntimeError, match="REPRO_FAULT_INJECTION"):
            p.install()

    def test_classifier_splits_transient_from_deterministic(self):
        assert classify_failure(ValueError("spec")) == "deterministic"
        assert classify_failure(WorkerCrash("died")) == "transient"
        assert classify_failure(CandidateTimeoutError("slow")) == "transient"


class TestPoison:
    def test_poison_recorded_not_retried(self, plan, tensors):
        spec = load_spec(BASE)
        rule = plan.add(TARGET, "poison", times=99)
        result = search(spec, tensors, workers=1, retry_backoff=0)
        assert len(result.candidates) == 5  # the poisoned one is gone
        assert result.best() is not None    # sweep still ranks the rest
        [failure] = result.failures
        assert failure.classification == "deterministic"
        assert failure.attempts == 1
        assert "injected poison" in failure.error
        assert result.stats["n_retried"] == 0
        assert plan.fired(rule) == 1  # evaluated once, never retried

    @needs_fork
    def test_poison_in_process_pool_same_outcome(self, plan, tensors):
        spec = load_spec(BASE)
        rule = plan.add(TARGET, "poison", times=99)
        result = search(spec, tensors, workers=2, retry_backoff=0)
        assert len(result.candidates) == 5
        assert result.failures[0].classification == "deterministic"
        assert plan.fired(rule) == 1

    def test_rerun_adopts_the_stored_failure(self, plan, tensors,
                                             tmp_path):
        spec = load_spec(BASE)
        path = str(tmp_path / "cache")
        plan.add(TARGET, "poison", times=1)
        first = search(spec, tensors, workers=1, cache=path)
        assert len(first.failures) == 1
        assert len(_entries(path)) == 5
        assert len(_entries(path, "failures")) == 1
        # The poison rule is spent, so a cold run would price the
        # candidate; the re-run re-surfaces the stored failure instead.
        count = plan.add("accelerator", "count")
        rerun = search(spec, tensors, workers=1, cache=path)
        assert plan.fired(count) == 0
        assert rerun.stats["n_adopted"] == 6
        assert [f.key for f in rerun.failures] \
            == [f.key for f in first.failures]
        assert "poison" in rerun.failures[0].error
        assert rerun.failures[0].classification == "deterministic"
        assert _fingerprints(rerun) == _fingerprints(first)


@needs_fork
class TestCrash:
    def test_transient_crash_retried_to_bitidentical_success(self, plan,
                                                             tensors):
        spec = load_spec(BASE)
        baseline = search(spec, tensors, workers=1)  # no rules armed yet
        rule = plan.add(TARGET, "crash", times=1)
        result = search(spec, tensors, workers=2, retry_backoff=0)
        assert len(result.candidates) == 6
        assert not result.failures
        assert result.stats["n_retried"] == 1
        assert plan.fired(rule) == 2  # the crash, then the clean retry
        assert _fingerprints(result) == _fingerprints(baseline)

    def test_crash_exhausts_retry_budget(self, plan, tensors):
        spec = load_spec(BASE)
        rule = plan.add(TARGET, "crash", times=99)
        result = search(spec, tensors, workers=2, max_retries=1,
                        retry_backoff=0)
        assert len(result.candidates) == 5
        [failure] = result.failures
        assert failure.classification == "transient"
        assert failure.kind == "error"
        assert failure.attempts == 2  # the attempt plus one retry
        assert plan.fired(rule) == 2


@needs_fork
class TestHang:
    def test_hang_times_out_then_retry_succeeds(self, plan, tensors):
        spec = load_spec(BASE)
        baseline = search(spec, tensors, workers=1)
        rule = plan.add(TARGET, "hang", times=1)
        result = search(spec, tensors, workers=2, timeout=TIMEOUT,
                        retry_backoff=0)
        assert len(result.candidates) == 6
        assert not result.failures
        assert result.stats["n_retried"] >= 1
        assert plan.fired(rule) == 2  # the hang, then the clean retry
        assert _fingerprints(result) == _fingerprints(baseline)

    def test_hang_exhausts_retries_records_timeout(self, plan, tensors):
        spec = load_spec(BASE)
        plan.add(TARGET, "hang", times=99)
        before = set(multiprocessing.active_children())
        result = search(spec, tensors, workers=2, timeout=TIMEOUT,
                        max_retries=0, retry_backoff=0)
        assert len(result.candidates) == 5
        [failure] = result.failures
        assert failure.kind == "timeout"
        assert failure.classification == "transient"
        assert "wall-clock timeout" in failure.error
        # The sweep's close() killed the hung worker with its retired
        # pool: every worker process the sweep started has exited.
        for proc in set(multiprocessing.active_children()) - before:
            proc.join(5)
            assert proc.exitcode is not None, proc


@needs_fork
class TestBrokenPool:
    def test_broken_pool_rebuilt_once_sweep_completes(self, plan, tensors):
        spec = load_spec(BASE)
        baseline = search(spec, tensors, workers=1)
        rule = plan.add(TARGET, "exit", times=1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = search(spec, tensors, workers=2, retry_backoff=0)
        assert len(result.candidates) == 6
        assert not result.failures
        assert "process-pool-rebuilt" in result.stats["events"]
        assert "degraded-to-serial" not in result.stats["events"]
        degradations = [c for c in caught
                        if issubclass(c.category, SweepDegradationWarning)]
        assert len(degradations) == 1
        assert "rebuilding" in str(degradations[0].message)
        assert plan.fired(rule) >= 2  # the kill, then a clean retry
        assert _fingerprints(result) == _fingerprints(baseline)

    def test_second_breakage_degrades_to_serial(self, plan, tensors):
        spec = load_spec(BASE)
        baseline = search(spec, tensors, workers=1)
        plan.add(TARGET, "exit", times=2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = search(spec, tensors, workers=2, retry_backoff=0)
        assert len(result.candidates) == 6
        assert not result.failures
        events = result.stats["events"]
        assert events.count("process-pool-rebuilt") == 1
        assert events.count("degraded-to-serial") == 1
        assert result.stats["executor"] == "serial"  # finished degraded
        degradations = [c for c in caught
                        if issubclass(c.category, SweepDegradationWarning)]
        assert len(degradations) == 2
        assert _fingerprints(result) == _fingerprints(baseline)


class TestInterrupt:
    @needs_fork
    def test_interrupt_drains_finalizes_and_resumes(self, plan, tensors,
                                                    tmp_path):
        spec = load_spec(BASE)
        baseline = search(spec, tensors, workers=1)
        path = str(tmp_path / "cache")
        plan.add(TARGET, "interrupt", times=1)
        with pytest.raises(KeyboardInterrupt):
            search(spec, tensors, workers=2, cache=path, retry_backoff=0)
        # Every drained in-flight result was committed to the store
        # before the interrupt propagated.
        drained = len(_entries(path))
        assert drained >= 1
        # The re-run completes the sweep bit-identically (the interrupt
        # rule is spent, so the re-evaluated candidate prices cleanly).
        count = plan.add("accelerator", "count")
        resumed = search(spec, tensors, workers=1, cache=path)
        assert resumed.stats["n_adopted"] == drained
        assert plan.fired(count) == 6 - drained  # only the rest
        assert _fingerprints(resumed) == _fingerprints(baseline)
        assert resumed.best()[0] == baseline.best()[0]

    def test_serial_interrupt_finalizes_journal(self, plan, tensors,
                                                tmp_path):
        # A serial run stopped mid-sweep leaves the store consistent: a
        # re-run adopts exactly the committed candidates, prices only
        # the rest, and matches an uninterrupted sweep.
        spec = load_spec(BASE)
        baseline = search(spec, tensors, workers=1)
        path = str(tmp_path / "cache")
        plan.add(TARGET, "interrupt", times=1)
        with pytest.raises(KeyboardInterrupt):
            search(spec, tensors, workers=1, cache=path)
        committed = len(_entries(path))
        assert 1 <= committed < 6
        count = plan.add("accelerator", "count")
        resumed = search(spec, tensors, workers=1, cache=path)
        assert resumed.stats["n_adopted"] == committed
        assert plan.fired(count) == 6 - committed
        assert _fingerprints(resumed) == _fingerprints(baseline)

    def test_serial_interrupt_commits_finished(self, plan, tensors,
                                               tmp_path):
        # Every result is committed as its candidate is priced: a run
        # stopped mid-sweep leaves each finished candidate readable by
        # any other handle (or process).
        spec = load_spec(BASE)
        path = str(tmp_path / "cache")
        plan.add(TARGET, "interrupt", times=1)
        with pytest.raises(KeyboardInterrupt):
            search(spec, tensors, workers=1, cache=path)
        committed = _entries(path)
        assert 1 <= len(committed) < 6
        store = PersistentStore(path)
        for entry in committed:
            key = os.path.basename(entry)[:-len(".bin")]
            assert store.get_result(key).exec_seconds > 0


class TestKillAndResume:
    def _drop_entries(self, path, keep):
        """Replay a mid-run kill by hand: delete every committed result
        entry of the store but ``keep``."""
        entries = _entries(path)
        assert len(entries) > keep
        for entry in entries[keep:]:
            os.remove(entry)

    def test_truncated_journal_resumes_bit_identically(self, plan, tensors,
                                                       tmp_path):
        spec = load_spec(BASE)
        baseline = search(spec, tensors, workers=1)
        path = str(tmp_path / "cache")
        full = search(spec, tensors, workers=1, cache=path)
        assert len(full.candidates) == 6
        self._drop_entries(path, keep=3)

        rule = plan.add("accelerator", "count")  # counts every evaluation
        resumed = search(spec, tensors, workers=1, cache=path)
        # Only the candidates whose entries were lost were re-evaluated.
        assert resumed.stats["n_adopted"] == 3
        assert plan.fired(rule) == 3
        assert _fingerprints(resumed) == _fingerprints(baseline)
        assert resumed.best()[0] == baseline.best()[0]
        assert metrics_fingerprint(resumed.best()[1]) \
            == metrics_fingerprint(baseline.best()[1])

    @pytest.mark.skipif(not FORK, reason="needs fork start method")
    def test_killed_sweep_resumes_bit_identically(self, plan, tensors,
                                                  tmp_path):
        spec = load_spec(BASE)
        baseline = search(spec, tensors, workers=1)
        path = str(tmp_path / "cache")
        # The sweep process dies (os._exit) entering its fourth result
        # put: three candidates are committed, the fourth never is.
        kill = plan.add("store-put:results", "exit", after=3)
        proc = multiprocessing.Process(target=_cached_sweep,
                                       args=(path, tensors))
        proc.start()
        proc.join(120)
        assert proc.exitcode == 13
        assert plan.fired(kill) == 4
        assert len(_entries(path)) == 3

        rule = plan.add("accelerator", "count")
        resumed = search(spec, tensors, workers=1, cache=path)
        assert resumed.stats["n_adopted"] == 3
        assert plan.fired(rule) == 3  # exactly the missing candidates
        assert _fingerprints(resumed) == _fingerprints(baseline)
        assert metrics_fingerprint(resumed.best()[1]) \
            == metrics_fingerprint(baseline.best()[1])

    def test_pruned_sweep_resumes_phase2_bit_identically(self, plan,
                                                         tensors, tmp_path):
        spec = load_spec(BUFFERED)
        pruned = dict(workers=1, prune_to=2, prune_metrics="analytical")
        baseline = search(spec, tensors, **pruned)
        path = str(tmp_path / "cache")
        full = search(spec, tensors, cache=path, **pruned)
        assert len(full.candidates) == 2
        # The store holds only the two exact phase-2 results (analytical
        # scores are never stored); lose one of them.
        self._drop_entries(path, keep=1)

        rule = plan.add("accelerator", "count")
        resumed = search(spec, tensors, cache=path, **pruned)
        # Phase 1 is re-priced analytically (it executes nothing), one
        # survivor is adopted, and only the lost one is re-evaluated.
        assert resumed.stats["n_adopted"] == 1
        assert plan.fired(rule) == 1
        assert resumed.scores == baseline.scores
        assert _fingerprints(resumed) == _fingerprints(baseline)

    def test_rerun_under_different_sweep_matches_uncached(self, tensors,
                                                          tmp_path):
        """Result keys are content digests, so a re-run on the same
        store under different arguments can never adopt a wrong result:
        a different metric re-ranks the same stored results, and a
        different workload misses and runs cold."""
        spec = load_spec(BASE)
        path = str(tmp_path / "cache")
        search(spec, tensors, workers=1, cache=path)
        energy = search(spec, tensors, workers=1, metric="energy",
                        cache=path)
        _assert_matches_uncached(energy, spec, tensors, metric="energy")
        assert energy.stats["n_adopted"] == 6
        other = {
            "A": uniform_random("A", ["K", "M"], (12, 10), 0.5, seed=7),
            "B": uniform_random("B", ["K", "N"], (12, 8), 0.5, seed=8),
        }
        rerun = search(spec, other, workers=1, cache=path)
        _assert_matches_uncached(rerun, spec, other)
        assert rerun.stats["n_adopted"] == 0

    def test_rerun_against_same_shape_different_values_misses(
            self, tensors, tmp_path):
        """Same rank ids, shape, and nnz but different values is a
        different workload: the content digest must miss rather than
        adopt the old results."""
        spec = load_spec(BASE)
        path = str(tmp_path / "cache")
        search(spec, tensors, workers=1, cache=path)
        orig = tensors["A"]
        a = Tensor.from_coo("A", orig.rank_ids,
                            [(p, v + 1.0) for p, v in orig.points().items()],
                            shape=orig.shape)
        assert a.nnz == tensors["A"].nnz and a.shape == tensors["A"].shape
        assert a.points() != tensors["A"].points()
        other = {"A": a, "B": tensors["B"]}
        rerun = search(spec, other, workers=1, cache=path)
        _assert_matches_uncached(rerun, spec, other)
        assert rerun.stats["n_adopted"] == 0


@needs_fork
class TestEvaluateManySupervision:
    def _workloads(self, n=4):
        return [
            {"A": uniform_random("A", ["K", "M"], (24, 20), 0.25, seed=s),
             "B": uniform_random("B", ["K", "N"], (24, 16), 0.25,
                                 seed=s + 100)}
            for s in range(n)
        ]

    def test_transient_crash_retried(self, plan):
        spec = load_spec(BASE)
        workloads = self._workloads()
        baseline = evaluate_many(spec, workloads, workers=1)
        rule = plan.add("accelerator", "crash", times=1)
        results = evaluate_many(spec, workloads, workers=2,
                                retry_backoff=0)
        assert len(results) == len(workloads)
        assert plan.fired(rule) == len(workloads) + 1  # one retry
        assert [metrics_fingerprint(r) for r in results] \
            == [metrics_fingerprint(r) for r in baseline]

    def test_deterministic_failure_reraises(self, plan):
        spec = load_spec(BASE)
        plan.add("accelerator", "poison", times=99)
        with pytest.raises(ValueError, match="injected poison"):
            evaluate_many(spec, self._workloads(), workers=2,
                          retry_backoff=0)

    def test_exhausted_timeout_reraises(self, plan):
        spec = load_spec(BASE)
        plan.add("accelerator", "hang", times=1)
        with pytest.raises(CandidateTimeoutError):
            evaluate_many(spec, self._workloads(2), workers=2,
                          timeout=TIMEOUT, max_retries=0, retry_backoff=0)

    def test_pool_wider_than_the_batch_matches_serial(self):
        # The pool is sized to the two workloads, not to workers=6.
        spec = load_spec(BASE)
        workloads = self._workloads(2)
        serial = evaluate_many(spec, workloads, workers=1)
        pooled = evaluate_many(spec, workloads, workers=6)
        assert [metrics_fingerprint(r) for r in pooled] \
            == [metrics_fingerprint(r) for r in serial]

    def test_one_workload_batch_still_times_out(self, plan):
        # A one-item batch with a timeout runs on the pool, where the
        # hang can be preempted, not in-process, where it could not.
        spec = load_spec(BASE)
        plan.add("accelerator", "hang", times=1)
        with pytest.raises(CandidateTimeoutError):
            evaluate_many(spec, self._workloads(1), workers=2,
                          timeout=TIMEOUT, max_retries=0, retry_backoff=0)


def _square(x):
    return x * x


@needs_fork
class TestPoolSizing:
    def test_pool_forks_no_more_workers_than_the_batch_has_items(self):
        from repro.search.supervisor import SweepSupervisor

        sup = SweepSupervisor(workers=6)
        try:
            got = sup.run_batch([2, 3], _square, payload=lambda x: x,
                                process_worker=_square)
            assert got == [(2, 4), (3, 9)]
            assert len(sup._process_pool._processes) == 2
            # A later, larger batch rebuilds the idle pool at its size.
            got = sup.run_batch(range(4), _square, payload=lambda x: x,
                                process_worker=_square)
            assert got == [(i, i * i) for i in range(4)]
            assert len(sup._process_pool._processes) == 4
        finally:
            sup.close()


class TestTimeoutNeedsAPool:
    def test_serial_timeout_is_rejected_up_front(self, plan, tensors):
        """A serial call cannot be preempted, so a timeout there is
        refused before anything runs instead of being ignored."""
        spec = load_spec(BASE)
        rule = plan.add("accelerator", "count")
        with pytest.raises(ValueError, match="cannot be preempted"):
            evaluate_many(spec, [tensors], workers=1, timeout=TIMEOUT)
        with pytest.raises(ValueError, match="cannot be preempted"):
            search(spec, tensors, timeout=TIMEOUT)
        assert plan.fired(rule) == 0


class TestArgumentChecks:
    def test_unknown_metric_raises_before_evaluating(self, plan, tensors):
        rule = plan.add("accelerator", "count")
        with pytest.raises(ValueError, match="unknown metric 'bogus'"):
            search(load_spec(BASE), tensors, workers=1, metric="bogus")
        assert plan.fired(rule) == 0


class TestDecorrelatedJitter:
    def _supervisor(self, **kw):
        import random

        from repro.search.supervisor import SweepSupervisor

        kw.setdefault("rng", random.Random(7))
        kw.setdefault("backoff", 0.05)
        return SweepSupervisor(workers=1, **kw)

    def test_seeded_rng_makes_the_schedule_deterministic(self):
        import random

        a = self._supervisor(rng=random.Random(42))
        b = self._supervisor(rng=random.Random(42))
        schedule = [a._backoff_for(i) for i in range(1, 8)]
        assert schedule == [b._backoff_for(i) for i in range(1, 8)]
        # ...and a different seed decorrelates two supervisors that
        # fail at the same instants.
        c = self._supervisor(rng=random.Random(43))
        assert schedule != [c._backoff_for(i) for i in range(1, 8)]

    def test_values_stay_within_base_and_cap(self):
        sup = self._supervisor(backoff_cap=0.4)
        for i in range(1, 50):
            value = sup._backoff_for(i)
            assert 0.05 <= value <= 0.4

    def test_cap_bounds_the_growth(self):
        sup = self._supervisor(backoff_cap=0.12)
        values = [sup._backoff_for(i) for i in range(1, 30)]
        assert max(values) <= 0.12
        # The schedule actually reaches the cap: growth is real.
        assert any(v > 0.1 for v in values)

    def test_zero_backoff_disables_sleeping_entirely(self):
        sup = self._supervisor(backoff=0)
        assert all(sup._backoff_for(i) == 0.0 for i in range(1, 5))

    def test_retries_sleep_jittered_durations(self):
        """End to end through ``run_batch``: a transiently failing item's
        retries sleep positive, non-identical, capped durations drawn
        from the injected schedule — and the item still completes."""
        import random

        from repro.search.supervisor import SweepSupervisor

        slept = []
        failures = [3]  # transient failures before the item succeeds

        def flaky(item):
            if failures[0] > 0:
                failures[0] -= 1
                raise RuntimeError("injected transient failure")
            return item * 10

        sup = SweepSupervisor(workers=1, backoff=0.05, max_retries=3,
                              rng=random.Random(7),
                              sleep=slept.append)
        results = sup.run_batch([1], flaky)
        assert results == [(1, 10)]
        assert len(slept) == 3
        assert all(0.05 <= s <= sup.backoff_cap for s in slept)
        assert len(set(slept)) > 1  # jitter: not a constant schedule
