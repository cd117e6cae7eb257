"""The leased batch job runner (:mod:`repro.search.jobs`).

Lifecycle (submit / poll / claim / drain / gather), bit-identity of a
gathered job against an in-process ``search()``, lease expiry and
takeover with an injected clock (past a corrupt store entry too), a
worker process killed mid-shard, transient errors left to a takeover
rather than recorded, up-front mode checks, tolerance of garbage and
duplicate store writes, the named version error on a
foreign-protocol manifest, and the exact JSON round-trip of the
candidates a shard file lists.
"""

import json
import multiprocessing
import os
import time

import pytest

from faults import FaultPlan, WorkerCrash
from repro.einsum.operators import OpSet
from repro.search import (
    JobError,
    PayloadVersionError,
    claim,
    gather,
    poll,
    run_worker,
    search,
    submit,
)
from repro.search.jobs import candidate_from_json
from repro.search.space import Candidate, candidate_key, candidate_to_json
from repro.spec import load_spec
from repro.store import PersistentStore
from repro.workloads import uniform_random

FORK = multiprocessing.get_start_method() == "fork"

BASE = """
einsum:
  declaration:
    A: [K, M]
    B: [K, N]
    Z: [M, N]
  expressions:
    - Z[m, n] = A[k, m] * B[k, n]
"""

#: One candidate of BASE's 6-candidate untiled space (see
#: test_supervisor.py for the naming convention the fault hook matches).
TARGET = "loop=[K, N, M]"

CAND = Candidate(("K", "M", "N"), (("K", 8),))
OTHER = Candidate(("M", "N", "K"), ())


@pytest.fixture(scope="module")
def tensors():
    return {
        "A": uniform_random("A", ["K", "M"], (24, 20), 0.25, seed=1),
        "B": uniform_random("B", ["K", "N"], (24, 16), 0.25, seed=2),
    }


@pytest.fixture
def plan(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_FAULT_INJECTION", "1")
    p = FaultPlan(str(tmp_path / "faults"))
    os.makedirs(p.root, exist_ok=True)
    p.install()
    yield p
    p.uninstall()


def _fingerprints(result):
    from repro.search.results import metrics_fingerprint

    return [(cand, metrics_fingerprint(res))
            for cand, res in result.candidates]


def _entries(path, namespace="results"):
    """The committed entry files of a job's own store."""
    root = os.path.join(path, "store", "objects", namespace)
    return sorted(os.path.join(d, f) for d, _, files in os.walk(root)
                  for f in files)


class TestCandidateSerialization:
    def test_round_trip_is_exact(self):
        assert candidate_from_json(candidate_to_json(CAND)) == CAND
        assert candidate_from_json(candidate_to_json(OTHER)) == OTHER

    def test_round_trip_through_json_text(self):
        blob = json.dumps(candidate_to_json(CAND))
        assert candidate_from_json(json.loads(blob)) == CAND

    def test_key_is_canonical_and_distinct(self):
        assert candidate_key(CAND) == candidate_key(
            candidate_from_json(candidate_to_json(CAND)))
        assert candidate_key(CAND) != candidate_key(OTHER)


class TestSubmit:
    def test_submit_shards_round_robin(self, tensors, tmp_path):
        path = str(tmp_path / "job")
        manifest = submit(path, load_spec(BASE), tensors, shards=2)
        assert manifest["shards"] == [0, 1]
        assert manifest["n_candidates"] == 6
        shard0 = json.load(open(os.path.join(path, "shards",
                                             "shard-0000.json")))
        assert len(shard0["candidates"]) == 3
        status = poll(path)
        assert status.shards_open == 2
        assert status.candidates_done == 0
        assert not status.done

    def test_more_shards_than_candidates(self, tensors, tmp_path):
        path = str(tmp_path / "job")
        manifest = submit(path, load_spec(BASE), tensors, shards=8)
        assert len(manifest["shards"]) == 6  # empty shards dropped
        assert run_worker(path) == 6
        assert len(gather(path).candidates) == 6

    def test_requires_a_named_opset(self, tensors, tmp_path):
        with pytest.raises(JobError, match="named opset"):
            submit(str(tmp_path / "job"), load_spec(BASE), tensors,
                   opset=OpSet(name="bespoke"))

    def test_missing_manifest_is_a_job_error(self, tmp_path):
        with pytest.raises(JobError, match="manifest"):
            poll(str(tmp_path / "nowhere"))

    @pytest.mark.parametrize("bad, match", [
        ({"metric": "bogus"}, "unknown metric 'bogus'"),
        ({"metrics": "counterz"}, "unknown metrics mode 'counterz'"),
        ({"metrics": "analytical"}, "analytical"),
    ])
    def test_bad_modes_are_rejected_before_writing(self, tensors, tmp_path,
                                                   bad, match):
        path = tmp_path / "job"
        with pytest.raises(ValueError, match=match):
            submit(str(path), load_spec(BASE), tensors, **bad)
        assert not path.exists()


class TestLifecycle:
    def test_claim_lease_and_mutual_exclusion(self, tensors, tmp_path):
        path = str(tmp_path / "job")
        submit(path, load_spec(BASE), tensors, shards=2)
        first = claim(path, worker="w1")
        second = claim(path, worker="w2")
        # Two claimants hold different shards; a third finds none left.
        assert first.shard != second.shard
        assert claim(path, worker="w3") is None
        assert poll(path).shards_leased == 2

    def test_drain_complete_and_poll(self, tensors, tmp_path):
        path = str(tmp_path / "job")
        submit(path, load_spec(BASE), tensors, shards=3)
        assert run_worker(path, worker="w1", max_shards=1) == 1
        status = poll(path)
        assert status.shards_done == 1
        assert status.candidates_done == 2
        assert run_worker(path, worker="w1") == 2
        assert poll(path).done

    def test_gather_is_bit_identical_to_search(self, tensors, tmp_path):
        spec = load_spec(BASE)
        ref = search(spec, tensors, tile_sizes={"K": [8, 24]}, workers=1)
        path = str(tmp_path / "job")
        submit(path, spec, tensors, tile_sizes={"K": [8, 24]}, shards=3)
        run_worker(path)
        job = gather(path)
        assert _fingerprints(job) == _fingerprints(ref)
        assert job.best()[0] == ref.best()[0]
        assert job.stats["n_failed"] == 0

    def test_strict_gather_refuses_unfinished(self, tensors, tmp_path):
        path = str(tmp_path / "job")
        submit(path, load_spec(BASE), tensors, shards=2)
        run_worker(path, max_shards=1)
        with pytest.raises(JobError, match="not finished"):
            gather(path)
        partial = gather(path, strict=False)
        assert len(partial.candidates) == 3

    def test_workers_share_a_store(self, tensors, tmp_path):
        spec = load_spec(BASE)
        path = str(tmp_path / "job")
        cache = str(tmp_path / "cache")
        submit(path, spec, tensors, shards=2, cache=cache)
        run_worker(path)
        job = gather(path)
        ref = search(spec, tensors, workers=1)
        assert _fingerprints(job) == _fingerprints(ref)
        # The job populated the store; a plain cached search now runs warm.
        store = PersistentStore(cache)
        warm = search(spec, tensors, workers=1, cache=store)
        assert _fingerprints(warm) == _fingerprints(ref)
        assert store.stats.hits == len(ref.candidates)
        assert warm.stats["n_adopted"] == len(ref.candidates)
        assert not os.path.exists(os.path.join(path, "store"))

    def test_job_adopts_a_cached_search(self, tensors, tmp_path):
        spec = load_spec(BASE)
        cache = str(tmp_path / "cache")
        ref = search(spec, tensors, workers=1, cache=cache)
        path = str(tmp_path / "job")
        submit(path, spec, tensors, shards=2, cache=cache)
        # Every candidate is already in the shared store: nothing is
        # pending, and gather reads the search's entries back.
        assert poll(path).candidates_done == 6
        first = claim(path, worker="w1")
        assert first.pending == []
        first.complete()
        assert run_worker(path) == 1
        assert _fingerprints(gather(path)) == _fingerprints(ref)


class TestLeaseExpiry:
    def test_stale_lease_is_taken_over_and_work_adopted(
            self, tensors, tmp_path):
        path = str(tmp_path / "job")
        submit(path, load_spec(BASE), tensors, shards=2)
        now = [1000.0]
        clock = lambda: now[0]
        # w1 claims shard 0, publishes one candidate, then goes silent.
        c1 = claim(path, worker="w1", lease_ttl=30.0, clock=clock)
        assert c1.shard == 0 and c1.epoch == 1
        _publish(c1, c1.pending[0], tensors)
        # Within the TTL the lease repels claimants (w1 gets shard 1).
        c2 = claim(path, worker="w2", lease_ttl=30.0, clock=clock)
        assert c2.shard == 1
        assert claim(path, worker="w3", lease_ttl=30.0, clock=clock) is None
        # Past the TTL the lease is stale: w3 takes shard 0 over at the
        # next epoch, adopting the dead worker's one result.
        now[0] += 31.0
        c3 = claim(path, worker="w3", lease_ttl=30.0, clock=clock)
        assert c3.shard == 0
        assert c3.epoch == 2
        assert len(c3.pending) == len(c3.candidates) - 1

    def test_takeover_recomputes_a_corrupt_entry(self, tensors, tmp_path):
        spec = load_spec(BASE)
        ref = search(spec, tensors, workers=1)
        path = str(tmp_path / "job")
        submit(path, spec, tensors, shards=2)
        now = [1000.0]
        clock = lambda: now[0]
        c1 = claim(path, worker="w1", lease_ttl=30.0, clock=clock)
        _publish(c1, c1.pending[0], tensors)
        # The dead worker's one committed entry rots on disk.
        (entry,) = _entries(path)
        blob = open(entry, "rb").read()
        open(entry, "wb").write(blob[: len(blob) // 2])
        now[0] += 31.0
        assert run_worker(path, worker="w2", lease_ttl=30.0,
                          clock=clock) == 2
        # The torn entry was quarantined, its candidate re-evaluated.
        assert len(os.listdir(os.path.join(path, "store",
                                           "quarantine"))) == 2
        job = gather(path)
        assert _fingerprints(job) == _fingerprints(ref)

    def test_heartbeat_keeps_a_slow_worker_alive(self, tensors, tmp_path):
        path = str(tmp_path / "job")
        submit(path, load_spec(BASE), tensors, shards=1)
        now = [0.0]
        clock = lambda: now[0]
        c1 = claim(path, worker="w1", lease_ttl=30.0, clock=clock)
        now[0] += 29.0
        c1.heartbeat()
        now[0] += 29.0  # 58s since claim, 29s since heartbeat: still live
        assert claim(path, worker="w2", lease_ttl=30.0, clock=clock) is None


def _publish(shard_claim, cand, tensors):
    """Evaluate one candidate into a claim's store, as its worker would."""
    from repro.model.evaluate import evaluate
    from repro.search.runner import apply_candidate

    evaluate(apply_candidate(load_spec(BASE), "Z", cand), dict(tensors),
             cache=shard_claim.store)


def _doomed_worker(path):
    run_worker(path, worker="doomed", lease_ttl=30.0)


class TestKilledWorkerProcess:
    @pytest.mark.skipif(not FORK, reason="needs fork start method")
    def test_killed_workers_shard_is_reclaimed_and_completed(
            self, tensors, plan, tmp_path):
        spec = load_spec(BASE)
        ref = search(spec, tensors, workers=1)
        path = str(tmp_path / "job")
        submit(path, spec, tensors, shards=2)
        # The worker process dies (os._exit) entering its second result
        # put: shard 0 is claimed and one candidate committed.
        rule = plan.add("store-put:results", "exit", after=1)
        proc = multiprocessing.Process(target=_doomed_worker, args=(path,))
        proc.start()
        proc.join(120)
        assert proc.exitcode == 13
        assert plan.fired(rule) == 2
        # The dead worker left a live-looking lease behind...
        status = poll(path, lease_ttl=30.0)
        assert status.shards_done == 0
        assert status.shards_leased == 1
        assert status.candidates_done == 1
        # ...which a survivor takes over once it expires (injected
        # clock: no sleeping through a real TTL), evaluating exactly the
        # five candidates the dead worker never committed.
        count = plan.add("accelerator", "count")
        clock = lambda: time.time() + 1000.0
        assert run_worker(path, worker="survivor", lease_ttl=30.0,
                          clock=clock) == 2
        assert plan.fired(count) == 5
        done = json.load(open(os.path.join(path, "done", "shard-0000")))
        assert done["worker"] == "survivor"
        assert done["epoch"] == 2
        job = gather(path)
        assert _fingerprints(job) == _fingerprints(ref)
        assert job.best()[0] == ref.best()[0]


class TestDupTolerance:
    def test_garbage_and_duplicate_lines_are_dropped(
            self, tensors, tmp_path):
        spec = load_spec(BASE)
        ref = search(spec, tensors, workers=1)
        path = str(tmp_path / "job")
        submit(path, spec, tensors, shards=2)
        run_worker(path)
        store = PersistentStore(os.path.join(path, "store"))
        entries = {e: open(e, "rb").read() for e in _entries(path)}
        # Garbage: a foreign file beside the entries and an abandoned
        # temp of a dead writer.
        first = next(iter(entries))
        open(os.path.join(os.path.dirname(first), "junk.bin"),
             "wb").write(b"torn half of a rec")
        open(os.path.join(store.path, "tmp", "4999999-1.tmp"),
             "wb").write(b"x")
        # A duplicate: a presumed-dead worker wakes up and re-publishes
        # a candidate; the committed entry wins and stays on disk.
        from repro.search.runner import apply_candidate

        cand, res = ref.candidates[0]
        key = store.result_key(apply_candidate(spec, "Z", cand), tensors,
                               "auto", "arithmetic", None)
        winner = store.put_result(key, "late copy")
        assert winner != "late copy"
        assert all(open(e, "rb").read() == blob
                   for e, blob in entries.items())
        job = gather(path)
        assert _fingerprints(job) == _fingerprints(ref)
        assert job.candidates[0][1].exec_seconds == winner.exec_seconds
        assert winner.exec_seconds == res.exec_seconds

    def test_foreign_pickle_protocol_raises_named_error(
            self, tensors, tmp_path):
        path = str(tmp_path / "job")
        submit(path, load_spec(BASE), tensors, shards=1)
        manifest_path = os.path.join(path, "manifest.json")
        manifest = json.load(open(manifest_path))
        manifest["pickle_protocol"] = 99
        json.dump(manifest, open(manifest_path, "w"))
        for op in (poll, run_worker, gather):
            with pytest.raises(PayloadVersionError, match="protocol"):
                op(path)


class TestFailures:
    def test_poison_candidate_is_recorded_not_fatal(
            self, tensors, plan, tmp_path):
        spec = load_spec(BASE)
        path = str(tmp_path / "job")
        submit(path, spec, tensors, shards=2)
        plan.add(TARGET, "poison", times=1)
        run_worker(path)
        assert poll(path).done
        job = gather(path)
        assert job.stats["n_failed"] == 1
        assert "poison" in job.failures[0].error
        assert job.failures[0].classification == "deterministic"
        assert len(job.candidates) == 5  # the other five priced normally
        assert len(_entries(path, "failures")) == 1
        ref = search(spec, tensors, workers=1)
        ref_fps = dict(_fingerprints(ref))
        assert all(fp == ref_fps[c] for c, fp in _fingerprints(job))

    def test_transient_error_is_retried_by_a_takeover(
            self, tensors, plan, tmp_path):
        spec = load_spec(BASE)
        ref = search(spec, tensors, workers=1)
        path = str(tmp_path / "job")
        submit(path, spec, tensors, shards=2)
        plan.add(TARGET, "crash", times=1)
        # The worker propagates the transient error and records nothing
        # for the candidate: its lease stays behind to expire.
        with pytest.raises(WorkerCrash):
            run_worker(path, worker="w1", lease_ttl=30.0)
        assert _entries(path, "failures") == []
        assert not poll(path, lease_ttl=30.0).done
        clock = lambda: time.time() + 1000.0
        run_worker(path, worker="w2", lease_ttl=30.0, clock=clock)
        job = gather(path)
        assert job.stats["n_scored"] == 6
        assert job.stats["n_failed"] == 0
        assert _fingerprints(job) == _fingerprints(ref)
