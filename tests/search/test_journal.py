"""Sweep-journal behavior: atomic manifests and status files, resume
identity checks, candidate round-trips, and per-candidate results
checkpointed in (and resumed from) the journal's result store."""

import json
import os

import pytest

from faults import FaultPlan
from repro.search import metrics_fingerprint, search
from repro.search.journal import (
    MANIFEST_NAME,
    JournalError,
    ResumeMismatchError,
    candidate_from_json,
    candidate_key,
    candidate_to_json,
    check_manifest,
    finish_run,
    read_status,
    start_run,
    strategy_signature,
)
from repro.search.space import Candidate, apply_candidate
from repro.search.strategies import RandomSearch
from repro.spec import load_spec
from repro.store import PayloadVersionError, PersistentStore
from repro.workloads import uniform_random

CAND = Candidate(("K", "M", "N"), (("K", 8),))
OTHER = Candidate(("M", "N", "K"), ())

MANIFEST = {
    "spec_fingerprint": "abc123",
    "workloads": {"A": {"rank_ids": ["K", "M"], "shape": [4, 4], "nnz": 7}},
    "einsum": "Z",
    "metric": "exec_seconds",
    "metrics": "auto",
    "prune_metrics": None,
    "prune_to": None,
    "strategy": {"name": "exhaustive"},
    "store": "store",
}

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
    return [(cand, metrics_fingerprint(res))
            for cand, res in result.candidates]


def _entries(path, namespace="results"):
    root = os.path.join(path, "store", "objects", namespace)
    return sorted(os.path.join(d, f) for d, _, files in os.walk(root)
                  for f in files)


def _result_key(store, tensors, cand):
    return store.result_key(apply_candidate(load_spec(BASE), "Z", cand),
                            tensors, "auto", "arithmetic", None)


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

    def test_strategy_signature_captures_public_scalars(self):
        sig = strategy_signature(RandomSearch(samples=5, seed=9))
        assert sig["name"] == "random"
        assert sig["samples"] == 5
        assert sig["seed"] == 9
        assert not any(k.startswith("_") for k in sig)


class TestCreate:
    def test_manifest_written_atomically_no_tmp_left(self, tmp_path):
        path = str(tmp_path / "sweep")
        start_run(path, MANIFEST)
        assert os.listdir(path) == [MANIFEST_NAME]
        on_disk = json.load(open(os.path.join(path, MANIFEST_NAME)))
        assert on_disk == MANIFEST

    def test_create_truncates_previous_journal(self, tmp_path):
        # A new run replaces the manifest and clears the previous run's
        # status, so a stale "complete" never describes a live run.
        path = str(tmp_path / "sweep")
        start_run(path, MANIFEST)
        finish_run(path, "complete")
        changed = dict(MANIFEST, metric="energy")
        start_run(path, changed)
        assert read_status(path) is None
        assert check_manifest(path, changed)["metric"] == "energy"

    def test_appends_flush_per_record(self, plan, tensors, tmp_path):
        # Every result is committed as its candidate is priced: a run
        # stopped mid-sweep leaves each finished candidate readable by
        # any other handle (or process).
        path = str(tmp_path / "sweep")
        plan.add(TARGET, "interrupt", times=1)
        with pytest.raises(KeyboardInterrupt):
            search(load_spec(BASE), tensors, workers=1, journal=path)
        committed = _entries(path)
        assert 1 <= len(committed) < 6
        store = PersistentStore(os.path.join(path, "store"))
        for entry in committed:
            key = os.path.basename(entry)[:-len(".bin")]
            assert store.get_result(key).exec_seconds > 0


class TestResume:
    def test_resume_requires_manifest(self, tensors, tmp_path):
        with pytest.raises(JournalError, match="no sweep manifest"):
            check_manifest(str(tmp_path / "nowhere"), MANIFEST)
        with pytest.raises(JournalError, match="no sweep manifest"):
            search(load_spec(BASE), tensors, workers=1,
                   resume=str(tmp_path / "nowhere"))

    def test_resume_loads_records(self, plan, tensors, tmp_path):
        # Stored results *and* stored deterministic failures are adopted.
        spec = load_spec(BASE)
        path = str(tmp_path / "sweep")
        plan.add(TARGET, "poison", times=1)
        first = search(spec, tensors, workers=1, journal=path)
        assert len(first.failures) == 1
        assert len(_entries(path)) == 5
        assert len(_entries(path, "failures")) == 1
        # The poison rule is spent, so a re-run would price the
        # candidate; resume re-surfaces the stored failure instead.
        count = plan.add("accelerator", "count")
        resumed = search(spec, tensors, workers=1, resume=path)
        assert plan.fired(count) == 0
        assert resumed.stats["n_adopted"] == 6
        assert [f.key for f in resumed.failures] \
            == [f.key for f in first.failures]
        assert "poison" in resumed.failures[0].error
        assert resumed.failures[0].classification == "deterministic"
        assert _fingerprints(resumed) == _fingerprints(first)

    def test_resume_tolerates_truncated_tail(self, tensors, tmp_path):
        # A torn entry is quarantined and its candidate re-evaluated.
        spec = load_spec(BASE)
        baseline = search(spec, tensors, workers=1)
        path = str(tmp_path / "sweep")
        search(spec, tensors, workers=1, journal=path)
        entry = _entries(path)[0]
        blob = open(entry, "rb").read()
        open(entry, "wb").write(blob[: len(blob) - 17])
        resumed = search(spec, tensors, workers=1, resume=path)
        assert resumed.stats["n_adopted"] == 5
        assert _fingerprints(resumed) == _fingerprints(baseline)
        quarantine = os.listdir(os.path.join(path, "store", "quarantine"))
        assert len(quarantine) == 2  # the torn bytes plus a .reason
        assert len(_entries(path)) == 6  # healed by the re-evaluation

    def test_resume_appends_after_adopted_records(self, tensors, tmp_path):
        spec = load_spec(BASE)
        path = str(tmp_path / "sweep")
        search(spec, tensors, workers=1, journal=path)
        for entry in _entries(path)[:2]:
            os.remove(entry)
        resumed = search(spec, tensors, workers=1, resume=path)
        assert resumed.stats["n_adopted"] == 4
        # The re-evaluated candidates were published to the same store,
        # so the next resume adopts everything.
        assert len(_entries(path)) == 6
        again = search(spec, tensors, workers=1, resume=path)
        assert again.stats["n_adopted"] == 6

    def test_mismatched_identity_raises_naming_fields(self, tmp_path):
        path = str(tmp_path / "sweep")
        start_run(path, MANIFEST)
        changed = dict(MANIFEST, metric="energy",
                       spec_fingerprint="different")
        with pytest.raises(ResumeMismatchError) as err:
            check_manifest(path, changed)
        message = str(err.value)
        assert "metric" in message and "spec_fingerprint" in message

    def test_audit_fields_may_differ(self, tmp_path):
        path = str(tmp_path / "sweep")
        start_run(path, MANIFEST)
        changed = dict(MANIFEST, workers=64, timeout=1.0,
                       library_version="0.0.0", store="/elsewhere")
        check_manifest(path, changed)  # no raise

    def test_corrupt_manifest_raises(self, tmp_path):
        path = str(tmp_path / "sweep")
        start_run(path, MANIFEST)
        open(os.path.join(path, MANIFEST_NAME), "w").write("{not json")
        with pytest.raises(JournalError, match="not valid JSON"):
            check_manifest(path, MANIFEST)


class TestFinalize:
    def test_finalize_appends_terminal_record(self, tmp_path):
        path = str(tmp_path / "sweep")
        start_run(path, MANIFEST)
        finish_run(path, "complete", best_key=candidate_key(CAND),
                   fingerprint="fp")
        assert read_status(path) == {"status": "complete",
                                     "best_key": candidate_key(CAND),
                                     "fingerprint": "fp"}

    def test_interrupted_status_round_trips(self, tmp_path):
        path = str(tmp_path / "sweep")
        start_run(path, MANIFEST)
        finish_run(path, "interrupted")
        assert read_status(path) == {"status": "interrupted"}

    def test_payload_round_trips_objects(self, tensors, tmp_path):
        # Each stored result reads back bit-identical through a fresh
        # store handle.
        spec = load_spec(BASE)
        path = str(tmp_path / "sweep")
        result = search(spec, tensors, workers=1, journal=path)
        store = PersistentStore(os.path.join(path, "store"))
        for cand, res in result.candidates:
            stored = store.get_result(_result_key(store, tensors, cand))
            assert metrics_fingerprint(stored) == metrics_fingerprint(res)


class TestDurabilityPolicy:
    def test_default_syncs_every_append(self, tensors, tmp_path,
                                        monkeypatch):
        import repro.store.persistent as persistent

        syncs = []
        real_fsync = persistent.os.fsync
        monkeypatch.setattr(persistent.os, "fsync",
                            lambda fd: syncs.append(real_fsync(fd)))
        search(load_spec(BASE), tensors, workers=1,
               journal=str(tmp_path / "sweep"))
        # One per result entry, plus the manifest and the status file.
        assert len(syncs) == 6 + 2


class TestPayloadVersionStamp:
    def test_resume_names_a_foreign_protocol(self, tensors, tmp_path):
        # Each store entry stamps its own pickle protocol; a payload
        # this interpreter cannot unpickle raises the named error.
        from repro.store.persistent import ENTRY_MAGIC

        spec = load_spec(BASE)
        path = str(tmp_path / "sweep")
        search(spec, tensors, workers=1, journal=path)
        entry = _entries(path)[0]
        blob = open(entry, "rb").read()
        start = len(ENTRY_MAGIC) + 8
        size = int.from_bytes(blob[len(ENTRY_MAGIC):start], "big")
        meta = json.loads(blob[start:start + size])
        meta["pickle_protocol"] = 99
        header = json.dumps(meta).encode()
        open(entry, "wb").write(ENTRY_MAGIC + len(header).to_bytes(8, "big")
                                + header + blob[start + size:])
        with pytest.raises(PayloadVersionError, match="protocol 99"):
            search(spec, tensors, workers=1, resume=path)

    def test_protocol_is_not_an_identity_field(self, tmp_path):
        # Stamps an older library wrote into its manifest (format and
        # pickle protocol) are audit data, not identity: resume accepts
        # them.
        path = str(tmp_path / "sweep")
        start_run(path, dict(MANIFEST, format_version=1, pickle_protocol=2))
        assert check_manifest(path, MANIFEST)["pickle_protocol"] == 2
