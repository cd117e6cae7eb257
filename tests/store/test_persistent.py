"""Durability contract of :class:`repro.store.PersistentStore`.

Every claim of the store's module docstring is driven here: atomic
commits (a kill between temp-write and replace leaves a readable store
and a clean miss), self-verifying entries (truncation, bit rot, and
foreign files quarantine and miss instead of crashing), setdefault-style
adoption under racing writers, clean version misses, and the named
:class:`~repro.store.PayloadVersionError` for unreadable payloads.
"""

import multiprocessing
import os
import pickle

import pytest

from faults import FaultPlan, WorkerCrash
from repro.store import (
    MISS,
    CorruptEntryError,
    PayloadVersionError,
    PersistentStore,
    read_entry,
    resolve_store,
    write_entry,
    entry_meta,
)
from repro.store.persistent import ENTRY_MAGIC, STORE_FORMAT_VERSION

FORK = multiprocessing.get_start_method() == "fork"


@pytest.fixture
def store(tmp_path):
    return PersistentStore(str(tmp_path / "store"))


@pytest.fixture
def plan(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_FAULT_INJECTION", "1")
    p = FaultPlan(str(tmp_path / "faults"))
    os.makedirs(p.root, exist_ok=True)
    p.install()
    yield p
    p.uninstall()


def _entry_path(store, ns, key):
    return store._entry_path(ns, key)


KEY = "a" * 64
OTHER = "b" * 64


class TestRoundTrip:
    def test_put_get_round_trip(self, store):
        value = {"metrics": [1.0, 2.5], "name": "hello"}
        assert store.put("results", KEY, value) is value
        assert store.get("results", KEY) == value
        assert store.stats.puts == 1
        assert store.stats.hits == 1

    def test_absent_key_is_a_miss(self, store):
        assert store.get("results", KEY) is MISS
        assert store.stats.misses == 1

    def test_stored_none_is_not_a_miss(self, store):
        store.put("results", KEY, None)
        assert store.get("results", KEY) is None

    def test_namespaces_are_disjoint(self, store):
        store.put("results", KEY, "in-results")
        assert store.get("failures", KEY) is MISS

    def test_handles_share_entries(self, store):
        store.put("results", KEY, [1, 2, 3])
        other = PersistentStore(store.path)
        assert other.get("results", KEY) == [1, 2, 3]


class TestAdoption:
    def test_second_writer_adopts_the_committed_winner(self, store):
        first = store.put("results", KEY, {"v": 1})
        second = store.put("results", KEY, {"v": 2})
        # setdefault semantics: the stored winner is returned, the
        # loser's (here: different) value is discarded.
        assert second == first == {"v": 1}
        assert store.stats.puts == 1
        assert store.stats.adopted == 1
        assert store.get("results", KEY) == {"v": 1}


class TestCorruption:
    def _corrupt(self, store, mutate):
        store.put("results", KEY, {"payload": list(range(100))})
        path = _entry_path(store, "results", KEY)
        with open(path, "rb") as fh:
            blob = fh.read()
        with open(path, "wb") as fh:
            fh.write(mutate(blob))
        return path

    def test_truncated_entry_quarantines_and_misses(self, store):
        path = self._corrupt(store, lambda b: b[:len(b) // 2])
        assert store.get("results", KEY) is MISS
        assert store.stats.corrupt_quarantined == 1
        assert not os.path.exists(path)
        qdir = os.path.join(store.path, "quarantine")
        names = os.listdir(qdir)
        assert any(KEY in n and not n.endswith(".reason") for n in names)
        assert any(n.endswith(".reason") for n in names)

    def test_bad_magic_quarantines(self, store):
        self._corrupt(store, lambda b: b"GARBAGE!" + b[8:])
        assert store.get("results", KEY) is MISS
        assert store.stats.corrupt_quarantined == 1

    def test_flipped_payload_byte_fails_checksum(self, store):
        self._corrupt(store, lambda b: b[:-3] + bytes([b[-3] ^ 0xFF])
                      + b[-2:])
        assert store.get("results", KEY) is MISS
        assert store.stats.corrupt_quarantined == 1

    def test_quarantined_entry_heals_by_recompute(self, store):
        self._corrupt(store, lambda b: b[:20])
        assert store.get("results", KEY) is MISS
        store.put("results", KEY, "healed")
        assert store.get("results", KEY) == "healed"

    def test_unpicklable_checksummed_payload_is_a_version_miss(
            self, store):
        path = _entry_path(store, "results", KEY)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        payload = b"not a pickle at all"
        write_entry(path + ".tmp", path, payload,
                    entry_meta(payload, protocol=2))
        assert store.get("results", KEY) is MISS
        assert store.stats.version_misses == 1
        assert store.stats.corrupt_quarantined == 1  # kept for post-mortem


class TestVersioning:
    def _write_stamped(self, store, meta_patch):
        path = _entry_path(store, "results", KEY)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        payload = pickle.dumps("value", protocol=2)
        meta = entry_meta(payload, protocol=2)
        meta.update(meta_patch)
        write_entry(path + ".tmp", path, payload, meta)
        return path

    def test_other_library_version_misses_cleanly(self, store):
        path = self._write_stamped(store, {"library_version": "0.0.0-other"})
        assert store.get("results", KEY) is MISS
        assert store.stats.version_misses == 1
        assert store.stats.corrupt_quarantined == 0
        assert os.path.exists(path)  # stale, not corrupt: left in place
        # ...and a recompute overwrites it in place.
        store.put("results", KEY, "recomputed")
        assert store.get("results", KEY) == "recomputed"

    def test_other_format_version_misses_cleanly(self, store):
        self._write_stamped(
            store, {"format_version": STORE_FORMAT_VERSION + 1})
        assert store.get("results", KEY) is MISS
        assert store.stats.version_misses == 1

    def test_unreadable_pickle_protocol_raises_named_error(self, store):
        self._write_stamped(
            store, {"pickle_protocol": pickle.HIGHEST_PROTOCOL + 7})
        with pytest.raises(PayloadVersionError,
                           match=r"pickle protocol"):
            store.get("results", KEY)

    def test_read_entry_verifies_before_returning(self, store):
        store.put("results", KEY, "x")
        meta, payload = read_entry(_entry_path(store, "results", KEY))
        assert meta["format_version"] == STORE_FORMAT_VERSION
        assert pickle.loads(payload) == "x"
        with pytest.raises(CorruptEntryError):
            read_entry(os.path.join(store.path, "objects"))  # a directory


class TestTempHygiene:
    def test_dead_writer_temps_are_reaped(self, store):
        tmp_dir = os.path.join(store.path, "tmp")
        # A pid that cannot exist: beyond pid_max on any Linux config.
        dead = os.path.join(tmp_dir, "4999999-1.tmp")
        with open(dead, "wb") as fh:
            fh.write(b"abandoned")
        live = os.path.join(tmp_dir, f"{os.getpid()}-99.tmp")
        with open(live, "wb") as fh:
            fh.write(b"in flight")
        PersistentStore(store.path)  # fresh handle reaps on open
        assert not os.path.exists(dead)
        assert os.path.exists(live)


class TestKillMidWrite:
    def test_crash_between_temp_and_replace_leaves_store_readable(
            self, store, plan):
        plan.add("store-commit", "crash", times=1)
        with pytest.raises(WorkerCrash):
            store.put("results", KEY, {"v": 1})
        # Nothing was published; the store misses cleanly and heals.
        assert store.get("results", KEY) is MISS
        assert store.stats.corrupt_quarantined == 0
        assert store.put("results", KEY, {"v": 1}) == {"v": 1}
        assert store.get("results", KEY) == {"v": 1}

    def test_crash_at_put_entry_writes_nothing(self, store, plan):
        plan.add("store-put:results", "crash", times=1)
        with pytest.raises(WorkerCrash):
            store.put("results", KEY, "x")
        assert os.listdir(os.path.join(store.path, "tmp")) == []
        store.put("results", KEY, "x")
        assert store.get("results", KEY) == "x"

    @pytest.mark.skipif(not FORK, reason="needs fork start method")
    def test_killed_writer_process_leaves_no_entry_and_heals(
            self, store, plan):
        plan.add("store-commit", "exit", times=1)

        def writer(path):
            PersistentStore(path).put("results", KEY, {"v": "child"})

        proc = multiprocessing.Process(target=writer, args=(store.path,))
        proc.start()
        proc.join(30)
        assert proc.exitcode == 13  # killed at the injected site
        # The kill landed after the temp write, before the replace:
        # no published entry, only temp garbage from a dead pid.
        assert store.get("results", KEY) is MISS
        tmp_dir = os.path.join(store.path, "tmp")
        assert len(os.listdir(tmp_dir)) == 1
        healed = PersistentStore(store.path)  # reaps the dead temp
        assert os.listdir(tmp_dir) == []
        healed.put("results", KEY, {"v": "healed"})
        assert healed.get("results", KEY) == {"v": "healed"}


class TestResolveStore:
    def test_resolves_none_path_and_instance(self, store, tmp_path):
        assert resolve_store(None) is None
        assert resolve_store(store) is store
        resolved = resolve_store(str(tmp_path / "fresh"))
        assert isinstance(resolved, PersistentStore)

    def test_rejects_other_types(self):
        with pytest.raises(TypeError, match="PersistentStore"):
            resolve_store(42)


class TestResultKeys:
    @pytest.fixture(scope="class")
    def spec(self):
        from repro.spec import load_spec

        return load_spec("""
einsum:
  declaration:
    A: [K, M]
    B: [K, N]
    Z: [M, N]
  expressions:
    - Z[m, n] = A[k, m] * B[k, n]
""")

    def test_key_is_content_based(self, store, spec):
        from repro.workloads import uniform_random

        a1 = uniform_random("A", ["K", "M"], (8, 8), 0.5, seed=1)
        a2 = uniform_random("A", ["K", "M"], (8, 8), 0.5, seed=1)
        a3 = uniform_random("A", ["K", "M"], (8, 8), 0.5, seed=2)
        k1 = store.result_key(spec, {"A": a1}, "auto", "arithmetic", None)
        k2 = store.result_key(spec, {"A": a2}, "auto", "arithmetic", None)
        k3 = store.result_key(spec, {"A": a3}, "auto", "arithmetic", None)
        # Same contents (different objects) share a key; different
        # contents with identical structure (shape/nnz regime) do not.
        assert k1 == k2
        assert k1 != k3

    def test_digest_is_the_same_for_columns_and_tree(self):
        from repro.fibertree import Tensor
        from repro.store.persistent import tensor_digest
        from repro.workloads import uniform_random

        a = uniform_random("A", ["K", "M"], (12, 9), 0.4, seed=3)
        boxed = a.copy()
        boxed.root  # noqa: B018 -- the first access switches the storage
        assert a.stored_arena is not None and boxed.stored_arena is None
        digest = tensor_digest(a)
        assert tensor_digest(boxed) == digest
        # Reading ``.root`` switches ``a`` to its tree, not its digest.
        a.root  # noqa: B018
        assert a.stored_arena is None and tensor_digest(a) == digest
        # A hand-built tree with the same contents shares the digest.
        hand = Tensor("A", a.rank_ids, a.root.copy(), a.shape)
        assert tensor_digest(hand) == digest

    def test_key_covers_metrics_mode_and_shapes(self, store, spec):
        from repro.workloads import uniform_random

        a = uniform_random("A", ["K", "M"], (8, 8), 0.5, seed=1)
        base = store.result_key(spec, {"A": a}, "auto", "arithmetic", None)
        assert store.result_key(spec, {"A": a}, "analytical",
                                "arithmetic", None) != base
        assert store.result_key(spec, {"A": a}, "auto", "arithmetic",
                                {"K": 32}) != base
