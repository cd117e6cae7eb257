"""Leased batch jobs: a sweep sharded across independent processes.

:func:`search` parallelizes one sweep *inside* one process; this module
turns a sweep into an on-disk **job directory** that any number of
unrelated worker processes — different shells, different machines on a
shared filesystem — chew through cooperatively and crash-safely:

* :func:`submit` checks the metric and metrics mode, enumerates the
  mapping space deterministically, splits the candidates round-robin
  into ``shards`` shard files, and writes the job manifest plus a
  checksummed pickled payload (spec + tensors).  Everything is committed
  write-temp → ``fsync`` → ``os.replace``, so a job directory is never
  observed half-submitted.
* :func:`claim` hands a worker the next available shard under an
  advisory ``flock`` on ``claim.lock``: done shards are skipped, live
  leases are respected, and a lease whose heartbeat is older than
  ``lease_ttl`` is **expired and re-claimed** — a worker that died
  mid-shard (kill -9, OOM, lost machine) never strands its shard.
* :func:`run_worker` evaluates each claimed shard's pending candidates
  into the job's :class:`~repro.store.PersistentStore` — the manifest's
  ``cache``, else ``store/`` inside the job directory — heartbeating
  between candidates, and commits an atomic done marker when the shard
  is exhausted.  Results and deterministic failures are store entries
  under the same content keys ``search(cache=...)`` uses, so a job and
  a cached search over one store share them.  A candidate already in
  the store — from this worker's previous life, a presumed-dead
  predecessor, or another sweep — is adopted, not recomputed.  A
  transient error propagates: the lease then expires and another
  worker retries the shard.
* :func:`poll` summarizes progress; :func:`gather` reads every stored
  result back in enumeration order into a
  :class:`~repro.search.results.SearchResult` **bit-identical** to what
  a serial in-process ``search()`` over the same space would return.

Two workers can transiently hold one shard — lease takeover is by
timeout, and the presumed-dead worker may still be running.  That is
safe by construction rather than prevented: every evaluation is
deterministic (both writers compute bit-identical results), and the
store's ``put`` adopts an already-committed entry instead of replacing
it, so both writers converge on one entry per candidate.  A torn or
corrupt entry is quarantined when read, which makes its candidate
pending again for the next claimant.
"""

from __future__ import annotations

import json
import os
import pickle
import socket
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..einsum.operators import NAMED_OPSETS
from ..model.backend import spec_fingerprint
from ..model.evaluate import (
    _opset_token,
    _worker_store,
    check_metrics_mode,
    evaluate,
)
from ..model.executor import fault_point
from ..spec.loader import AcceleratorSpec
from ..store.persistent import (
    MISS,
    PayloadVersionError,
    PersistentStore,
    _FileLock,
    entry_meta,
    read_entry,
    write_entry,
)
from .results import SearchResult, check_metric, metric_value
from .runner import _einsum_ranks, _resolve_einsum
from .space import (
    Candidate,
    MappingSpace,
    apply_candidate,
    candidate_key,
    candidate_to_json,
)
from .supervisor import DETERMINISTIC, FailureRecord, classify_failure

MANIFEST_NAME = "manifest.json"
PAYLOAD_NAME = "payload.bin"
#: The job's own result store (used when the manifest names no cache).
STORE_NAME = "store"

#: Job directory layout version; bump on incompatible layout changes.
FORMAT_VERSION = 2

#: The protocol the job payload is pickled with, stamped into the
#: manifest so a worker on an older Python fails with a named
#: :class:`~repro.store.PayloadVersionError`.
PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL

#: Default seconds without a heartbeat before a lease counts as
#: abandoned and the shard becomes claimable again.
DEFAULT_LEASE_TTL = 30.0


class JobError(ValueError):
    """A job directory is missing, malformed, or used inconsistently."""


# ----------------------------------------------------------------------
# Serialization and atomic JSON files
# ----------------------------------------------------------------------
def candidate_from_json(data: Dict[str, Any]) -> Candidate:
    """Inverse of :func:`~repro.search.space.candidate_to_json`."""
    return Candidate(
        tuple(data["loop_order"]),
        tuple((rank, int(size)) for rank, size in data["tiles"]),
    )


def atomic_json(path: str, obj: Any, fsync: bool = True) -> None:
    """Commit a JSON file atomically (write-temp + fsync + replace)."""
    tmp = path + f".tmp-{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
        fh.flush()
        if fsync:
            os.fsync(fh.fileno())
    fault_point(f"json-commit:{os.path.basename(path)}")
    os.replace(tmp, path)


def read_json(path: str) -> Optional[Any]:
    """A committed JSON file, or None when it is absent or unparsable
    (atomically committed files are never half-written, so an
    unparsable one is treated as absent rather than crashing)."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (FileNotFoundError, json.JSONDecodeError):
        return None


def default_worker_id() -> str:
    return f"{socket.gethostname()}:{os.getpid()}"


def _shard_file(path: str, kind: str, sid: int, suffix: str = "") -> str:
    return os.path.join(path, kind, f"shard-{sid:04d}{suffix}")


# ----------------------------------------------------------------------
# Submit
# ----------------------------------------------------------------------
def submit(
    path: str,
    spec: AcceleratorSpec,
    tensors,
    einsum: Optional[str] = None,
    tile_sizes=None,
    max_loop_orders: Optional[int] = None,
    shards: int = 4,
    metric: str = "exec_seconds",
    metrics: str = "auto",
    opset=None,
    shapes: Optional[Dict[str, int]] = None,
    cache: Optional[str] = None,
) -> Dict[str, Any]:
    """Create a job directory at ``path`` and return its manifest.

    The mapping space of ``einsum`` (resolved exactly as in
    :func:`~repro.search.runner.search`) is enumerated deterministically
    and split round-robin into ``shards`` shard files — candidate ``i``
    lands in shard ``i % shards``, so shards are balanced and the
    original enumeration order is recoverable from (shard, position).
    ``opset`` must be a *named* opset (or None for arithmetic): workers
    rebuild it by name, exactly like the process-pool payloads.
    ``cache`` (a directory path) is recorded in the manifest; every
    worker then publishes into that shared
    :class:`~repro.store.PersistentStore` instead of the job's own.
    An unknown ``metric`` or ``metrics`` mode raises ``ValueError``
    before anything is written, and so does ``metrics="analytical"``:
    the store never holds the approximate tier.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    check_metric(metric)
    check_metrics_mode(metrics)
    if metrics == "analytical":
        raise ValueError(
            "a job publishes its results to a result store, which never "
            "holds the approximate analytical tier; run "
            "search(metrics='analytical') instead"
        )
    from ..einsum.operators import ARITHMETIC

    token = _opset_token(ARITHMETIC if opset is None else opset)
    if token is None:
        raise JobError(
            "submit() requires a named opset (repro.einsum.operators."
            "NAMED_OPSETS): workers rebuild the opset by name"
        )
    name = _resolve_einsum(spec, einsum)
    space = MappingSpace.of(_einsum_ranks(spec, name), tile_sizes,
                            max_loop_orders)
    candidates = list(space.all())
    if not candidates:
        raise JobError("the mapping space is empty; nothing to submit")

    for sub in ("shards", "leases", "done"):
        os.makedirs(os.path.join(path, sub), exist_ok=True)

    shard_lists: List[List[Candidate]] = [[] for _ in range(shards)]
    for i, cand in enumerate(candidates):
        shard_lists[i % shards].append(cand)
    shard_ids = []
    for sid, cands in enumerate(shard_lists):
        if not cands:
            continue  # more shards than candidates
        shard_ids.append(sid)
        atomic_json(
            _shard_file(path, "shards", sid, ".json"),
            {"shard": sid,
             "candidates": [candidate_to_json(c) for c in cands]},
        )

    blob = pickle.dumps(
        {"spec": spec, "tensors": dict(tensors)},
        protocol=PICKLE_PROTOCOL,
    )
    write_entry(
        os.path.join(path, PAYLOAD_NAME + ".tmp"),
        os.path.join(path, PAYLOAD_NAME),
        blob,
        entry_meta(blob, protocol=PICKLE_PROTOCOL),
    )

    manifest = {
        "format_version": FORMAT_VERSION,
        "pickle_protocol": PICKLE_PROTOCOL,
        "spec_fingerprint": spec_fingerprint(spec),
        "einsum": name,
        "metric": metric,
        "metrics": metrics,
        "opset": token,
        "shapes": shapes,
        "cache": cache,
        "shards": shard_ids,
        "n_candidates": len(candidates),
    }
    atomic_json(os.path.join(path, MANIFEST_NAME), manifest)
    # Touch the claim lock file so claimants need no create race.
    with open(os.path.join(path, "claim.lock"), "ab"):
        pass
    return manifest


def _load_manifest(path: str) -> Dict[str, Any]:
    manifest = read_json(os.path.join(path, MANIFEST_NAME))
    if manifest is None:
        raise JobError(
            f"no job manifest at {os.path.join(path, MANIFEST_NAME)!r}; "
            "the directory was not written by submit()"
        )
    stamped = manifest.get("pickle_protocol")
    if stamped is not None and stamped > pickle.HIGHEST_PROTOCOL:
        raise PayloadVersionError(
            f"the job at {path!r} pickled its payloads with protocol "
            f"{stamped}, but this Python supports at most protocol "
            f"{pickle.HIGHEST_PROTOCOL}; run workers on the Python "
            "version that submitted the job"
        )
    if manifest.get("format_version") != FORMAT_VERSION:
        raise JobError(
            f"the job at {path!r} has layout version "
            f"{manifest.get('format_version')!r}, but this library reads "
            f"version {FORMAT_VERSION}; submit the job again"
        )
    return manifest


class _Job:
    """One job directory opened for work: its manifest, the submitted
    spec and tensors, and the store its results live in."""

    def __init__(self, path: str):
        self.path = path
        self.manifest = _load_manifest(path)
        _meta, blob = read_entry(os.path.join(path, PAYLOAD_NAME))
        payload = pickle.loads(blob)
        self.spec, self.tensors = payload["spec"], payload["tensors"]
        cache = self.manifest["cache"]
        # Without ``cache=``, results live in the job's own store.
        self.store = (_worker_store(cache) if cache is not None
                      else PersistentStore(os.path.join(path, STORE_NAME)))

    def shard(self, sid: int) -> List[Candidate]:
        shard = read_json(_shard_file(self.path, "shards", sid, ".json"))
        if shard is None:
            raise JobError(f"shard file for shard {sid} is missing or "
                           f"corrupt in {self.path!r}")
        return [candidate_from_json(c) for c in shard["candidates"]]

    def done(self, sid: int) -> bool:
        return os.path.exists(_shard_file(self.path, "done", sid))

    def key(self, cand: Candidate) -> str:
        m = self.manifest
        return self.store.result_key(
            apply_candidate(self.spec, m["einsum"], cand), self.tensors,
            m["metrics"], m["opset"], m["shapes"])

    def outcome(self, cand: Candidate) -> Any:
        """The stored result of ``cand``, its stored
        :class:`~repro.search.supervisor.FailureRecord`, or
        :data:`~repro.store.MISS`."""
        key = self.key(cand)
        result = self.store.get_result(key)
        if result is not MISS:
            return result
        failure = self.store.get_failure(key)
        if failure is MISS:
            return MISS
        return FailureRecord(item=cand, key=candidate_key(cand), **failure)


# ----------------------------------------------------------------------
# Poll
# ----------------------------------------------------------------------
@dataclass
class JobStatus:
    """A point-in-time summary of one job directory."""

    shards_total: int
    shards_done: int
    shards_leased: int
    shards_open: int
    candidates_total: int
    candidates_done: int

    @property
    def done(self) -> bool:
        return self.shards_done == self.shards_total


def poll(path: str, lease_ttl: float = DEFAULT_LEASE_TTL,
         clock=time.time) -> JobStatus:
    """Summarize a job's progress (done / live-leased / open shards, and
    candidates with a stored outcome).

    ``clock`` is the wall-clock source leases are judged against —
    injectable so tests expire leases without sleeping.
    """
    job = _Job(path)
    now = clock()
    done = leased = candidates_done = 0
    for sid in job.manifest["shards"]:
        if job.done(sid):
            done += 1
        else:
            lease = read_json(_shard_file(path, "leases", sid, ".lease"))
            if lease is not None and now - lease["heartbeat"] < lease_ttl:
                leased += 1
        candidates_done += sum(job.outcome(c) is not MISS
                               for c in job.shard(sid))
    total = len(job.manifest["shards"])
    return JobStatus(
        shards_total=total, shards_done=done, shards_leased=leased,
        shards_open=total - done - leased,
        candidates_total=job.manifest["n_candidates"],
        candidates_done=candidates_done,
    )


# ----------------------------------------------------------------------
# Claim / the worker side
# ----------------------------------------------------------------------
@dataclass
class ShardClaim:
    """A worker's lease on one shard: heartbeat, pending work, complete."""

    job: _Job
    shard: int
    worker: str
    epoch: int
    candidates: List[Candidate]
    clock: Any = time.time

    @property
    def store(self) -> PersistentStore:
        """The store this shard's outcomes are published to."""
        return self.job.store

    @property
    def pending(self) -> List[Candidate]:
        """Candidates of this shard with neither a stored result nor a
        stored failure."""
        return [c for c in self.candidates if self.job.outcome(c) is MISS]

    def heartbeat(self) -> None:
        """Re-stamp the lease so it stays live past ``lease_ttl``."""
        atomic_json(
            _shard_file(self.job.path, "leases", self.shard, ".lease"),
            {"worker": self.worker, "epoch": self.epoch,
             "heartbeat": self.clock()},
            fsync=False,  # a lost heartbeat only risks a takeover
        )

    def complete(self) -> None:
        """Commit the shard's done marker (idempotent)."""
        atomic_json(_shard_file(self.job.path, "done", self.shard),
                    {"worker": self.worker, "epoch": self.epoch})


def claim(path: str, worker: Optional[str] = None,
          lease_ttl: float = DEFAULT_LEASE_TTL,
          clock=time.time) -> Optional[ShardClaim]:
    """Claim the next available shard, or None when none is claimable.

    Claim decisions serialize on an advisory ``flock`` over
    ``claim.lock``, so two racing claimants never adopt the same shard
    *simultaneously*.  A shard is claimable when it has no done marker
    and either no lease or a lease whose last heartbeat is older than
    ``lease_ttl`` seconds by ``clock`` — the stale lease is overwritten
    with a fresh one at the next epoch.  The dead worker is *presumed*
    dead, not fenced: should it wake up and keep publishing, the
    store's adopt-the-winner ``put`` keeps the shard consistent (see
    the module docstring).
    """
    return _claim(_Job(path), worker, lease_ttl, clock)


def _claim(job: _Job, worker: Optional[str], lease_ttl: float,
           clock) -> Optional[ShardClaim]:
    if worker is None:
        worker = default_worker_id()
    with _FileLock(os.path.join(job.path, "claim.lock")):
        now = clock()
        for sid in job.manifest["shards"]:
            if job.done(sid):
                continue
            lease_path = _shard_file(job.path, "leases", sid, ".lease")
            lease = read_json(lease_path)
            if lease is not None and now - lease["heartbeat"] < lease_ttl:
                continue  # live lease held by someone else
            epoch = (lease["epoch"] + 1) if lease else 1
            atomic_json(lease_path, {"worker": worker, "epoch": epoch,
                                     "heartbeat": now})
            return ShardClaim(job=job, shard=sid, worker=worker,
                              epoch=epoch, candidates=job.shard(sid),
                              clock=clock)
    return None


def run_worker(path: str, worker: Optional[str] = None,
               lease_ttl: float = DEFAULT_LEASE_TTL,
               clock=time.time, max_shards: Optional[int] = None) -> int:
    """Claim and complete shards until the job has none left to give.

    The drain loop of one worker process: claim a shard, evaluate its
    pending candidates into the job's store (heartbeating after every
    candidate, so a live worker on a slow candidate is never mistaken
    for a dead one between candidates), commit the done marker, repeat.
    A deterministic failure is stored as the candidate's outcome; any
    other error propagates and leaves the lease to expire, so another
    worker retries the shard.  Returns the number of shards this call
    completed.  ``max_shards`` bounds the loop (tests claim one shard
    at a time with it).
    """
    job = _Job(path)
    m = job.manifest
    opset = NAMED_OPSETS[m["opset"]]
    completed = 0
    while max_shards is None or completed < max_shards:
        shard_claim = _claim(job, worker, lease_ttl, clock)
        if shard_claim is None:
            break
        for cand in shard_claim.pending:
            try:
                evaluate(apply_candidate(job.spec, m["einsum"], cand),
                         dict(job.tensors), opset=opset, shapes=m["shapes"],
                         metrics=m["metrics"], cache=job.store)
            except Exception as exc:
                if classify_failure(exc) != DETERMINISTIC:
                    raise
                job.store.put_failure(job.key(cand), FailureRecord(
                    item=cand, key=candidate_key(cand), kind="error",
                    classification=DETERMINISTIC, error=repr(exc),
                    attempts=1,
                ).entry())
            shard_claim.heartbeat()
        shard_claim.complete()
        completed += 1
    return completed


# ----------------------------------------------------------------------
# Gather
# ----------------------------------------------------------------------
def gather(path: str, strict: bool = True) -> SearchResult:
    """Assemble a finished job into a ranked
    :class:`~repro.search.results.SearchResult`.

    Every candidate's stored outcome is read back in the original
    enumeration order (candidate ``i`` sits at position ``i // shards``
    of shard ``i % shards``) and scored with
    :func:`~repro.search.results.metric_value` — so the gathered result
    is bit-identical (metrics fingerprints included) to a serial
    in-process ``search()`` over the same space.  With ``strict=True``
    (the default) an unfinished job raises :class:`JobError`; pass
    ``strict=False`` to gather a partial snapshot mid-flight.
    """
    job = _Job(path)
    m = job.manifest
    shard_ids = m["shards"]
    n_done = sum(job.done(sid) for sid in shard_ids)
    if strict and n_done < len(shard_ids):
        raise JobError(
            f"job at {path!r} is not finished ({n_done}/{len(shard_ids)} "
            "shards done); run more workers or gather(strict=False) for a "
            "partial snapshot"
        )
    # The non-empty shard ids are dense by construction, whatever shard
    # count was requested at submit time.
    shard_cands = {sid: job.shard(sid) for sid in shard_ids}
    candidates = []
    scores = []
    failures: List[FailureRecord] = []
    for i in range(m["n_candidates"]):
        cand = shard_cands[shard_ids[i % len(shard_ids)]][
            i // len(shard_ids)]
        outcome = job.outcome(cand)
        if outcome is MISS:
            continue  # unfinished (strict=False) or a quarantined entry
        if isinstance(outcome, FailureRecord):
            failures.append(outcome)
            continue
        candidates.append((cand, outcome))
        scores.append((cand, metric_value(outcome, m["metric"])))
    return SearchResult(
        candidates=candidates,
        scores=scores,
        strategy="jobs",
        metric=m["metric"],
        pruned_to=None,
        stats={
            "shards": len(shard_ids),
            "n_scored": len(candidates),
            "n_failed": len(failures),
        },
        failures=failures,
    )
