"""Crash-safe sweep artifacts: the result journal and the run manifest.

A supervised sweep (:class:`~repro.search.supervisor.SweepSupervisor`
driving :func:`~repro.search.runner.search`) persists its progress as
two files inside one journal directory:

``manifest.json``
    Everything that *identifies* the sweep — the canonical spec
    fingerprint (:func:`~repro.model.backend.spec_fingerprint`), a
    content fingerprint per workload tensor, the Einsum, metric and
    metrics modes, the pruning configuration, and the strategy signature
    (name + public scalar parameters, seeds included).  Written once,
    via write-to-temp + :func:`os.replace`, so a reader never observes a
    half-written manifest.  Fields that cannot change the result —
    worker counts, executor kind, timeouts — are recorded for the audit
    trail but excluded from the resume identity check.

``journal.jsonl``
    An append-only record stream, one JSON object per line, flushed per
    record: phase-1 scores and phase-2 exact metrics per candidate
    (with an optional pickled :class:`~repro.model.evaluate.EvaluationResult`
    payload so resumed sweeps adopt results bit-identically), failure
    records, and a ``final`` marker.  Because the file only ever grows
    by whole lines, a crash can corrupt at most the tail; the resume
    loader tolerates a truncated last line and replays everything
    before it.

Resume (``search(..., resume=path)``) re-runs the (deterministic)
strategy from scratch and *adopts* every journaled completion instead of
re-evaluating it, so a killed sweep continues exactly where it stopped
and finishes with a :class:`~repro.search.results.SearchResult`
bit-identical to an uninterrupted run.  A manifest that does not match
the resuming call raises :class:`ResumeMismatchError` naming each
differing field — resuming a sweep under a different spec, workload, or
strategy would silently mix incompatible results otherwise.
"""

from __future__ import annotations

import base64
import hashlib
import io
import json
import os
import pickle
from typing import Any, Dict, List, Optional, Tuple

from ..store.persistent import PayloadVersionError, tensor_digest
from .space import Candidate

#: Journal/manifest schema version; bump on incompatible layout changes.
FORMAT_VERSION = 1

#: The protocol result payloads are pickled with.  Stamped into every
#: manifest so a reader on an older Python — whose
#: ``pickle.HIGHEST_PROTOCOL`` is lower — fails with a named
#: :class:`~repro.store.PayloadVersionError` at resume time instead of
#: an opaque ``ValueError`` deep inside the first ``unpack``.
PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL

MANIFEST_NAME = "manifest.json"
JOURNAL_NAME = "journal.jsonl"

#: Manifest fields that must match for a resume to be sound.  Everything
#: else (workers, executor, timeouts, library version, timestamps) can
#: differ between the original run and the resume without changing the
#: result.
IDENTITY_FIELDS = (
    "format_version",
    "spec_fingerprint",
    "workloads",
    "einsum",
    "metric",
    "metrics",
    "prune_metrics",
    "prune_to",
    "strategy",
)


class JournalError(ValueError):
    """A sweep journal is missing, malformed, or used inconsistently."""


class ResumeMismatchError(JournalError):
    """``resume=`` pointed at a journal written by a different sweep.

    Raised with the name and both values of every identity field that
    differs, so the caller can tell a stale path from a genuinely
    changed spec/workload/strategy.
    """


# ----------------------------------------------------------------------
# Candidate and fingerprint serialization
# ----------------------------------------------------------------------
def candidate_to_json(cand: Candidate) -> Dict[str, Any]:
    """A JSON-friendly form of a candidate (round-trips exactly)."""
    return {
        "loop_order": list(cand.loop_order),
        "tiles": [[rank, size] for rank, size in cand.tiles],
    }


def candidate_from_json(data: Dict[str, Any]) -> Candidate:
    return Candidate(
        tuple(data["loop_order"]),
        tuple((rank, int(size)) for rank, size in data["tiles"]),
    )


def candidate_key(cand: Candidate) -> str:
    """The canonical string key a candidate journals under."""
    return json.dumps(candidate_to_json(cand), sort_keys=True,
                      separators=(",", ":"))


def tensor_fingerprint(tensor) -> Dict[str, Any]:
    """The identity of one workload tensor: its content digest
    (:func:`~repro.store.persistent.tensor_digest`, the key the result
    store uses), plus rank ids, shape, and nonzero count for the audit
    trail.  The digest makes a resume against same-shape, same-nnz
    data with different values a mismatch instead of a silent adopt.
    """
    return {
        "rank_ids": list(tensor.rank_ids),
        "shape": [None if s is None else int(s) for s in tensor.shape],
        "nnz": int(tensor.nnz),
        "digest": tensor_digest(tensor),
    }


def workloads_fingerprint(tensors: Dict[str, Any]) -> Dict[str, Any]:
    return {name: tensor_fingerprint(t) for name, t in sorted(tensors.items())}


def strategy_signature(strategy) -> Dict[str, Any]:
    """Name plus every public scalar parameter of a strategy instance.

    Seeds, sample counts, beam widths — whatever determines the
    proposal sequence — land in the manifest so a resume under a
    reparameterized strategy is rejected instead of silently mixing
    two different sweeps.
    """
    sig: Dict[str, Any] = {"name": getattr(strategy, "name", "strategy")}
    for key, value in sorted(vars(strategy).items()):
        if key.startswith("_"):
            continue
        if isinstance(value, (int, float, str, bool)) or value is None:
            sig[key] = value
    return sig


def _pack_result(result) -> str:
    return base64.b64encode(
        pickle.dumps(result, protocol=PICKLE_PROTOCOL)
    ).decode("ascii")


def _unpack_result(blob: str):
    return pickle.loads(base64.b64decode(blob.encode("ascii")))


def manifest_fingerprint(manifest: Dict[str, Any]) -> str:
    """A digest over the manifest's identity fields (audit convenience)."""
    payload = json.dumps(
        {k: manifest.get(k) for k in IDENTITY_FIELDS},
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# The journal
# ----------------------------------------------------------------------
class SweepJournal:
    """One sweep's crash-safe artifact directory.

    Construct through :meth:`create` (fresh sweep; writes the manifest
    atomically and truncates any previous journal at ``path``) or
    :meth:`resume` (validates the manifest against the resuming call
    and loads every intact record).

    **Durability policy** (``fsync_every=N``, default 1): every append
    flushes to the OS — so another *process* observes whole records
    immediately, and a killed process loses at most the record being
    written — and every ``N``-th record additionally ``fsync``\\ s to
    stable storage.  The default, ``fsync_every=1``, makes each record
    power-loss durable before the evaluation of the next candidate
    begins: a machine crash (not just a killed process) loses at most
    one record.  Raising ``N`` amortizes the sync cost over ``N``
    records for sweeps where per-candidate evaluation is cheaper than a
    disk flush, weakening the guarantee to "at most ``N`` records lost
    on power failure" (a killed process still loses at most one —
    flushes are unconditional).  :meth:`finalize` always syncs.
    """

    def __init__(self, path: str, manifest: Dict[str, Any],
                 entries: Optional[Dict[Tuple[int, str], dict]] = None,
                 resumed: bool = False, fsync_every: int = 1):
        if fsync_every < 1:
            raise ValueError("fsync_every must be >= 1")
        self.path = path
        self.manifest = manifest
        #: (phase, candidate key) -> journal entry adopted from disk.
        self.entries: Dict[Tuple[int, str], dict] = dict(entries or {})
        self.resumed = resumed
        self.final: Optional[dict] = None
        self.fsync_every = fsync_every
        self._appends_since_sync = 0
        self._fh: Optional[io.TextIOWrapper] = None

    # ---- construction -------------------------------------------------
    @classmethod
    def create(cls, path: str, manifest: Dict[str, Any],
               fsync_every: int = 1) -> "SweepJournal":
        """Start a fresh journal at ``path`` (a directory; created if
        missing, previous journal contents replaced)."""
        os.makedirs(path, exist_ok=True)
        manifest = dict(manifest)
        manifest["format_version"] = FORMAT_VERSION
        manifest["pickle_protocol"] = PICKLE_PROTOCOL
        tmp = os.path.join(path, MANIFEST_NAME + ".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, os.path.join(path, MANIFEST_NAME))
        journal = cls(path, manifest, fsync_every=fsync_every)
        journal._fh = open(os.path.join(path, JOURNAL_NAME), "w",
                           encoding="utf-8")
        return journal

    @classmethod
    def resume(cls, path: str,
               manifest: Optional[Dict[str, Any]] = None,
               fsync_every: int = 1) -> "SweepJournal":
        """Open an existing journal, validating it against ``manifest``
        (the identity the resuming call would have written) and loading
        every intact record; appends continue on the same file."""
        manifest_path = os.path.join(path, MANIFEST_NAME)
        if not os.path.exists(manifest_path):
            raise JournalError(
                f"no sweep manifest at {manifest_path!r}; resume needs a "
                "journal directory written by search(..., journal=path)"
            )
        with open(manifest_path, encoding="utf-8") as fh:
            try:
                on_disk = json.load(fh)
            except json.JSONDecodeError as exc:
                raise JournalError(
                    f"sweep manifest {manifest_path!r} is not valid JSON "
                    f"({exc}); the file is written atomically, so this is "
                    "not a crash artifact — the journal directory is "
                    "corrupt"
                ) from None
        stamped = on_disk.get("pickle_protocol")
        if stamped is not None and stamped > pickle.HIGHEST_PROTOCOL:
            raise PayloadVersionError(
                f"the journal at {path!r} pickled its result payloads "
                f"with protocol {stamped}, but this Python supports at "
                f"most protocol {pickle.HIGHEST_PROTOCOL}; resume on the "
                "Python version that wrote the journal (or re-run the "
                "sweep here)"
            )
        if manifest is not None:
            mismatches = []
            expect = dict(manifest)
            expect["format_version"] = FORMAT_VERSION
            for field in IDENTITY_FIELDS:
                if on_disk.get(field) != expect.get(field):
                    mismatches.append(
                        f"{field}: journal has {on_disk.get(field)!r}, "
                        f"this call would write {expect.get(field)!r}"
                    )
            if mismatches:
                raise ResumeMismatchError(
                    "the journal at %r was written by a different sweep; "
                    "mismatched fields: %s" % (path, "; ".join(mismatches))
                )
        journal = cls(path, on_disk, entries={}, resumed=True,
                      fsync_every=fsync_every)
        journal._load_records()
        journal._fh = open(os.path.join(path, JOURNAL_NAME), "a",
                           encoding="utf-8")
        return journal

    def _load_records(self) -> None:
        journal_path = os.path.join(self.path, JOURNAL_NAME)
        if not os.path.exists(journal_path):
            return
        valid = 0  # bytes up to the end of the last parsable record
        with open(journal_path, "rb") as fh:
            for line in fh:
                try:
                    record = json.loads(line.decode("utf-8"))
                except (json.JSONDecodeError, UnicodeDecodeError):
                    # A crash mid-append corrupts at most the tail; the
                    # first unparsable line marks it.  Everything after
                    # is untrusted too, so stop rather than skip.
                    break
                valid += len(line)
                kind = record.get("type")
                if kind in ("result", "failure"):
                    self.entries[(record["phase"], record["key"])] = record
                elif kind == "final":
                    self.final = record
        if valid < os.path.getsize(journal_path):
            # Cut the torn tail off so records appended after this
            # resume start on their own line instead of gluing onto
            # the half-written one (which would corrupt them too).
            with open(journal_path, "rb+") as fh:
                fh.truncate(valid)

    # ---- appends ------------------------------------------------------
    def _append(self, record: dict) -> None:
        if self._fh is None:
            raise JournalError("journal is closed")
        self._fh.write(json.dumps(record, sort_keys=True,
                                  separators=(",", ":")) + "\n")
        self._fh.flush()
        self._appends_since_sync += 1
        if self._appends_since_sync >= self.fsync_every:
            os.fsync(self._fh.fileno())
            self._appends_since_sync = 0

    def record_result(self, phase: int, cand: Candidate, score: float,
                      fingerprint: str, result=None) -> None:
        """Append one completed candidate (optionally with its pickled
        evaluation result so a resume adopts it bit-identically)."""
        record = {
            "type": "result",
            "phase": phase,
            "key": candidate_key(cand),
            "candidate": candidate_to_json(cand),
            "score": score,
            "fingerprint": fingerprint,
        }
        if result is not None:
            record["payload"] = _pack_result(result)
        self.entries[(phase, record["key"])] = record
        self._append(record)

    def record_failure(self, phase: int, cand: Candidate, kind: str,
                       classification: str, error: str,
                       attempts: int) -> None:
        record = {
            "type": "failure",
            "phase": phase,
            "key": candidate_key(cand),
            "candidate": candidate_to_json(cand),
            "kind": kind,
            "classification": classification,
            "error": error,
            "attempts": attempts,
        }
        self.entries[(phase, record["key"])] = record
        self._append(record)

    def finalize(self, status: str, best_key: Optional[str] = None,
                 fingerprint: Optional[str] = None) -> None:
        """Append the terminal record (``status`` is ``"complete"`` or
        ``"interrupted"``) and force the journal to stable storage."""
        if self._fh is None:
            return
        record: dict = {"type": "final", "status": status}
        if best_key is not None:
            record["best_key"] = best_key
        if fingerprint is not None:
            record["fingerprint"] = fingerprint
        self.final = record
        self._append(record)
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    # ---- lookups ------------------------------------------------------
    def lookup(self, phase: int, cand: Candidate) -> Optional[dict]:
        """The journaled record for a candidate in a phase, or None."""
        return self.entries.get((phase, candidate_key(cand)))

    @staticmethod
    def unpack(record: dict):
        """The pickled evaluation result of a ``result`` record, or
        None when the journal was written without payloads."""
        blob = record.get("payload")
        return None if blob is None else _unpack_result(blob)

    def results_for(self, phase: int) -> List[dict]:
        return [r for (p, _), r in self.entries.items()
                if p == phase and r["type"] == "result"]
