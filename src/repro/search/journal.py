"""Sweep checkpoints: a manifest, a status file, and the result store.

A journaled sweep (``search(..., journal=path)``) keeps two small JSON
files in its directory and writes every per-candidate outcome to a
:class:`~repro.store.PersistentStore`:

``manifest.json``
    Everything that *identifies* the sweep — the canonical spec
    fingerprint (:func:`~repro.model.backend.spec_fingerprint`), a
    content fingerprint per workload tensor, the Einsum, metric and
    metrics modes, the pruning configuration, and the strategy signature
    (name + public scalar parameters, seeds included) — plus ``store``,
    the directory of the store holding the sweep's results: the
    ``cache=`` store when one was given, else ``store/`` inside the
    journal directory.  Committed atomically (write-temp + ``fsync`` +
    :func:`os.replace`) at the start of every run.  Fields that cannot
    change the result — worker counts, executor kind, timeouts — are
    recorded for the audit trail but excluded from the resume identity
    check.

``status.json``
    Committed atomically when a run ends: ``status`` (``"complete"`` or
    ``"interrupted"``) and, for a complete run that priced anything, the
    best candidate's key and metrics fingerprint.  Every run removes it
    when it starts, so a missing status means the last run is still
    going or was killed.

Results live in the store under the content key every cached evaluation
uses (:meth:`~repro.store.PersistentStore.result_key`); deterministic
failures live under the store's ``failures`` namespace with the same
key.  Each entry is committed atomically and checksummed on its own, so
a kill loses at most the candidate being written, and a torn or corrupt
entry is quarantined and re-evaluated.  The journal's own store holds
results only — no compiled kernels — so checkpointing costs one entry
write per candidate.

Resume (``search(..., resume=path)``) checks the manifest against the
resuming call, then re-runs the (deterministic) strategy from scratch.
Like every store-backed sweep, the runner adopts each stored result and
stored deterministic failure before dispatch, so a killed sweep
evaluates only what is missing and finishes with a
:class:`~repro.search.results.SearchResult` bit-identical to an
uninterrupted run.  A manifest that does not match the resuming call
raises :class:`ResumeMismatchError` naming each differing field —
resuming a sweep under a different spec, workload, or strategy would
silently mix incompatible results otherwise.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Optional

from ..model.executor import fault_point
from ..store.persistent import tensor_digest
from .space import Candidate

MANIFEST_NAME = "manifest.json"
STATUS_NAME = "status.json"
#: The journal's own result store, relative to the journal directory.
STORE_NAME = "store"

#: Manifest fields that must match for a resume to be sound.  Everything
#: else (workers, executor, timeouts, library version, the store path)
#: can differ between the original run and the resume without changing
#: the result.
IDENTITY_FIELDS = (
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
    """The canonical string key naming a candidate in sweep artifacts."""
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


# ----------------------------------------------------------------------
# Atomic JSON files
# ----------------------------------------------------------------------
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


# ----------------------------------------------------------------------
# The journal directory
# ----------------------------------------------------------------------
def check_manifest(path: str, manifest: Dict[str, Any]) -> Dict[str, Any]:
    """Validate the journal at ``path`` against ``manifest`` (the
    identity the resuming call would write) and return the manifest on
    disk.  Raises :class:`JournalError` when there is no valid manifest
    and :class:`ResumeMismatchError` naming every differing identity
    field."""
    manifest_path = os.path.join(path, MANIFEST_NAME)
    try:
        with open(manifest_path, encoding="utf-8") as fh:
            on_disk = json.load(fh)
    except FileNotFoundError:
        raise JournalError(
            f"no sweep manifest at {manifest_path!r}; resume needs a "
            "journal directory written by search(..., journal=path)"
        ) from None
    except json.JSONDecodeError as exc:
        raise JournalError(
            f"sweep manifest {manifest_path!r} is not valid JSON ({exc}); "
            "the file is written atomically, so this is not a crash "
            "artifact — the journal directory is corrupt"
        ) from None
    mismatches = [
        f"{field}: journal has {on_disk.get(field)!r}, this call would "
        f"write {manifest.get(field)!r}"
        for field in IDENTITY_FIELDS
        if on_disk.get(field) != manifest.get(field)
    ]
    if mismatches:
        raise ResumeMismatchError(
            "the journal at %r was written by a different sweep; "
            "mismatched fields: %s" % (path, "; ".join(mismatches))
        )
    return on_disk


def start_run(path: str, manifest: Dict[str, Any]) -> None:
    """Commit ``manifest`` and clear the previous run's status."""
    os.makedirs(path, exist_ok=True)
    atomic_json(os.path.join(path, MANIFEST_NAME), manifest)
    try:
        os.remove(os.path.join(path, STATUS_NAME))
    except FileNotFoundError:
        pass


def finish_run(path: str, status: str, best_key: Optional[str] = None,
               fingerprint: Optional[str] = None) -> None:
    """Commit ``status.json`` (``status`` is ``"complete"`` or
    ``"interrupted"``)."""
    record: Dict[str, Any] = {"status": status}
    if best_key is not None:
        record["best_key"] = best_key
    if fingerprint is not None:
        record["fingerprint"] = fingerprint
    atomic_json(os.path.join(path, STATUS_NAME), record)


def read_status(path: str) -> Optional[Dict[str, Any]]:
    """The last finished run's status record, or None (never finished,
    still running, or killed)."""
    return read_json(os.path.join(path, STATUS_NAME))
