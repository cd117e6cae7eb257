"""A crash-safe, cross-process persistent store for priced evaluation
results.

Every cache this library had before this module — the compile cache,
the prep cache, the priceability memo — lives and dies with one
process.  A service answering sweep traffic from many worker processes
needs its expensive artifacts (fully priced
:class:`~repro.model.evaluate.EvaluationResult` objects) to outlive any
one of them, survive kills at any instruction, and stay correct when
several writers race on one key.  :class:`PersistentStore` is that
layer, with the durability discipline stated up front:

* **Atomic commits.**  Every entry is written to a private temp file,
  flushed and ``fsync``-ed, then published with :func:`os.replace` —
  the only filesystem step readers can observe.  A kill at *any* point
  of a write leaves either the previous entry or no entry, never a
  half-written one at the published path.

* **Self-verifying entries.**  Each entry carries a fixed magic, a
  length-prefixed JSON meta header (payload length, SHA-256 checksum,
  pickle protocol, library and store-format versions), then the
  payload.  Reads verify magic, length, and checksum before unpickling
  a byte.

* **Corruption is quarantined, never fatal.**  A torn, truncated, or
  bit-flipped entry (external truncation, a torn write from a
  non-atomic producer, disk rot) is moved into ``quarantine/`` and
  reported as a miss — the caller recomputes and the store heals by
  overwriting.  The quarantined bytes stay on disk for post-mortems.

* **Concurrent writers are safe.**  ``put`` takes a striped advisory
  ``flock``; a writer that finds a valid entry already published
  *adopts* it — returning the stored value instead of its own, exactly
  the ``setdefault`` semantics of the in-memory
  :class:`~repro.model.backend.CompileCache` — so every process
  converges on one winner per key.  Even without the lock (an NFS mount
  that ignores flock), ``os.replace`` keeps the last writer's complete
  entry; both writers computed bit-identical payloads, so either
  winning is correct.

* **Version mismatches miss cleanly.**  An entry stamped by a
  different library version is a miss (results could legitimately
  differ across versions), not an error.  An entry whose pickle
  protocol this interpreter cannot read raises the named
  :class:`PayloadVersionError` instead of an opaque unpickle crash.

The store holds two namespaces: **results** (pickled evaluation
results keyed on the full semantic fingerprint of ``(spec, workload
contents, metrics mode, opset, shapes)``) and **failures** (the
deterministic failure of a candidate that cannot be priced, under the
same key).  Compiled kernels are not stored: lowering a spec is no
slower than loading its IR back from disk, so each process keeps them
in its own :class:`~repro.model.backend.CompileCache`.

Results and failures are the one place cached sweeps and batch jobs
(:func:`repro.search.search`, :mod:`repro.search.jobs`) checkpoint
per-candidate outcomes.  The result key hashes tensor *contents*, not
just shapes, so a hit is guaranteed to reproduce the exact result a
cold run would compute — the bit-identity-on-hit contract the
differential suite enforces.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
import struct
import threading
from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..fibertree.arena import FlatArena
from ..model.executor import fault_point

#: Store layout version; bump on incompatible entry/layout changes.
STORE_FORMAT_VERSION = 1

#: Fixed magic prefix of every entry file.
ENTRY_MAGIC = b"RPSTORE1"


def tensor_digest(tensor) -> str:
    """The content digest of one workload tensor: SHA-256 over its name,
    rank ids and shape and the buffers of its
    :class:`~repro.fibertree.arena.FlatArena` — dtype and bytes of each
    numpy buffer, the ``repr`` of each list buffer, then the per-fiber
    windows.  Result-store entries key on it, so equal digests mean
    equal contents whichever way the tensor is stored (columns or a
    boxed tree), and reading ``tensor.root`` never changes it."""
    h = hashlib.sha256()
    h.update(repr((tensor.name, list(tensor.rank_ids),
                   list(tensor.shape))).encode())
    if tensor.num_ranks:
        arena = FlatArena.from_tensor(tensor)
        for buf in (*arena.coords, *arena.segs, arena.vals):
            if isinstance(buf, np.ndarray):
                h.update(f"|{buf.dtype.str}:{len(buf)}|".encode())
                h.update(np.ascontiguousarray(buf).tobytes())
            else:
                h.update(f"|list:{len(buf)}|{buf!r}".encode())
        h.update(repr(arena.ranges).encode())
    return h.hexdigest()


#: Sentinel distinguishing "no entry" from a stored ``None``.
MISS = object()

_META_LEN = struct.Struct(">Q")


class StoreError(ValueError):
    """The persistent store is missing, malformed, or misused."""


class CorruptEntryError(StoreError):
    """An entry failed its magic/length/checksum verification.

    Raised internally and handled by quarantining; it only escapes to
    callers using the low-level :func:`read_entry` directly.
    """


class PayloadVersionError(StoreError):
    """A stored payload cannot be decoded by this interpreter/library.

    Raised (naming the stamped and supported versions) when an entry or
    job payload was written with a pickle protocol newer than this
    interpreter supports — the one mismatch that cannot be handled as a
    clean miss-and-recompute, because the bytes are unreadable rather
    than merely stale.
    """


# ----------------------------------------------------------------------
# Entry codec
# ----------------------------------------------------------------------
def entry_meta(payload: bytes, *, protocol: int,
               extra: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """The self-describing header stored in front of ``payload``."""
    from .. import __version__

    meta = {
        "format_version": STORE_FORMAT_VERSION,
        "library_version": __version__,
        "pickle_protocol": protocol,
        "length": len(payload),
        "checksum": hashlib.sha256(payload).hexdigest(),
    }
    if extra:
        meta.update(extra)
    return meta


def write_entry(tmp_path: str, final_path: str, payload: bytes,
                meta: Dict[str, Any]) -> None:
    """Commit one entry: temp write + fsync + :func:`os.replace`.

    The caller owns ``tmp_path`` (it must be unique to this writer, on
    the same filesystem as ``final_path``).  A crash before the replace
    leaves only temp garbage; after it, the complete entry.
    """
    header = json.dumps(meta, sort_keys=True,
                        separators=(",", ":")).encode("utf-8")
    with open(tmp_path, "wb") as fh:
        fh.write(ENTRY_MAGIC)
        fh.write(_META_LEN.pack(len(header)))
        fh.write(header)
        fh.write(payload)
        fh.flush()
        os.fsync(fh.fileno())
    fault_point(f"store-commit:{os.path.basename(final_path)}")
    os.replace(tmp_path, final_path)


def read_entry(path: str) -> Tuple[Dict[str, Any], bytes]:
    """Read and verify one entry; raises :class:`CorruptEntryError` on
    any magic/header/length/checksum failure and
    :class:`PayloadVersionError` when the stamped pickle protocol is
    unreadable here."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CorruptEntryError(f"unreadable store entry {path!r}: {exc}")
    pos = len(ENTRY_MAGIC)
    if blob[:pos] != ENTRY_MAGIC:
        raise CorruptEntryError(
            f"store entry {path!r} lacks the {ENTRY_MAGIC!r} magic "
            "(torn write or foreign file)"
        )
    if len(blob) < pos + _META_LEN.size:
        raise CorruptEntryError(f"store entry {path!r} truncated in header")
    (meta_len,) = _META_LEN.unpack(blob[pos:pos + _META_LEN.size])
    pos += _META_LEN.size
    if len(blob) < pos + meta_len:
        raise CorruptEntryError(f"store entry {path!r} truncated in header")
    try:
        meta = json.loads(blob[pos:pos + meta_len].decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError):
        raise CorruptEntryError(
            f"store entry {path!r} has an unparsable meta header"
        )
    pos += meta_len
    payload = blob[pos:]
    if len(payload) != meta.get("length"):
        raise CorruptEntryError(
            f"store entry {path!r} is torn: header promises "
            f"{meta.get('length')} payload bytes, file holds {len(payload)}"
        )
    checksum = hashlib.sha256(payload).hexdigest()
    if checksum != meta.get("checksum"):
        raise CorruptEntryError(
            f"store entry {path!r} fails its checksum "
            f"(stored {meta.get('checksum')!r}, computed {checksum!r})"
        )
    protocol = meta.get("pickle_protocol", 0)
    if protocol > pickle.HIGHEST_PROTOCOL:
        raise PayloadVersionError(
            f"store entry {path!r} was written with pickle protocol "
            f"{protocol}, but this interpreter supports at most "
            f"{pickle.HIGHEST_PROTOCOL}; re-run under the Python that "
            "wrote the store, or clear it"
        )
    return meta, payload


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
class StoreStats:
    """Counters of one store handle's traffic (per process, not global)."""

    __slots__ = ("hits", "misses", "puts", "adopted",
                 "corrupt_quarantined", "version_misses")

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.adopted = 0
        self.corrupt_quarantined = 0
        self.version_misses = 0

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self):
        body = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"StoreStats({body})"


#: Number of flock stripes ``put`` serializes on (per namespace).
LOCK_STRIPES = 64


class PersistentStore:
    """One cache directory shared by any number of processes.

    Layout (all paths under the store root)::

        objects/<namespace>/<key[:2]>/<key>.bin   committed entries
        tmp/<pid>-<seq>.tmp                       in-flight writes
        quarantine/<namespace>-<key>.<n>          corrupt entries, kept
        locks/<namespace>-<stripe>.lock           advisory flock files

    Handles are cheap and independent; every durability property holds
    across handles, threads, and processes (see the module docstring).
    """

    def __init__(self, path: str):
        self.path = str(path)
        self.stats = StoreStats()
        self._lock = threading.Lock()
        self._seq = 0
        #: id(tensor) -> (pin, content digest): workload tensors are
        #: fingerprinted once per store handle, not once per evaluation.
        self._tensor_fps: Dict[int, Tuple[Any, str]] = {}
        for sub in ("objects", "tmp", "quarantine", "locks"):
            os.makedirs(os.path.join(self.path, sub), exist_ok=True)
        self._reap_stale_temps()

    # ---- paths --------------------------------------------------------
    def _entry_path(self, namespace: str, key: str) -> str:
        return os.path.join(self.path, "objects", namespace, key[:2],
                            f"{key}.bin")

    def _temp_path(self) -> str:
        with self._lock:
            self._seq += 1
            seq = self._seq
        return os.path.join(self.path, "tmp", f"{os.getpid()}-{seq}.tmp")

    def _reap_stale_temps(self) -> None:
        """Remove in-flight files of writers that no longer exist.

        Temp names embed the writer's pid; a temp whose pid is dead is
        an abandoned write (the commit never happened, so no reader
        ever saw it) and can be deleted safely.  Live writers' temps
        are left alone.
        """
        tmp_dir = os.path.join(self.path, "tmp")
        try:
            names = os.listdir(tmp_dir)
        except OSError:
            return
        for name in names:
            pid_part = name.split("-", 1)[0]
            try:
                pid = int(pid_part)
            except ValueError:
                continue
            if pid == os.getpid():
                continue
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                try:
                    os.remove(os.path.join(tmp_dir, name))
                except OSError:
                    pass
            except OSError:
                continue  # exists (or unknowable): leave it

    # ---- locking ------------------------------------------------------
    def _stripe_lock(self, namespace: str, key: str):
        stripe = int(key[:8], 16) % LOCK_STRIPES if key else 0
        return _FileLock(os.path.join(
            self.path, "locks", f"{namespace}-{stripe:02d}.lock"
        ))

    # ---- quarantine ---------------------------------------------------
    def _quarantine(self, namespace: str, key: str, path: str,
                    reason: str) -> None:
        """Move a corrupt entry aside (first writer wins; a concurrent
        quarantiner finding the entry already gone is a no-op)."""
        qdir = os.path.join(self.path, "quarantine")
        for n in range(1000):
            target = os.path.join(qdir, f"{namespace}-{key}.{n}")
            if os.path.exists(target):
                continue
            try:
                os.replace(path, target)
            except FileNotFoundError:
                return  # someone else quarantined (or overwrote) it
            except OSError:
                break
            with self._lock:
                self.stats.corrupt_quarantined += 1
            try:
                with open(target + ".reason", "w", encoding="utf-8") as fh:
                    fh.write(reason + "\n")
            except OSError:
                pass
            return
        # Quarantine dir full/unwritable: delete rather than crash-loop.
        try:
            os.remove(path)
        except OSError:
            pass

    # ---- core get/put -------------------------------------------------
    def get(self, namespace: str, key: str) -> Any:
        """The stored value, or :data:`MISS`.

        Corrupt entries are quarantined and miss; entries from another
        library version miss (the caller recomputes and overwrites);
        unreadable pickle protocols raise :class:`PayloadVersionError`.
        """
        from .. import __version__

        path = self._entry_path(namespace, key)
        if not os.path.exists(path):
            with self._lock:
                self.stats.misses += 1
            return MISS
        try:
            meta, payload = read_entry(path)
        except PayloadVersionError:
            raise
        except CorruptEntryError as exc:
            self._quarantine(namespace, key, path, str(exc))
            with self._lock:
                self.stats.misses += 1
            return MISS
        if (meta.get("library_version") != __version__
                or meta.get("format_version") != STORE_FORMAT_VERSION):
            with self._lock:
                self.stats.version_misses += 1
                self.stats.misses += 1
            return MISS
        try:
            value = pickle.loads(payload)
        except Exception as exc:
            # Checksummed bytes that still fail to unpickle were written
            # by an incompatible library state; treat as a version miss.
            self._quarantine(namespace, key, path,
                             f"checksummed payload failed to unpickle: "
                             f"{exc!r}")
            with self._lock:
                self.stats.version_misses += 1
                self.stats.misses += 1
            return MISS
        with self._lock:
            self.stats.hits += 1
        return value

    def put(self, namespace: str, key: str, value: Any) -> Any:
        """Publish ``value`` under ``key``; returns the adopted winner.

        Under the stripe lock, a valid committed entry wins over this
        write (``setdefault`` semantics): the stored value is returned
        so every racing process converges on one object graph.  With an
        invalid/absent entry this writer commits and wins.
        """
        fault_point(f"store-put:{namespace}/{key}")
        with self._stripe_lock(namespace, key):
            existing = self.get(namespace, key)
            if existing is not MISS:
                with self._lock:
                    self.stats.adopted += 1
                return existing
            path = self._entry_path(namespace, key)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            meta = entry_meta(payload,
                              protocol=pickle.HIGHEST_PROTOCOL,
                              extra={"namespace": namespace, "key": key})
            write_entry(self._temp_path(), path, payload, meta)
            with self._lock:
                self.stats.puts += 1
            return value

    # ---- result store -------------------------------------------------
    def tensor_fingerprint(self, tensor) -> str:
        """A content digest of one workload tensor (memoized by object
        identity, pinned so ids can never be recycled mid-sweep)."""
        ident = id(tensor)
        with self._lock:
            entry = self._tensor_fps.get(ident)
            if entry is not None:
                return entry[1]
        digest = tensor_digest(tensor)
        with self._lock:
            self._tensor_fps.setdefault(ident, (tensor, digest))
        return digest

    def result_key(self, spec, tensors: Dict[str, Any], metrics: str,
                   opset_token: Optional[str],
                   shapes: Optional[Dict[str, int]]) -> str:
        """The full semantic key of one evaluation.

        Covers everything that can change the result: the spec's full
        fingerprint (every layer, via
        :func:`~repro.model.backend.spec_fingerprint`), each input
        tensor's *content* digest, the metrics mode (modes never share
        entries, so an approximate mode can never serve an exact one),
        the opset, and explicit shape overrides.  Hits are therefore bit-identical to
        a cold run by construction.
        """
        from ..model.backend import spec_fingerprint

        h = hashlib.sha256()
        h.update(spec_fingerprint(spec).encode())
        for name in sorted(tensors):
            h.update(name.encode())
            h.update(self.tensor_fingerprint(tensors[name]).encode())
        h.update(metrics.encode())
        h.update(repr(opset_token).encode())
        h.update(repr(sorted((shapes or {}).items())).encode())
        return h.hexdigest()

    def get_result(self, key: str) -> Any:
        return self.get("results", key)

    def put_result(self, key: str, result) -> Any:
        return self.put("results", key, result)

    def get_failure(self, key: str) -> Any:
        """The deterministic failure stored under a result key (a dict
        of :class:`~repro.search.supervisor.FailureRecord` fields), or
        :data:`MISS`."""
        return self.get("failures", key)

    def put_failure(self, key: str, failure: Dict[str, Any]) -> Any:
        return self.put("failures", key, failure)


class _FileLock:
    """A context-managed advisory ``flock`` on one lock file."""

    def __init__(self, path: str):
        self.path = path
        self._fh: Optional[io.BufferedWriter] = None

    def __enter__(self):
        import fcntl

        self._fh = open(self.path, "ab")
        fcntl.flock(self._fh, fcntl.LOCK_EX)
        return self

    def __exit__(self, *exc):
        import fcntl

        if self._fh is not None:
            fcntl.flock(self._fh, fcntl.LOCK_UN)
            self._fh.close()
            self._fh = None
        return False


def resolve_store(cache) -> Optional[PersistentStore]:
    """Resolve a ``cache=`` argument: None, a directory path, or a
    :class:`PersistentStore` instance."""
    if cache is None:
        return None
    if isinstance(cache, PersistentStore):
        return cache
    if isinstance(cache, (str, os.PathLike)):
        return PersistentStore(os.fspath(cache))
    raise TypeError(
        f"cannot resolve a persistent store from {type(cache).__name__}; "
        "pass a directory path or a PersistentStore"
    )
