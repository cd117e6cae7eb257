"""Persistent, cross-process caching: the durable half of
evaluation-as-a-service.

:class:`PersistentStore` is a disk-backed cache directory shared by any
number of worker processes: fully priced evaluation results and
deterministic failures survive process exit, kills mid-write, corrupt
entries, and concurrent writers (see :mod:`repro.store.persistent` for
the durability contract).  Opt in per call with ``cache=dir`` on
:func:`repro.model.evaluate.evaluate`,
:func:`repro.model.evaluate.evaluate_many`, and
:func:`repro.search.search`.  The store is also the one place cached
sweeps and the leased batch job runner (:mod:`repro.search.jobs`)
checkpoint per-candidate results and deterministic failures, which is
what a re-run with the same ``cache=`` and ``gather`` read back.
"""

from .persistent import (
    MISS,
    STORE_FORMAT_VERSION,
    CorruptEntryError,
    PayloadVersionError,
    PersistentStore,
    StoreError,
    StoreStats,
    entry_meta,
    read_entry,
    resolve_store,
    write_entry,
)

__all__ = [
    "MISS",
    "STORE_FORMAT_VERSION",
    "CorruptEntryError",
    "PayloadVersionError",
    "PersistentStore",
    "StoreError",
    "StoreStats",
    "entry_meta",
    "read_entry",
    "resolve_store",
    "write_entry",
]
