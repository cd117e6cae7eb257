"""Deterministic fault injection for the sweep-supervision tests.

A :class:`FaultPlan` arms the env-gated hook in
:mod:`repro.model.executor` (``install_fault_hook``, behind
``REPRO_FAULT_INJECTION=1``) with a list of rules.  Every cascade
execution offers its spec to the hook; a rule whose ``match`` substring
appears in the spec's name fires its action.  Candidate specs are named
``"<spec>+<candidate.describe()>"`` by ``apply_candidate``, so rules
target individual candidates by their mapping description.

Durability-critical sequences offer *named sites* through the same hook
(:func:`repro.model.executor.fault_point` wraps the name in an object
with a ``.name``, so the substring matching below applies unchanged):

``store-put:<namespace>/<key>``
    Entering :meth:`repro.store.PersistentStore.put`, before the entry
    is written — kill here and nothing of the write exists.  Every
    per-candidate outcome of a sweep or a job goes through this site
    (``store-put:results`` / ``store-put:failures``): exit here
    (``after=k`` to let ``k`` entries commit first) to simulate a sweep
    or a job worker dying mid-run.
``store-commit:<final-basename>``
    Inside :func:`repro.store.write_entry`, after the temp file is
    written and fsynced but *before* the atomic ``os.replace`` — kill
    here and the store must be left fully readable (temp garbage only),
    the entry absent, and a retry able to commit.
``json-commit:<json-basename>``
    Before any atomic JSON commit of a job directory (manifest, shard
    files, lease stamps, done markers) replaces into place.

Actions:

``poison``
    Raise ``ValueError`` — a *deterministic* failure: the supervisor
    must record it without retrying.
``crash``
    Raise :class:`WorkerCrash` (an unrecognized ``RuntimeError``) — a
    *transient* failure: the supervisor must retry it.
``exit``
    Kill the worker *process* with ``os._exit`` (breaking the process
    pool).  In the main process (a serial sweep, or a batch that
    degraded to serial) it raises :class:`WorkerCrash` instead, so a
    mis-targeted rule cannot take pytest down.
``hang``
    Block a forked pool worker forever — deterministic blocking, no
    sleeps.  The supervisor's wall-clock timeout is what un-wedges the
    sweep: it retires the hung worker's pool, and
    :meth:`~repro.search.supervisor.SweepSupervisor.close` kills the
    retired pool's processes.  In the main process it raises
    :class:`WorkerCrash`, as ``exit`` does: nothing could ever release
    a hung pytest.
``interrupt``
    Raise ``KeyboardInterrupt`` — drives the Ctrl-C drain path.
``count``
    No fault; just count invocations (used to assert that re-run
    sweeps do *not* re-evaluate adopted candidates).

Every rule counts its firings in an append-only file under the plan's
scratch directory, bumped under an ``flock`` — so the count is exact
across pool worker *processes* (which inherit the armed hook through
fork), and ``times``-bounded rules fire exactly ``times`` times no
matter which worker reaches them first.
"""

from __future__ import annotations

import fcntl
import multiprocessing
import os
import threading
from dataclasses import dataclass

from repro.model.executor import install_fault_hook


class WorkerCrash(RuntimeError):
    """An injected, unrecognized worker failure (classified transient)."""


@dataclass
class FaultRule:
    match: str       # substring of the executing spec's name
    action: str      # poison | crash | exit | hang | interrupt | count
    times: int       # firings before the rule goes quiet (count: ignored)
    index: int       # position in the plan (names the counter file)
    after: int = 0   # matches passed over before the first firing


class FaultPlan:
    """One test's armed fault rules plus their cross-process counters."""

    def __init__(self, root: str):
        self.root = str(root)
        self.rules = []

    # ---- rule management ----------------------------------------------
    def add(self, match: str, action: str, times: int = 1,
            after: int = 0) -> FaultRule:
        if action not in ("poison", "crash", "exit", "hang", "interrupt",
                          "count"):
            raise ValueError(f"unknown fault action {action!r}")
        rule = FaultRule(match, action, times, len(self.rules), after)
        self.rules.append(rule)
        return rule

    def install(self) -> None:
        install_fault_hook(self._hook)

    def uninstall(self) -> None:
        install_fault_hook(None)

    # ---- counters ------------------------------------------------------
    def _counter_path(self, rule: FaultRule) -> str:
        return os.path.join(self.root, f"fault-{rule.index}.count")

    def _bump(self, rule: FaultRule) -> int:
        """Count one firing; returns the rule's total including it."""
        with open(self._counter_path(rule), "ab") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)
            fh.write(b"x")
            fh.flush()
            return os.fstat(fh.fileno()).st_size

    def fired(self, rule: FaultRule) -> int:
        """How many times a rule's match was reached, across processes."""
        try:
            return os.path.getsize(self._counter_path(rule))
        except OSError:
            return 0

    # ---- the hook ------------------------------------------------------
    def _hook(self, spec) -> None:
        name = getattr(spec, "name", "")
        for rule in self.rules:
            if rule.match not in name:
                continue
            n = self._bump(rule) - rule.after
            if rule.action == "count" or not 0 < n <= rule.times:
                continue
            if rule.action == "poison":
                raise ValueError(
                    f"injected poison for {rule.match!r} (firing {n})"
                )
            if rule.action == "crash":
                raise WorkerCrash(
                    f"injected crash for {rule.match!r} (firing {n})"
                )
            if rule.action in ("exit", "hang"):
                if multiprocessing.parent_process() is None:
                    raise WorkerCrash(
                        f"injected {rule.action} for {rule.match!r} fired "
                        f"in the main process (firing {n})"
                    )
                if rule.action == "exit":
                    os._exit(13)
                threading.Event().wait()  # until the pool is killed
            if rule.action == "interrupt":
                raise KeyboardInterrupt(
                    f"injected interrupt for {rule.match!r} (firing {n})"
                )
