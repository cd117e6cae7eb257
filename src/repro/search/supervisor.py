"""Fault-tolerant fan-out: timeouts, retries, pool recovery, clean drains.

The search runner and ``evaluate_many`` fan thousands of independent
evaluations out serially or across a process pool; before this module
existed a single hung kernel or dead worker process lost the whole
sweep.  A :class:`SweepSupervisor` wraps one sweep's fan-out with the
durability discipline a day-long DSE run needs:

* **Per-task wall-clock timeouts.**  Each submitted task carries a
  deadline; a task that blows past it is abandoned and classified as a
  transient failure.  A hung worker cannot be preempted from the
  outside, so its whole pool is retired — live tasks on it finish,
  nothing new lands on it, a fresh pool takes over — which keeps hung
  workers from ever starving the sweep; the retired pool's hung
  processes are killed and reaped at :meth:`SweepSupervisor.close`.
  Timeouts require a pool: the serial path cannot preempt its own call
  stack, so the entry points reject ``timeout`` without one.

* **Bounded retry with exponential backoff, by failure class.**
  :func:`classify_failure` splits failures into *transient* (worker
  death, broken pools, timeouts, unrecognized errors — worth retrying)
  and *deterministic* (spec/execution errors that would fail identically
  every time — recorded once, never retried).  Transient failures
  re-submit up to ``max_retries`` times, sleeping
  ``backoff * 2**(attempt-1)`` seconds between attempts; a poison
  candidate therefore costs ``max_retries + 1`` attempts at worst and
  can never wedge a sweep.

* **Graceful pool degradation.**  A broken process pool (a worker died
  mid-task) is torn down and rebuilt once; if the rebuilt pool breaks
  again the batch finishes serially in-process — with an explicit
  :class:`SweepDegradationWarning` each time — instead of dying.  Every
  task in flight at the breakage is retried under what survives.

* **Interrupt drains.**  ``KeyboardInterrupt`` (a real Ctrl-C, or one
  propagated out of a worker) cancels everything not yet running, drains
  in-flight tasks for a bounded grace period, delivers their results to
  the caller's ``on_result`` hook, and re-raises — partial results are
  always usable.

The supervisor is deliberately generic: items are opaque hashables, the
work arrives as callables per batch, and completion/failure hooks let
the caller record progress as it happens.  The search runner
(:mod:`repro.search.runner`) wires it to candidates, publishing every
result and deterministic failure to the sweep's result store (which is
also what a re-run with the same ``cache=`` resumes from);
:func:`~repro.model.evaluate.evaluate_many` wires it to workload
indices.
"""

from __future__ import annotations

import random
import time
import warnings
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..ir.codegen import CodegenError
from ..model.executor import ExecutionError

#: Failure classifications.
TRANSIENT = "transient"
DETERMINISTIC = "deterministic"

#: Exception types that fail the same way on every attempt: spec errors,
#: lowering errors, bad arguments.  Retrying them would waste exactly
#: ``max_retries`` evaluations per poison candidate.
DETERMINISTIC_ERRORS = (
    ExecutionError,
    CodegenError,
    ValueError,
    TypeError,
    KeyError,
    IndexError,
    AttributeError,
    ZeroDivisionError,
    AssertionError,
)

#: How long an interrupt drain waits for in-flight tasks, when no
#: explicit ``timeout`` bounds them already.
DRAIN_GRACE_SECONDS = 5.0

#: What :meth:`SweepSupervisor._call` returns for an item that failed
#: terminally (results themselves may be any object).
_FAILED = object()


class SweepDegradationWarning(RuntimeWarning):
    """A sweep lost capability but kept running: a broken process pool
    was rebuilt, or the sweep fell back from processes to serial."""


class CandidateTimeoutError(RuntimeError):
    """A supervised task exceeded its wall-clock timeout."""


def classify_failure(exc: BaseException) -> str:
    """``TRANSIENT`` (retry) or ``DETERMINISTIC`` (record, never retry).

    Pool breakage and timeouts are transient by construction.  The
    deterministic set is the closed list of error types evaluation
    raises for a structurally bad candidate
    (:data:`DETERMINISTIC_ERRORS`).  Everything unrecognized is
    presumed transient: an unknown failure gets the benefit of a
    bounded retry rather than being dropped on first sight.
    """
    if isinstance(exc, (BrokenExecutor, CandidateTimeoutError)):
        return TRANSIENT
    if isinstance(exc, DETERMINISTIC_ERRORS):
        return DETERMINISTIC
    return TRANSIENT


@dataclass
class FailureRecord:
    """One task's terminal failure, after classification and retries."""

    item: Any
    key: str
    kind: str                 # "timeout" | "error" | "pool"
    classification: str       # TRANSIENT | DETERMINISTIC
    error: str                # repr of the final exception
    attempts: int
    phase: int = 1
    exception: Optional[BaseException] = field(default=None, repr=False)

    def entry(self) -> Dict[str, Any]:
        """The durable fields of this record: what a result store keeps
        for a deterministic failure (see
        :meth:`~repro.store.PersistentStore.put_failure`)."""
        return {"kind": self.kind, "classification": self.classification,
                "error": self.error, "attempts": self.attempts}


@dataclass
class _Task:
    item: Any
    attempts: int            # attempts started, including this one
    submitted: float         # clock() at submission
    pool: Any = None         # the executor this attempt was submitted to


class SweepSupervisor:
    """Supervises one sweep's fan-out (see the module docstring).

    ``workers > 1`` fans batches out over a process pool of up to that
    many workers; ``workers=1`` runs them serially in-process.  The
    supervisor builds the pool lazily, with no more workers than the
    batch has items, and reuses it across batches, so multi-round
    strategies pay pool spin-up once; an idle pool too small for a later,
    larger batch is rebuilt at that batch's size.  :attr:`mode` reads
    ``"process"`` or ``"serial"`` (also after a degradation).  ``sleep``
    and ``clock`` are injectable for deterministic tests.
    """

    def __init__(
        self,
        workers: int = 1,
        timeout: Optional[float] = None,
        max_retries: int = 2,
        backoff: float = 0.05,
        key: Callable[[Any], str] = repr,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
        rng: Optional[random.Random] = None,
        backoff_cap: Optional[float] = None,
    ):
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive (or None)")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.workers = workers
        #: ``"process"`` while batches fan out over the pool, ``"serial"``
        #: for a one-worker sweep or after the rebuilt pool broke again.
        self.mode = "process" if workers > 1 else "serial"
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff = backoff
        #: Upper bound on one jittered backoff sleep; defaults to 20x
        #: the base so a long transient-failure streak cannot stall a
        #: sweep arbitrarily.
        self.backoff_cap = (backoff_cap if backoff_cap is not None
                            else backoff * 20.0)
        self.key = key
        self._sleep = sleep
        self._clock = clock
        self._rng = rng if rng is not None else random.Random()
        self._last_backoff = 0.0
        self._process_pool: Optional[ProcessPoolExecutor] = None
        self._pool_size = 0
        self._rebuilt_pool = False
        #: ``(worker processes, manager thread)`` of each pool retired
        #: because one of its workers hung: each pool was shut down
        #: without waiting and replaced by a fresh one, so hung workers
        #: can never starve the live ones; :meth:`close` kills and reaps
        #: them.
        self._abandoned: List[Tuple[List[Any], Any]] = []
        #: Terminal failures across every batch of the sweep.
        self.failures: List[FailureRecord] = []
        #: Human-readable recovery events ("process-pool-rebuilt", ...).
        self.events: List[str] = []
        #: Transient re-submissions performed across the sweep.
        self.retries = 0

    # ---- the pool -----------------------------------------------------
    def _pool(self, size: int) -> ProcessPoolExecutor:
        """The live pool, built with ``size`` workers when there is none."""
        if self._process_pool is None:
            self._process_pool = ProcessPoolExecutor(max_workers=size)
            self._pool_size = size
        return self._process_pool

    def _retire_pool(self) -> None:
        """A worker of the current pool is hung past its deadline: the
        worker cannot be preempted, so the whole pool is retired (its
        live tasks finish; nothing new lands on it) and the next submit
        builds a fresh one."""
        pool = self._process_pool
        if pool is None:
            return
        # Read before shutdown, which drops the pool's process table and
        # its manager thread.
        procs = list((getattr(pool, "_processes", None) or {}).values())
        self._abandoned.append(
            (procs, getattr(pool, "_executor_manager_thread", None)))
        pool.shutdown(wait=False)
        self._process_pool = None

    def _on_pool_broken(self, pool) -> None:
        """Recover from a broken process pool: rebuild once, then finish
        serially — warning explicitly each time.

        ``pool`` is the executor the failing task was submitted to.  A
        single worker death breaks *every* in-flight future of that
        pool, so recovery must run once per broken pool, not once per
        broken future: stale futures of an already-replaced pool only
        requeue their tasks.
        """
        if pool is not self._process_pool:
            return  # this breakage was already recovered from
        self._process_pool.shutdown(wait=False)
        self._process_pool = None
        if not self._rebuilt_pool:
            self._rebuilt_pool = True
            self.events.append("process-pool-rebuilt")
            warnings.warn(
                "a sweep worker process died and broke the process pool; "
                "rebuilding the pool once and retrying the tasks that "
                "were in flight",
                SweepDegradationWarning, stacklevel=3,
            )
        else:
            self.mode = "serial"
            self.events.append("degraded-to-serial")
            warnings.warn(
                "the rebuilt process pool broke again; this sweep "
                "finishes serially in-process (results are unaffected — "
                "serial and process sweeps are bit-identical — but "
                "nothing runs in parallel and timeouts no longer apply)",
                SweepDegradationWarning, stacklevel=3,
            )

    def close(self) -> None:
        """Shut the pool down and reap every process the sweep started.

        Pools retired over hung workers were shut down without waiting
        (joining them would hang forever); their workers are killed
        here.  A killed worker breaks its pool, whose manager thread
        then reaps every worker of that pool.  Two threads reaping one
        child race, and the loser reads no exit code, so ``close``
        waits for that thread before joining the workers itself: on
        return, every worker has exited and carries its exit code.
        """
        if self._process_pool is not None:
            self._process_pool.shutdown(wait=True)
            self._process_pool = None
        for procs, manager in self._abandoned:
            for proc in procs:
                proc.kill()
            if manager is not None:
                manager.join(DRAIN_GRACE_SECONDS)
            for proc in procs:
                proc.join()
        self._abandoned = []

    # ---- failure bookkeeping ------------------------------------------
    def _fail(self, task: _Task, exc: BaseException, kind: str, phase: int,
              on_failure) -> FailureRecord:
        record = FailureRecord(
            item=task.item,
            key=self.key(task.item),
            kind=kind,
            classification=classify_failure(exc),
            error=repr(exc),
            attempts=task.attempts,
            phase=phase,
            exception=exc,
        )
        self.failures.append(record)
        if on_failure is not None:
            on_failure(record)
        return record

    def _should_retry(self, task: _Task, exc: BaseException) -> bool:
        if classify_failure(exc) != TRANSIENT:
            return False
        return task.attempts <= self.max_retries

    def _backoff_for(self, attempts: int) -> float:
        """The next retry sleep: decorrelated jitter, capped.

        ``min(cap, rng.uniform(base, max(3 * previous, base)))`` — the
        classic decorrelated-jitter schedule.  It grows roughly as fast
        as plain exponential backoff, but two workers that fail at the
        same instant (one died process breaks *every* in-flight future
        of a pool) re-submit at *different* times instead of hammering
        the recovering pool — or, under the batch job runner, a shared
        filesystem — in lockstep.  ``rng`` is injectable at
        construction for deterministic tests; a zero ``backoff``
        disables sleeping entirely, jitter included.
        """
        if self.backoff <= 0:
            return 0.0
        prev = self._last_backoff if self._last_backoff > 0 else self.backoff
        value = min(self.backoff_cap,
                    self._rng.uniform(self.backoff,
                                      max(3.0 * prev, self.backoff)))
        self._last_backoff = value
        return value

    # ---- serial supervision -------------------------------------------
    def _call(self, item, call, attempts: int, phase: int, on_result,
              on_failure):
        """Run ``item`` in-process until it succeeds or fails terminally
        (``attempts`` already spent on it elsewhere count against the
        retry budget).  Returns the result, or :data:`_FAILED`."""
        while True:
            attempts += 1
            try:
                result = call(item)
            except KeyboardInterrupt:
                raise
            except Exception as exc:
                task = _Task(item, attempts, 0.0)
                if self._should_retry(task, exc):
                    self.retries += 1
                    self._sleep(self._backoff_for(attempts))
                    continue
                self._fail(task, exc, "error", phase, on_failure)
                return _FAILED
            if on_result is not None:
                on_result(item, result, attempts)
            return result

    def run_serial(self, items, call, phase: int = 1, on_result=None,
                   on_failure=None) -> List[Tuple[Any, Any]]:
        """Supervised sequential evaluation: same retry/classification
        policy as the pooled path, no timeouts (a serial call cannot be
        preempted), results in item order."""
        completed: List[Tuple[Any, Any]] = []
        for item in items:
            result = self._call(item, call, 0, phase, on_result, on_failure)
            if result is not _FAILED:
                completed.append((item, result))
        return completed

    # ---- pooled supervision -------------------------------------------
    def run_batch(self, items, call, payload=None, process_worker=None,
                  phase: int = 1, on_result=None, on_failure=None
                  ) -> List[Tuple[Any, Any]]:
        """Evaluate one batch under supervision.

        ``payload(item)`` + ``process_worker`` (a picklable top-level
        function) is the process-pool form; ``call(item)`` is the
        in-process form, run for a serial sweep, for a one-item batch
        with no timeout (pool dispatch would only add start-up), and for
        what is left of a batch after the pool degraded.  Results come
        back as ``(item, result)`` pairs *in the order of ``items``* —
        completions only; terminal failures land in :attr:`failures`
        (and ``on_failure``).  ``on_result`` fires as each item
        completes, including during an interrupt drain.
        """
        items = list(items)
        if self.mode == "serial" or (len(items) <= 1
                                     and self.timeout is None):
            return self.run_serial(items, call, phase=phase,
                                   on_result=on_result,
                                   on_failure=on_failure)

        results: Dict[Any, Any] = {}
        pending: Dict[Any, _Task] = {}   # future -> task
        queue: List[Tuple[Any, int]] = [(item, 0) for item in items]
        queue.reverse()  # pop() from the end, preserving item order
        # At most one task per item is ever in flight, so a pool wider
        # than the batch would only fork idle workers.  Between batches
        # the pool is idle, so a too-small one is rebuilt at this size.
        size = min(self.workers, len(items))
        if self._process_pool is not None and self._pool_size < size:
            self._process_pool.shutdown(wait=True)
            self._process_pool = None

        def submit(item, attempts) -> None:
            task = _Task(item, attempts + 1, self._clock())
            while self.mode == "process":
                pool = self._pool(size)
                try:
                    fut = pool.submit(process_worker, payload(item))
                except BrokenExecutor:
                    # The pool died between batches or between submits;
                    # recover and resubmit under what survives.
                    self._on_pool_broken(pool)
                    continue
                task.pool = pool
                pending[fut] = task
                return
            # Degraded: the rest of the batch runs in-process.
            result = self._call(item, call, attempts, phase, on_result,
                                on_failure)
            if result is not _FAILED:
                results[item] = result

        def settle(fut, task) -> None:
            """Deliver one finished future: success, retry, or failure."""
            try:
                result = fut.result()
            except KeyboardInterrupt:
                raise
            except BrokenExecutor as exc:
                self._on_pool_broken(task.pool)
                if self._should_retry(task, exc):
                    self.retries += 1
                    queue.append((task.item, task.attempts))
                else:
                    self._fail(task, exc, "pool", phase, on_failure)
            except Exception as exc:
                if self._should_retry(task, exc):
                    self.retries += 1
                    self._sleep(self._backoff_for(task.attempts))
                    queue.append((task.item, task.attempts))
                else:
                    self._fail(task, exc, "error", phase, on_failure)
            else:
                results[task.item] = result
                if on_result is not None:
                    on_result(task.item, result, task.attempts)

        try:
            while queue or pending:
                while queue and len(pending) < self.workers:
                    item, attempts = queue.pop()
                    submit(item, attempts)
                if not pending:
                    continue
                if self.timeout is None:
                    wait_for = None
                else:
                    now = self._clock()
                    wait_for = max(
                        0.0,
                        min(task.submitted + self.timeout - now
                            for task in pending.values()),
                    )
                done, _ = wait(list(pending), timeout=wait_for,
                               return_when=FIRST_COMPLETED)
                for fut in done:
                    settle(fut, pending.pop(fut))
                if self.timeout is not None:
                    now = self._clock()
                    expired = [
                        fut for fut, task in pending.items()
                        if now - task.submitted >= self.timeout
                    ]
                    for fut in expired:
                        task = pending.pop(fut)
                        if (not fut.cancel()
                                and task.pool is self._process_pool):
                            # Already running: the worker cannot be
                            # preempted, so its pool is retired (a fresh
                            # pool replaces it — hung workers never
                            # starve live tasks).
                            self._retire_pool()
                        exc = CandidateTimeoutError(
                            f"task {self.key(task.item)} exceeded the "
                            f"{self.timeout}s wall-clock timeout "
                            f"(attempt {task.attempts})"
                        )
                        if self._should_retry(task, exc):
                            self.retries += 1
                            queue.append((task.item, task.attempts))
                        else:
                            self._fail(task, exc, "timeout", phase,
                                       on_failure)
        except KeyboardInterrupt:
            self._drain(pending, results, on_result)
            raise
        order = {id(item): i for i, item in enumerate(items)}
        return sorted(results.items(), key=lambda kv: order[id(kv[0])])

    def _drain(self, pending, results, on_result) -> None:
        """Interrupt drain: cancel what never started, give in-flight
        tasks a bounded grace period, and deliver what finished."""
        for fut in list(pending):
            if fut.cancel():
                pending.pop(fut)
        if not pending:
            return
        grace = self.timeout if self.timeout is not None \
            else DRAIN_GRACE_SECONDS
        done, _ = wait(list(pending), timeout=grace)
        for fut in done:
            task = pending.pop(fut)
            try:
                result = fut.result()
            except BaseException:
                continue  # failures during a drain are not retried
            results[task.item] = result
            if on_result is not None:
                on_result(task.item, result, task.attempts)
