"""In-memory span recorder that times calls into the library's layers.

Spans are recorded from the benchmark's own files: :func:`Tracer.install`
wraps public entry points of each ``repro`` layer (module attributes and
class methods, looked up by name) for the duration of a traced pass and
restores the originals afterwards, so untraced passes run the unmodified
code.  Nothing under ``src/`` is edited.

A span is ``(id, parent, name, start, end, thread)``.  Within one thread
the parent is the innermost open span; a span opened on a pool worker
thread with nothing open there is parented to the innermost span open
on the client thread (the pool call waiting for it), so every span of
one operation shares its root and a pool call's self time is only the
part of it no worker span covers.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "thread", "attrs")

    def __init__(self, id_, parent, name, start, thread):
        self.id = id_
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start
        self.thread = thread
        self.attrs: Dict[str, object] = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "start": self.start, "end": self.end, "thread": self.thread,
                **({"attrs": self.attrs} if self.attrs else {})}


#: Layer boundaries the traced run wraps: (module, attribute path, span
#: name).  A dotted attribute path wraps a method on a class.  Module
#: attributes are wrapped where the *caller* looks them up, since
#: ``from x import f`` binds a second name.
PATCH_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.search.runner", "apply_candidate", "spec.apply_candidate"),
    ("repro.analysis", "feasibility_findings", "analysis.lint"),
    ("repro.model.evaluate", "lint_gate", "analysis.lint"),
    ("repro.model.backend", "CompileCache.get", "ir.compile_cache"),
    ("repro.model.backend", "prepare_tensor", "fibertree.prep"),
    ("repro.model.backend", "arena_from_tensor", "fibertree.prep"),
    ("repro.model.executor", "prepare_tensor", "fibertree.prep"),
    ("repro.model.backend", "CompiledBackend.run_cascade", "model.kernel"),
    ("repro.model.backend", "CompiledBackend.run_cascade_counted",
     "model.kernel"),
    ("repro.model.backend", "CompiledBackend.run_cascade_fused",
     "model.kernel"),
    ("repro.model.evaluate", "evaluate", "model.evaluate"),
    ("repro.search.runner", "evaluate", "model.evaluate"),
    ("repro.search.supervisor", "SweepSupervisor.run_batch",
     "search.supervisor"),
    ("repro.store.persistent", "PersistentStore.get", "store.get"),
    ("repro.store.persistent", "PersistentStore.put", "store.put"),
    ("repro.graph.driver", "execute_cascade", "model.interp"),
)


class Tracer:
    """Records spans in memory; :meth:`install` wraps the layer calls."""

    def __init__(self):
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        #: The client thread's open-span stack during an operation.
        self._client: Optional[list] = None
        self._saved: List[Tuple[object, str, object]] = []

    # ---- recording ----------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        else:
            try:
                parent = self._client[-1].id
            except (TypeError, IndexError):  # no operation open
                parent = None
        with self._lock:
            span = Span(self._next_id, parent, name, time.perf_counter(),
                        threading.get_ident())
            self._next_id += 1
            self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        span = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(span)

    def operation(self, key: str, fn: Callable):
        """Run one benchmark operation as the root of its spans."""
        span = self.begin("bench.op")
        span.attrs["op"] = key
        self._client = self._stack()
        try:
            return fn()
        finally:
            self.end(span)
            self._client = None

    # ---- wrapping the library -----------------------------------------
    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self

        if name == "ir.compile_cache":
            @functools.wraps(fn)
            def traced_get(cache, spec):
                hits = cache.hits
                span = tracer.begin(name)
                try:
                    return fn(cache, spec)
                finally:
                    tracer.end(span)
                    span.attrs["hit"] = cache.hits > hits
            return traced_get

        if name == "model.evaluate":
            @functools.wraps(fn)
            def traced_evaluate(*args, **kwargs):
                analytical = kwargs.get("metrics") == "analytical"
                span = tracer.begin("model.analytical" if analytical
                                    else name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.end(span)
            return traced_evaluate

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(span)
        return traced

    def install(self) -> None:
        """Wrap every patch point (idempotent until :meth:`uninstall`)."""
        if self._saved:
            return
        for module_name, path, name in PATCH_POINTS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # ---- analysis -----------------------------------------------------
    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def outermost(self, name: str) -> List[Span]:
        """Spans of ``name`` not nested inside another span of ``name``
        (so a layer that re-enters itself is not counted twice)."""
        by_id = {s.id: s for s in self.spans}
        out = []
        for s in self.spans:
            if s.name != name:
                continue
            p = by_id.get(s.parent)
            while p is not None and p.name != name:
                p = by_id.get(p.parent)
            if p is None:
                out.append(s)
        return out

    def self_times(self) -> Dict[str, Tuple[float, int]]:
        """Per span name: (self seconds, span count).  Self time is a
        span's duration minus the part of it its children cover."""
        children: Dict[int, List[Span]] = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append(s)
        out: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
        for s in self.spans:
            covered = _covered(s, children.get(s.id, ()))
            acc = out[s.name]
            acc[0] += max(0.0, s.seconds - covered)
            acc[1] += 1
        return {k: (v[0], int(v[1])) for k, v in out.items()}


def _covered(span: Span, kids) -> float:
    """Length of the union of ``kids``' intervals clipped to ``span``."""
    intervals = sorted((max(k.start, span.start), min(k.end, span.end))
                       for k in kids)
    total = 0.0
    cur_start = cur_end = None
    for a, b in intervals:
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def format_self_time_table(workload: str, tracer: Tracer,
                           n_ops: int) -> str:
    """The per-layer self-time table of one traced run."""
    rows = sorted(tracer.self_times().items(), key=lambda kv: -kv[1][0])
    total = sum(v[0] for _, v in rows) or 1.0
    lines = [f"self time per layer, workload {workload} "
             f"({n_ops} traced operations)",
             f"{'span':<24}{'calls':>8}{'self s':>12}{'s/op':>12}"
             f"{'share':>8}"]
    for name, (secs, calls) in rows:
        lines.append(f"{name:<24}{calls:>8d}{secs:>12.4f}"
                     f"{secs / max(n_ops, 1):>12.5f}"
                     f"{100 * secs / total:>7.1f}%")
    return "\n".join(lines)
