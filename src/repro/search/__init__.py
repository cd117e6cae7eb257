"""Mapping-space search: strategies, parallel pruned evaluation, cascades.

The paper positions TeAAL as the evaluation kernel inside a hierarchical
design-space-exploration flow; this package is that flow's inner loop.
It splits the problem into three orthogonal pieces:

* :mod:`repro.search.space` — the space itself: :class:`Candidate`,
  :class:`MappingSpace` (enumeration, sampling, neighborhood moves),
  and :func:`apply_candidate`;
* :mod:`repro.search.strategies` — pluggable candidate generators behind
  :class:`SearchStrategy`: exhaustive, seeded random, greedy beam;
* :mod:`repro.search.runner` — parallel candidate evaluation (threads or
  processes, shared compile + prep caches), top-k pruning (with an
  exact re-pricing phase after the analytical surrogate), and the entry points :func:`search`, :func:`explore`, and
  :func:`explore_cascade`;
* :mod:`repro.search.supervisor` / :mod:`repro.search.journal` — the
  fault-tolerance layer: per-candidate timeouts, bounded retry with
  failure classification, broken-pool recovery, and crash-safe
  journal/manifest artifacts behind ``search(..., journal=...)`` and
  bit-identical resumption behind ``search(..., resume=...)``;
* :mod:`repro.search.jobs` — the same sweep as an on-disk batch job:
  :func:`submit` shards the space into a job directory, any number of
  independent worker processes :func:`claim` leased shards (abandoned
  leases expire and are re-claimed), and :func:`gather` assembles a
  result bit-identical to an in-process ``search()``.  Pairs with the
  cross-process persistent cache (:mod:`repro.store`, exposed as
  ``search(..., cache=dir)``).

``repro.explore`` remains as a thin compatibility shim over this package.
"""

from ..store import PayloadVersionError
from .jobs import (
    JobError,
    JobStatus,
    ShardClaim,
    claim,
    gather,
    poll,
    run_worker,
    submit,
)
from .journal import (
    JournalError,
    ResumeMismatchError,
    SweepJournal,
    candidate_key,
)
from .results import (
    CascadeSearchResult,
    ExplorationResult,
    SearchResult,
    metric_value,
    metrics_fingerprint,
)
from .runner import (
    SearchRunner,
    explore,
    explore_cascade,
    search,
)
from .supervisor import (
    CandidateTimeoutError,
    FailureRecord,
    SweepDegradationWarning,
    SweepSupervisor,
    classify_failure,
)
from .space import (
    Candidate,
    MappingSpace,
    apply_candidate,
    enumerate_candidates,
)
from .strategies import (
    BeamSearch,
    ExhaustiveSearch,
    RandomSearch,
    SearchStrategy,
    resolve_strategy,
)

__all__ = [
    "BeamSearch",
    "Candidate",
    "CandidateTimeoutError",
    "CascadeSearchResult",
    "ExhaustiveSearch",
    "ExplorationResult",
    "FailureRecord",
    "JobError",
    "JobStatus",
    "JournalError",
    "MappingSpace",
    "PayloadVersionError",
    "RandomSearch",
    "ResumeMismatchError",
    "SearchResult",
    "SearchRunner",
    "SearchStrategy",
    "ShardClaim",
    "SweepDegradationWarning",
    "SweepJournal",
    "SweepSupervisor",
    "apply_candidate",
    "candidate_key",
    "claim",
    "classify_failure",
    "enumerate_candidates",
    "explore",
    "explore_cascade",
    "gather",
    "metric_value",
    "metrics_fingerprint",
    "poll",
    "resolve_strategy",
    "run_worker",
    "search",
    "submit",
]
