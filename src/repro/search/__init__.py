"""Mapping-space search: strategies, parallel pruned evaluation, cascades.

The paper positions TeAAL as the evaluation kernel inside a hierarchical
design-space-exploration flow; this package is that flow's inner loop.
It splits the problem into three orthogonal pieces:

* :mod:`repro.search.space` — the space itself: :class:`Candidate`,
  :class:`MappingSpace` (enumeration, sampling, neighborhood moves),
  and :func:`apply_candidate`;
* :mod:`repro.search.strategies` — pluggable candidate generators behind
  :class:`SearchStrategy`: exhaustive, seeded random, greedy beam;
* :mod:`repro.search.runner` — candidate evaluation (serial in-process,
  sharing the compile + prep caches, or a process pool), top-k pruning
  (with an exact re-pricing phase after the analytical surrogate), and
  the entry points :func:`search` and :func:`explore_cascade`;
* :mod:`repro.search.supervisor` — the fault-tolerance layer:
  per-candidate timeouts, bounded retry with failure classification,
  and broken-pool recovery;
* :mod:`repro.search.jobs` — the same sweep as an on-disk batch job:
  :func:`submit` shards the space into a job directory, any number of
  independent worker processes :func:`claim` leased shards (abandoned
  leases expire and are re-claimed), and :func:`gather` assembles a
  result bit-identical to an in-process ``search()``.

Every per-candidate outcome — of a cached sweep and of a job — is
written to one place, the cross-process persistent store
(:mod:`repro.store`, exposed as ``search(..., cache=dir)``): results
and deterministic failures under content keys.  A killed or
interrupted sweep re-run with the same ``cache=`` adopts them and
evaluates only what is missing; ``gather`` reads them back.
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
from .results import (
    CascadeSearchResult,
    ExplorationResult,
    SearchResult,
    check_metric,
    metric_value,
    metrics_fingerprint,
)
from .runner import (
    SearchRunner,
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
    candidate_key,
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
    "MappingSpace",
    "PayloadVersionError",
    "RandomSearch",
    "SearchResult",
    "SearchRunner",
    "SearchStrategy",
    "ShardClaim",
    "SweepDegradationWarning",
    "SweepSupervisor",
    "apply_candidate",
    "candidate_key",
    "check_metric",
    "claim",
    "classify_failure",
    "enumerate_candidates",
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
