"""Result containers for mapping-space search.

:class:`ExplorationResult` keeps the historical exhaustive sweep's shape —
a list of ``(Candidate, EvaluationResult)`` pairs with ranking helpers —
and :class:`SearchResult` extends it with what a strategy-driven,
possibly pruned run adds: the phase-1 surrogate scores, the strategy
name, and run statistics.  :class:`CascadeSearchResult` collects one
:class:`SearchResult` per Einsum of a cascade sweep.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..model.evaluate import EvaluationResult
from .space import Candidate


#: Every ranking scalar a search can sort on, by name.
_METRICS = {
    "exec_seconds": lambda res: res.exec_seconds,
    "cycles": lambda res: res.exec_cycles,
    "traffic": lambda res: res.traffic_bytes(),
    "energy": lambda res: res.energy_pj,
}


def check_metric(metric: str) -> None:
    """Raise ``ValueError`` naming the known metrics unless ``metric``
    is one :func:`metric_value` can extract."""
    if metric not in _METRICS:
        raise ValueError(f"unknown metric {metric!r}; known: "
                         + ", ".join(repr(m) for m in _METRICS))


def metric_value(res: EvaluationResult, metric: str) -> float:
    """Extract one scalar search metric from an evaluation result."""
    check_metric(metric)
    return _METRICS[metric](res)


def metrics_fingerprint(res: EvaluationResult) -> str:
    """A hex digest over every modeled metric of one evaluation.

    Hashes the exact bit patterns (``float.hex``) of execution time,
    DRAM traffic, and energy, plus the sorted action counts — the
    quantities the bit-identical contracts of this codebase are stated
    over.  Two results fingerprint equal iff an assertion-by-assertion
    comparison of those metrics would pass, which is what sweep re-run
    and parallel-vs-serial identity checks need in one scalar.
    """
    h = hashlib.sha256()
    h.update(float(res.exec_seconds).hex().encode())
    h.update(float(res.traffic_bytes()).hex().encode())
    h.update(float(res.energy_pj).hex().encode())
    for action, n in sorted(res.action_counts().items()):
        h.update(action.encode())
        h.update(float(n).hex().encode())
    return h.hexdigest()


@dataclass
class ExplorationResult:
    """Ranked outcomes of a mapping sweep."""

    candidates: List[Tuple[Candidate, EvaluationResult]] = field(
        default_factory=list
    )

    def _metric(self, res: EvaluationResult, metric: str) -> float:
        return metric_value(res, metric)

    def ranked(self, metric: str = "exec_seconds"):
        return sorted(self.candidates,
                      key=lambda pair: self._metric(pair[1], metric))

    def best(self, metric: str = "exec_seconds"):
        if not self.candidates:
            raise ValueError("no candidates evaluated")
        return self.ranked(metric)[0]

    def to_table(self, metric: str = "exec_seconds",
                 top: Optional[int] = None) -> str:
        """A quick ranking dump: one row per candidate, best first.

        Columns: rank, the sort metric, cycles, DRAM traffic (bytes),
        energy (pJ), and the candidate's mapping description.
        """
        rows = self.ranked(metric)
        if top is not None:
            rows = rows[:top]
        header = (f"{'#':>3}  {metric:>14}  {'cycles':>12}  "
                  f"{'traffic_B':>12}  {'energy_pJ':>14}  mapping")
        lines = [header, "-" * len(header)]
        for k, (cand, res) in enumerate(rows, 1):
            lines.append(
                f"{k:>3}  {self._metric(res, metric):>14.6g}  "
                f"{res.exec_cycles:>12.6g}  {res.traffic_bytes():>12.6g}  "
                f"{res.energy_pj:>14.6g}  {cand.describe()}"
            )
        return "\n".join(lines)


@dataclass
class SearchResult(ExplorationResult):
    """Outcome of one strategy-driven search over one Einsum's mappings.

    ``candidates`` holds only the *fully priced* candidates (every
    candidate when the run did not prune; the top-k survivors when it
    did), so :meth:`best`/:meth:`ranked` always compare exact metrics
    against exact metrics.  ``scores`` records the phase-1 surrogate
    score of everything the strategy proposed, in proposal order.
    ``failures`` records candidates that could not be priced under a
    supervised run (:class:`~repro.search.supervisor.FailureRecord`
    entries: poison candidates, exhausted retries, timeouts) — empty on
    unsupervised runs, which still raise on the first error.
    """

    scores: List[Tuple[Candidate, float]] = field(default_factory=list)
    strategy: str = "exhaustive"
    metric: str = "exec_seconds"
    pruned_to: Optional[int] = None
    stats: Dict[str, float] = field(default_factory=dict)
    failures: List = field(default_factory=list)

    @property
    def n_scored(self) -> int:
        """How many candidates the strategy proposed (phase 1)."""
        return len(self.scores)

    @property
    def n_priced(self) -> int:
        """How many candidates got full (exact) metrics (phase 2)."""
        return len(self.candidates)

    def ranked_scores(self) -> List[Tuple[Candidate, float]]:
        """Phase-1 scores, best (lowest) first."""
        return sorted(self.scores, key=lambda cs: cs[1])


@dataclass
class CascadeSearchResult:
    """Per-Einsum search results of a cascade sweep, best prefix carried
    forward in cascade (topological) order."""

    per_einsum: Dict[str, SearchResult] = field(default_factory=dict)
    best_candidates: Dict[str, Candidate] = field(default_factory=dict)
    spec: Optional[object] = None  # the spec with every best mapping applied
    best_result: Optional[EvaluationResult] = None

    def best(self) -> Dict[str, Candidate]:
        return dict(self.best_candidates)

    def to_table(self, metric: str = "exec_seconds") -> str:
        """One ranking block per Einsum, in cascade order."""
        blocks = []
        for name, result in self.per_einsum.items():
            blocks.append(f"== {name} ==")
            blocks.append(result.to_table(metric=metric))
        return "\n".join(blocks)
