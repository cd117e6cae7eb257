"""Analytical sparsity-statistics pricing (``metrics="analytical"``).

Sparseloop-style statistical modeling: instead of walking real nonzeros,
expected metrics — per-rank fiber occupancy, read/write/intersection
traffic, compute ops, buffer occupancy — are computed in closed form from
a :class:`WorkloadStats` summary (density, nnz-per-fiber distribution,
rank shapes).  No tensor ever needs to exist in memory: statistics can be
extracted from a real :class:`~repro.fibertree.tensor.Tensor` *or*
constructed directly from parameters, which is what makes million-workload
sweeps and interactive what-if queries affordable.

Accuracy contract
-----------------
Every other metrics mode of :func:`repro.model.evaluate.evaluate` is
*exact* (bit-identical to the traced reference).
``"analytical"`` is deliberately **approximate**: it prices expectations
under an independence model of coordinate occupancy, so per-metric
relative error is non-zero and grows with correlation (power-law inputs,
deep occupancy splits, buffered bindings).  The cross-validation suite
(``tests/model/test_analytical.py``) measures and pins the bounds; see the
README's "Analytical pricing tier" section for the documented numbers.

The statistical model
---------------------
:class:`TensorStats` answers one query — ``distinct(ranks)``, the expected
number of distinct projections of the tensor's nonzero points onto a
subset of its ranks — under three occupancy models:

* *measured* (``from_tensor``): exact subset-distinct counts from the real
  coordinate set (``np.unique`` over packed projections), memoized per
  subset; the default whenever a tensor is available.
* *uniform* (``uniform``): ``nnz`` distinct points drawn uniformly without
  replacement from the full coordinate space; occupied-bin expectations in
  closed form.
* *power-law* (``power_law``): per-rank Zipf(alpha) marginal weights
  matching :func:`repro.workloads.synthetic.power_law` (whose random
  permutation decorrelates ranks, making the product-of-marginals cell
  model faithful in expectation), with an effective with-replacement draw
  count solved so the full-space distinct count equals ``nnz``.

The pricing walk
----------------
One pass over each Einsum's :class:`~repro.ir.nodes.LoopNestIR` loop
ranks, mirroring the executor's event accounting in expectation:
conditional fiber occupancies (``distinct`` ratios) give per-rank trip
counts; intersection/union/single modes give coordinate and payload read
counts plus ``isect`` totals; chunk levels from shape/occupancy splits
give occupied-bin trips and follower windows; the leaf gives expected
effectual multiplies, adds (including reduction collisions), and output
writes.  Events are then routed through the *same*
:meth:`~repro.model.evaluate.ModelSink._route` binding logic as the exact
paths and priced in bulk; buffet fills/drains and cache hit rates are
estimated from expected distinct-key counts per evict window (the one
coarse, ±2x-class part of the model — exact paths remain the reference
for buffered specs).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..einsum.ast import Access, Add, Expr, Mul, Take
from ..fibertree.arena import FlatArena
from ..fibertree.rankid import rank_of_var
from ..fibertree.tensor import Tensor
from ..ir.codegen import _existential_ranks
from ..ir.nodes import FLAT, FLAT_UPPER, PLAIN, UPPER, VIRTUAL, LoopNestIR
from ..spec.loader import AcceleratorSpec
from .backend import GLOBAL_COMPILE_CACHE
from .components import CacheModel
from .energy import EnergyModel
from .evaluate import EvaluationResult, ModelSink, fuse_blocks
from .executor import _level_can_drive
from .footprint import FootprintOracle, RankStats

__all__ = [
    "TensorStats",
    "WorkloadStats",
    "AnalyticalResult",
    "EinsumEstimate",
    "UnresolvedRankShapeError",
    "derive_output_stats",
    "evaluate_analytical",
]

#: Cell-count ceiling for exact power-law subset sums; larger subspaces
#: fall back to the uniform closed form.  Each substitution is tallied on
#: the owning :class:`TensorStats` (``approximations``) and surfaced on
#: :attr:`AnalyticalResult.approximations` — the bound only triggers for
#: giant shapes where the uniform tail is accurate anyway, but users can
#: now see when the closed form was substituted.
_MAX_CELLS = 4_000_000


class UnresolvedRankShapeError(ValueError):
    """A cascade intermediate's rank shape could not be resolved.

    Raised instead of silently pricing the rank against shape 1: the
    shape must come from the workload shapes, the spec's declared
    shapes, or one of the producing Einsum's input statistics."""


def _occupied(bins: float, per_bin: float, n: float, space: float) -> float:
    """E[#occupied bins]: ``n`` distinct points uniform over ``space``
    cells grouped into ``bins`` bins of ``per_bin`` cells each."""
    if n <= 0 or bins <= 0 or space <= 0:
        return 0.0
    frac = n / space
    if frac >= 1.0:
        return float(bins)
    return float(bins) * -math.expm1(per_bin * math.log1p(-frac))


def _collide(slots: float, n: float) -> float:
    """E[#occupied slots] for ``n`` independent draws over ``slots``."""
    if n <= 0 or slots <= 0:
        return 0.0
    if slots == 1:
        return 1.0
    return slots * -math.expm1(n * math.log1p(-1.0 / slots))


class TensorStats:
    """Occupancy statistics of one sparse tensor.

    The single query is :meth:`distinct`: the expected number of distinct
    projections of the tensor's nonzero points onto a subset of its ranks
    (``()`` -> 1, the root fiber; all ranks -> ``nnz``).  Conditional
    fiber occupancies are ratios of ``distinct`` values.
    """

    def __init__(self, name: str, rank_ids: Sequence[str],
                 shape: Sequence[int], nnz: float, *,
                 coords: Optional[np.ndarray] = None,
                 weights: Optional[Dict[str, np.ndarray]] = None):
        self.name = name
        self.rank_ids = [str(r) for r in rank_ids]
        self.shape = {r: int(s) for r, s in zip(self.rank_ids, shape)}
        self.nnz = float(nnz)
        self._coords = coords
        self._weights = weights
        self._draws: Optional[float] = None
        self._memo: Dict[Tuple[str, ...], float] = {(): 1.0}
        #: Closed-form substitutions made while answering queries
        #: (e.g. ``"powerlaw-uniform-tail"`` when a subset query exceeds
        #: ``_MAX_CELLS``), surfaced on ``AnalyticalResult.approximations``.
        self.approximations: Counter = Counter()
        #: Names of the tensors this one was derived from (transitively),
        #: when built by :func:`derive_output_stats`.  Intersections treat
        #: an ancestor's occupancy as implied by the derived tensor's.
        self.derived_from: frozenset = frozenset()

    # ------------------------------------------------------------------
    @classmethod
    def from_tensor(cls, tensor: Tensor) -> "TensorStats":
        """Measured statistics: exact subset-distinct counts."""
        shape = []
        arr = np.zeros((0, tensor.num_ranks), dtype=np.int64)
        if tensor.num_ranks:
            cols = FlatArena.from_tensor(tensor).columns()
            if len(cols[0]):
                arr = np.column_stack(
                    [np.asarray(col, dtype=np.int64) for col in cols])
        for d, extent in enumerate(tensor.shape):
            if extent is None:
                extent = int(arr[:, d].max()) + 1 if len(arr) else 1
            shape.append(int(extent))
        return cls(tensor.name, tensor.rank_ids, shape, len(arr), coords=arr)

    @classmethod
    def uniform(cls, name: str, rank_ids: Sequence[str],
                shape: Sequence[int], density: Optional[float] = None,
                nnz: Optional[float] = None) -> "TensorStats":
        """Uniform Bernoulli occupancy at a target density / nnz."""
        space = 1.0
        for s in shape:
            space *= int(s)
        if nnz is None:
            if density is None:
                raise ValueError("uniform stats need density= or nnz=")
            nnz = round(space * float(density))
        return cls(name, rank_ids, shape, min(float(nnz), space))

    @classmethod
    def power_law(cls, name: str, rank_ids: Sequence[str],
                  shape: Sequence[int], nnz: float,
                  alpha: float = 1.1) -> "TensorStats":
        """Zipf(alpha) per-rank marginals, decorrelated across ranks
        (matching :func:`repro.workloads.synthetic.power_law`)."""
        weights = {}
        for r, s in zip(rank_ids, shape):
            w = 1.0 / np.power(np.arange(1, int(s) + 1, dtype=np.float64),
                               float(alpha))
            weights[str(r)] = w / w.sum()
        return cls(name, rank_ids, shape, float(nnz), weights=weights)

    # ------------------------------------------------------------------
    @property
    def space(self) -> float:
        out = 1.0
        for s in self.shape.values():
            out *= s
        return out

    @property
    def density(self) -> float:
        space = self.space
        return self.nnz / space if space else 0.0

    def shape_of(self, rank: str) -> int:
        return self.shape.get(rank, 1)

    # ------------------------------------------------------------------
    def _cell_probs(self, ranks: Tuple[str, ...]) -> Optional[np.ndarray]:
        cells = 1.0
        for r in ranks:
            cells *= self.shape[r]
        if cells > _MAX_CELLS:
            return None
        probs = np.ones(1, dtype=np.float64)
        for r in ranks:
            probs = np.outer(probs, self._weights[r]).ravel()
        return probs

    def _powerlaw_draws(self) -> float:
        """Effective with-replacement draw count: solves E[distinct over
        the full space] == nnz, so subset queries stay consistent."""
        if self._draws is not None:
            return self._draws
        probs = self._cell_probs(tuple(self.rank_ids))
        if probs is None or self.nnz <= 0:
            if probs is None:
                self.approximations["powerlaw-uniform-tail"] += 1
            self._draws = max(self.nnz, 0.0)
            return self._draws
        log1m = np.log1p(-np.minimum(probs, 1.0 - 1e-15))

        def expected(d: float) -> float:
            return float(-np.expm1(d * log1m).sum())

        lo, hi = self.nnz, max(self.nnz * 2.0, 1.0)
        for _ in range(64):
            if expected(hi) >= self.nnz - 1e-9:
                break
            lo, hi = hi, hi * 2.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if expected(mid) < self.nnz:
                lo = mid
            else:
                hi = mid
        self._draws = 0.5 * (lo + hi)
        return self._draws

    def distinct(self, ranks: Iterable[str]) -> float:
        """Expected number of distinct projections onto ``ranks``."""
        subset = tuple(r for r in self.rank_ids if r in set(ranks))
        if len(subset) == len(self.rank_ids):
            return self.nnz
        memo = self._memo.get(subset)
        if memo is not None:
            return memo
        if self._coords is not None:
            value = self._measured_distinct(subset)
        elif self._weights is not None:
            value = self._powerlaw_distinct(subset)
        else:
            bins = 1.0
            for r in subset:
                bins *= self.shape[r]
            space = self.space
            value = _occupied(bins, space / bins if bins else 0.0,
                              self.nnz, space)
        value = max(value, 1.0 if self.nnz > 0 else 0.0)
        self._memo[subset] = value
        return value

    def distinct_thinned(self, ranks: Iterable[str], q: float) -> float:
        """Expected distinct projections onto ``ranks`` when each nonzero
        survives independently with probability ``q`` — the element
        subsampling a chunk window on *other* ranks induces.  Uses the
        equal-occupancy approximation: ``distinct(ranks)`` bins holding
        ``nnz / distinct(ranks)`` points each."""
        d = self.distinct(ranks)
        if q >= 1.0 or d <= 0.0 or self.nnz <= 0.0:
            return d
        per_bin = self.nnz / d
        return d * -math.expm1(per_bin * math.log1p(-min(max(q, 0.0),
                                                         1.0 - 1e-12)))

    def _measured_distinct(self, subset: Tuple[str, ...]) -> float:
        if not len(self._coords):
            return 0.0
        cols = [self.rank_ids.index(r) for r in subset]
        packed = np.zeros(len(self._coords), dtype=np.int64)
        for c in cols:
            packed = packed * (self.shape[self.rank_ids[c]] + 1) \
                + self._coords[:, c]
        return float(len(np.unique(packed)))

    def _powerlaw_distinct(self, subset: Tuple[str, ...]) -> float:
        probs = self._cell_probs(subset)
        if probs is None:
            self.approximations["powerlaw-uniform-tail"] += 1
            bins = 1.0
            for r in subset:
                bins *= self.shape[r]
            space = self.space
            return _occupied(bins, space / bins, self.nnz, space)
        draws = self._powerlaw_draws()
        log1m = np.log1p(-np.minimum(probs, 1.0 - 1e-15))
        return float(-np.expm1(draws * log1m).sum())


class WorkloadStats:
    """Per-tensor statistics plus merged rank shapes for one workload."""

    def __init__(self, tensors: Dict[str, TensorStats]):
        self.tensors = dict(tensors)

    @classmethod
    def from_tensors(cls, tensors: Dict[str, Tensor]) -> "WorkloadStats":
        return cls({name: TensorStats.from_tensor(t)
                    for name, t in tensors.items()})

    def shapes(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for ts in self.tensors.values():
            for r, s in ts.shape.items():
                out.setdefault(r, s)
        return out

    def __contains__(self, name: str) -> bool:
        return name in self.tensors

    def __getitem__(self, name: str) -> TensorStats:
        return self.tensors[name]


# ----------------------------------------------------------------------
# Stats-backed stand-ins for the exact path's Tensor/oracle plumbing
# ----------------------------------------------------------------------
class _ProxyTensor:
    """A statistics-backed stand-in for a stored :class:`Tensor`.

    Carries exactly what :class:`~repro.model.evaluate.EvaluationResult`
    and the footprint oracle consult — name, rank ids (already in mapping
    order, so ``stored()`` never swizzles), shapes, and derived
    :class:`RankStats`.  It holds **no points**: calling ``points()`` or
    iterating it is a bug by construction.
    """

    def __init__(self, name: str, rank_ids: Sequence[str],
                 shape: Sequence[Optional[int]], stats: TensorStats):
        self.name = name
        self.rank_ids = list(rank_ids)
        self.shape = list(shape)
        self.stats = stats

    @property
    def num_ranks(self) -> int:
        return len(self.rank_ids)

    @property
    def nnz(self) -> float:
        return self.stats.nnz

    def rank_stats(self) -> Dict[str, RankStats]:
        out = {}
        known = [r for r in self.rank_ids if r in self.stats.shape]
        for d, rank in enumerate(self.rank_ids):
            prefix = [r for r in known if self.rank_ids.index(r) < d]
            fibers = self.stats.distinct(prefix)
            elements = self.stats.distinct(prefix + [rank]) \
                if rank in self.stats.shape else fibers
            shape = self.shape[d]
            s = RankStats()
            s.fibers = fibers
            s.elements = elements
            s.shape_slots = fibers * shape if shape is not None else elements
            out[rank] = s
        return out


class _StatsOracle(FootprintOracle):
    """Footprint oracle whose per-tensor stats come from proxies."""

    def stats_of(self, tensor) -> Dict[str, RankStats]:
        if isinstance(tensor, _ProxyTensor):
            key = id(tensor)
            if key not in self._stats_cache:
                self._stats_cache[key] = tensor.rank_stats()
            return self._stats_cache[key]
        return super().stats_of(tensor)


class _StatsSink(ModelSink):
    """A :class:`ModelSink` with the oracle swapped for the stats-backed
    variant; routing, model construction, and pricing stay inherited."""

    def __init__(self, spec: AcceleratorSpec, env: Dict[str, Tensor]):
        super().__init__(spec, env)
        self.oracle = _StatsOracle(self.oracle.formats, self.oracle.config_of)


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class EinsumEstimate:
    """Analytical intermediates of one Einsum, for inspection/tests."""

    name: str
    trips: Dict[str, float] = field(default_factory=dict)
    leaf_count: float = 0.0
    effectual_leaves: float = 0.0
    output_nnz: float = 0.0
    lanes: float = 1.0
    buffer_occupancy_bits: Dict[str, float] = field(default_factory=dict)


@dataclass
class AnalyticalResult(EvaluationResult):
    """An :class:`EvaluationResult` whose ``env`` holds stats-backed
    proxies (no points!) plus the statistics and per-Einsum estimates."""

    stats: Optional[WorkloadStats] = None
    estimates: Dict[str, EinsumEstimate] = field(default_factory=dict)
    #: ``"tensor:substitution" -> count`` tally of every closed-form
    #: substitution made while pricing (power-law subset queries falling
    #: back to the uniform tail past ``_MAX_CELLS``, cascade
    #: intermediates priced as uncorrelated uniform stats because the
    #: producing expression couldn't be join-modeled, ...).
    approximations: Dict[str, int] = field(default_factory=dict)


# ----------------------------------------------------------------------
# Split/chunk geometry from the mapping
# ----------------------------------------------------------------------
def _chunk_geometry(spec: AcceleratorSpec, ir: LoopNestIR,
                    shapes: Dict[str, int]):
    """Per upper loop rank: chunk metadata; per lowest split rank: span.

    Returns ``(chunk_meta, spans, flat_shapes, flat_components)`` where
    ``chunk_meta[rank]`` is ``("shape", span_above, span_here)`` or
    ``("occupancy", leader, size)``, ``spans[rank]`` is the coordinate
    span of the innermost split level (the window width a fixed chunk
    path selects), ``flat_shapes[rank]`` is the composed coordinate
    space of a flattened rank — each component resolved from the base
    shapes *or* from the span its own split left behind (a flatten over a
    split tail like SIGMA's ``(M, K0)`` composes ``shape(M) * span(K0)``,
    it does not bypass the occupancy model) — and
    ``flat_components[rank]`` names the flattened rank's base declared
    ranks, so occupancy queries on flattened fibers resolve against the
    source tensors' statistics.
    """
    replay = spec.mapping.for_einsum(ir.name).replay(
        [rank_of_var(v) for v in ir.einsum.all_vars])
    base_shape = dict(shapes)
    chunk_meta: Dict[str, tuple] = {}
    spans: Dict[str, float] = {}
    flat_shapes: Dict[str, float] = {}
    flat_components: Dict[str, List[str]] = {}
    for step in replay.steps:  # all applied: the IR was built from them
        target, splits, names = step.target, step.splits, step.names
        if step.flatten:
            prod = 1.0
            for k in step.key:
                prod *= base_shape.get(k) or spans.get(k) or 1
            base_shape[target] = prod
            flat_shapes[target] = prod
            flat_components[target] = list(replay.bases[target])
        if not splits:
            continue
        span_prev = float(base_shape.get(target) or 1)
        for nm, d in zip(names[:-1], splits):
            size = float(d.resolve_size(spec.params))
            if d.kind == "uniform_shape":
                chunk_meta[nm] = ("shape", span_prev, size)
                span_prev = size
            else:
                chunk_meta[nm] = ("occupancy", d.leader, size)
        if splits[-1].kind == "uniform_shape":
            spans[names[-1]] = float(splits[-1].resolve_size(spec.params))
    return chunk_meta, spans, flat_shapes, flat_components


def _stat_ranks(lvl, origin: Dict[str, str]) -> List[str]:
    """The base declared rank(s) a level's occupancy is measured over.

    Split loop ranks (``K1``, ``K0``) resolve to their base rank via
    ``ir.origin``; flattened levels resolve each component variable."""
    if lvl.kind in (FLAT, FLAT_UPPER):
        ranks: List[str] = []
        for e in lvl.exprs:
            for v in e.vars:
                r = rank_of_var(v)
                r = origin.get(r, r)
                if r not in ranks:
                    ranks.append(r)
        if ranks:
            return ranks
    base = lvl.of or lvl.rank
    return [origin.get(base, base)]


def _upper_window_survives(st: "_PlanState", lvl) -> bool:
    """Does this split level's chunk window reach the followers?

    The executor adopts a leader's partition boundaries from the chunk
    payload's ``coord_range``, which only exists when the level directly
    below the upper (in the leader's own storage order) belongs to the
    same base rank — an interposed rank (``[K1, M, K0]``) rebuilds the
    subtree through a swizzle and drops the range, leaving followers
    co-iterating their full fibers."""
    nxt = st.levels[st.pos + 1] if st.pos + 1 < len(st.levels) else None
    if nxt is None or nxt.kind == VIRTUAL:
        return False
    return (nxt.of or nxt.rank) == (lvl.of or lvl.rank)


# ----------------------------------------------------------------------
# Per-plan walk state
# ----------------------------------------------------------------------
class _PlanState:
    def __init__(self, plan, stats: TensorStats):
        self.plan = plan
        self.stats = stats
        self.levels = plan.levels
        self.pos = 0
        self.bound: List[str] = []  # declared ranks descended so far
        # Base rank -> fraction of that rank's *elements* still reachable:
        # split-chunk descents narrow it, composing with the
        # conditional-occupancy ratios of :meth:`cond_occ` until the rank
        # is finally consumed.
        self.window: Dict[str, float] = {}
        # Base rank -> fraction of the rank's coordinate *span* the
        # reachable elements live in (1/bins for shape splits, 1/chunks
        # for occupancy splits).  Governs co-iteration densities.
        self.span: Dict[str, float] = {}
        self.present_q = 1.0  # leaf presence probability (non-conj paths)
        self.consumed_at: Dict[str, int] = {}  # base rank -> loop index
        # Loop index -> the window dict as it stood once that rank (and
        # everything above it) had narrowed/consumed — the re-reference
        # state a buffet evicting at that rank sees per window.
        self.window_trace: Dict[int, Dict[str, float]] = {}

    def peek(self):
        return self.levels[self.pos] if self.pos < len(self.levels) else None

    def advance(self):
        self.pos += 1

    def snapshot(self, loop_idx: int) -> None:
        self.window_trace[loop_idx] = dict(self.window)

    def _d_eff(self, ranks: List[str],
               window: Optional[Dict[str, float]] = None) -> float:
        """Expected distinct projections of the *reachable* elements
        onto ``ranks``: the subset-distinct count thinned by windows on
        the remaining ranks (element subsampling), scaled by windows on
        ``ranks`` themselves (coordinate-span selection)."""
        if window is None:
            window = self.window
        q = 1.0
        for r, w in window.items():
            if r not in ranks:
                q *= w
        d = self.stats.distinct_thinned(ranks, q)
        for r in ranks:
            d *= window.get(r, 1.0)
        return d

    def cond_occ(self, ranks: List[str]) -> float:
        """Expected children per fiber node at the next level: the ratio
        of windowed-thinned distinct counts.

        Windows on the fresh ranks restrict coordinates directly; windows
        on *other* unconsumed ranks subsample the element population the
        distinct counts are taken over.  Without that thinning, deep
        multi-rank tilings (e.g. ExTensor's three-level splits) overcount
        every inner fiber's occupancy by the full-tensor distinct ratio;
        taking the ratio of two thinned counts (rather than thinning the
        numerator alone) keeps element mass conserved down the walk —
        levels below a thinned rank see the multiplicity conditioned on
        the occupied contexts the walk already charged."""
        fresh = [r for r in ranks if r not in self.bound]
        if not fresh:
            return 1.0
        num = self._d_eff(self.bound + fresh)
        den = max(self._d_eff(list(self.bound)), 1e-12)
        return max(num / den, 0.0)

    def narrow(self, rank: str, elem_frac: float, span_frac: float) -> None:
        """Record a chunk descent: ``elem_frac`` of the rank's elements
        remain reachable, confined to ``span_frac`` of its span."""
        self.window[rank] = self.window.get(rank, 1.0) * elem_frac
        self.span[rank] = self.span.get(rank, 1.0) * span_frac

    def span_frac(self, ranks: List[str]) -> float:
        """Fraction of the fresh ranks' coordinate span still visible."""
        frac = 1.0
        for r in ranks:
            if r not in self.bound:
                frac *= self.span.get(r, 1.0)
        return frac

    def window_span(self, ranks: List[str]) -> float:
        """Coordinate-space size the fresh ranks select from.  Chunk
        windows shrink span and occupancy symmetrically, so hit rates
        (occ / span) stay invariant under narrowing."""
        span = 1.0
        for r in ranks:
            if r in self.bound:
                continue
            span *= self.stats.shape_of(r) * self.window.get(r, 1.0)
        return span

    def consume(self, ranks: List[str], loop_idx: int) -> None:
        for r in ranks:
            if r not in self.bound:
                self.bound.append(r)
            self.window.pop(r, None)
            self.span.pop(r, None)
            self.consumed_at.setdefault(r, loop_idx)


# ----------------------------------------------------------------------
# Leaf expression accounting
# ----------------------------------------------------------------------
def _leaf_ops(expr: Expr, q: List[float], _counter=None):
    """(presence prob, expected muls, expected adds) per leaf visit."""
    if _counter is None:
        _counter = [0]
    if isinstance(expr, Access):
        idx = _counter[0]
        _counter[0] += 1
        return q[idx], 0.0, 0.0
    if isinstance(expr, Mul):
        p, muls, adds = 1.0, 0.0, 0.0
        for f in expr.factors:
            pf, mf, af = _leaf_ops(f, q, _counter)
            p *= pf
            muls += mf
            adds += af
        muls += (len(expr.factors) - 1) * p
        return p, muls, adds
    if isinstance(expr, Add):
        pl, ml, al = _leaf_ops(expr.left, q, _counter)
        pr, mr, ar = _leaf_ops(expr.right, q, _counter)
        p = 1.0 - (1.0 - pl) * (1.0 - pr)
        return p, ml + mr, al + ar + pl * pr
    if isinstance(expr, Take):
        p = 1.0
        for _ in expr.args:
            idx = _counter[0]
            _counter[0] += 1
            p *= q[idx]
        return p, 0.0, 0.0
    raise TypeError(f"cannot price expression node {expr!r}")


# ----------------------------------------------------------------------
# Join statistics for cascade intermediates
# ----------------------------------------------------------------------
def _subsets(ranks: Sequence[str]) -> List[Tuple[str, ...]]:
    out: List[Tuple[str, ...]] = [()]
    for r in ranks:
        out += [s + (r,) for s in out]
    return out


class _JoinTable:
    """Per-subset expected distinct counts of a conjunctive join.

    The statistical object behind :func:`derive_output_stats`: ``d(S)``
    is the expected number of distinct projections of the join's
    effectual points onto the rank subset ``S``, built bottom-up from
    the participating tensors' own subset-distinct tables under the
    two-finger intersection model (shared-rank overlap ``dx*dy/space``,
    per-side survival thinning for one-sided projections)."""

    def __init__(self, ranks: Sequence[str], shape: Dict[str, float],
                 nnz: float, table: Dict[frozenset, float],
                 derived_from: Iterable[str]):
        self.ranks = list(ranks)
        self.shape = dict(shape)
        self.nnz = float(nnz)
        self._table = table
        self.derived_from = frozenset(derived_from)

    @classmethod
    def of_access(cls, ts: TensorStats, exposed: Sequence[str],
                  tensor_ranks: Sequence[str]) -> "_JoinTable":
        """One access's table; ``exposed[i]`` is the iteration rank the
        access binds to the tensor's declared rank ``tensor_ranks[i]``."""
        m = dict(zip(exposed, tensor_ranks))
        table = {frozenset(s): ts.distinct([m[r] for r in s])
                 for s in _subsets(exposed)}
        shape = {e: float(ts.shape.get(t, 1) or 1)
                 for e, t in zip(exposed, tensor_ranks)}
        return cls(exposed, shape, ts.nnz, table,
                   {ts.name} | set(ts.derived_from))

    def space(self, ranks: Iterable[str]) -> float:
        out = 1.0
        for r in ranks:
            out *= max(self.shape.get(r, 1.0), 1.0)
        return out

    def d(self, ranks: Iterable[str]) -> float:
        return self._table[frozenset(ranks)]

    def distinct_thinned(self, ranks: Iterable[str], q: float) -> float:
        d = self.d(ranks)
        if q >= 1.0 or d <= 0.0 or self.nnz <= 0.0:
            return d
        per_bin = self.nnz / d
        return d * -math.expm1(per_bin * math.log1p(-min(max(q, 0.0),
                                                         1.0 - 1e-12)))


def _join_tables(X: _JoinTable, Y: _JoinTable) -> _JoinTable:
    """The conjunctive join of two tables over their shared ranks."""
    # Containment first: a side derived from the other side's tensors is
    # already conditioned on its presence, so the conjunction adds no
    # new constraint (S = take(A, B) then T = take(A, S): A ∧ S = S).
    # Joining with the independence model instead would square the
    # correlation away a second time.
    if X.derived_from <= Y.derived_from and set(X.ranks) <= set(Y.ranks):
        shape = dict(X.shape)
        shape.update(Y.shape)
        return _JoinTable(Y.ranks, shape, Y.nnz, dict(Y._table),
                          X.derived_from | Y.derived_from)
    if Y.derived_from <= X.derived_from and set(Y.ranks) <= set(X.ranks):
        shape = dict(Y.shape)
        shape.update(X.shape)
        return _JoinTable(X.ranks, shape, X.nnz, dict(X._table),
                          X.derived_from | Y.derived_from)
    J = [r for r in X.ranks if r in Y.ranks]
    Jset = set(J)
    ranks = X.ranks + [r for r in Y.ranks if r not in X.ranks]
    shape = dict(Y.shape)
    shape.update(X.shape)
    dxJ = max(X.d(J), 1e-12)
    dyJ = max(Y.d(J), 1e-12)
    spaceJ = 1.0
    for r in J:
        spaceJ *= max(shape.get(r, 1.0), 1.0)
    # Expected overlap of the two sides' shared-rank projections, then
    # each side's survival probability given the overlap.
    dJ = min(dxJ * dyJ / max(spaceJ, 1.0), dxJ, dyJ) if J else 1.0
    qx = min(dJ / dxJ, 1.0)
    qy = min(dJ / dyJ, 1.0)
    nnz = dJ * (X.nnz / dxJ) * (Y.nnz / dyJ)

    def full_d(sx: List[str], sy: List[str]) -> float:
        return dJ * (X.d(J + sx) / dxJ) * (Y.d(J + sy) / dyJ)

    table: Dict[frozenset, float] = {}
    for S in _subsets(ranks):
        Sset = set(S)
        Sx = [r for r in X.ranks if r in Sset and r not in Jset]
        Sy = [r for r in Y.ranks if r in Sset and r not in Jset]
        Sj = [r for r in J if r in Sset]
        if not S:
            D = 1.0
        elif len(Sj) == len(J):
            # All shared ranks kept: per-overlap multiplicities multiply.
            D = full_d(Sx, Sy)
        elif not Sy:
            # One-sided projection: X's own distinct count, thinned by
            # the elements that found a partner.
            D = X.distinct_thinned(Sj + Sx, qx)
        elif not Sx:
            D = Y.distinct_thinned(Sj + Sy, qy)
        else:
            # Both sides contribute but part of J is dropped: project
            # the full-J count down, joint coordinates spread uniformly
            # over the dropped shared-rank space.
            full = full_d(Sx, Sy)
            spaceS = 1.0
            for r in S:
                spaceS *= max(shape.get(r, 1.0), 1.0)
            spaceSJ = spaceS
            for r in J:
                if r not in Sset:
                    spaceSJ *= max(shape.get(r, 1.0), 1.0)
            D = _occupied(spaceS, spaceSJ / max(spaceS, 1.0), full,
                          spaceSJ)
        spaceS = 1.0
        for r in S:
            spaceS *= max(shape.get(r, 1.0), 1.0)
        D = min(D, nnz, spaceS)
        if nnz >= 1.0 and S:
            D = max(D, 1.0)
        table[frozenset(S)] = D
    # A projection never has more distinct points than any superset.
    for S in sorted(table, key=len, reverse=True):
        for r in S:
            sub = S - {r}
            table[sub] = min(table[sub], table[S])
    return _JoinTable(ranks, shape, nnz, table,
                      X.derived_from | Y.derived_from)


def _expr_join(expr: Expr,
               stats_env: Dict[str, TensorStats]) -> Optional[_JoinTable]:
    """Join table of a conjunctive expression, or None when the shape of
    the expression defeats the join model (Add nodes, affine or literal
    indices, repeated variables, missing input statistics)."""
    if isinstance(expr, Access):
        ts = stats_env.get(expr.tensor)
        if ts is None or expr.indices is None:
            return None
        if len(expr.indices) != len(ts.rank_ids):
            return None
        exposed = []
        for ie in expr.indices:
            if not ie.is_var:
                return None
            exposed.append(rank_of_var(ie.vars[0]))
        if len(set(exposed)) != len(exposed):
            return None
        return _JoinTable.of_access(ts, exposed, ts.rank_ids)
    if isinstance(expr, (Mul, Take)):
        parts = expr.factors if isinstance(expr, Mul) else expr.args
        out: Optional[_JoinTable] = None
        for p in parts:
            t = _expr_join(p, stats_env)
            if t is None:
                return None
            out = t if out is None else _join_tables(out, t)
        return out
    return None


def derive_output_stats(ir: LoopNestIR,
                        stats_env: Dict[str, TensorStats],
                        shapes: Dict[str, int]) -> Optional[TensorStats]:
    """Statistics of a cascade intermediate, carried out of the producing
    Einsum's join model instead of synthesized as uncorrelated uniform.

    The returned :class:`TensorStats` has every rank-subset distinct
    count prefilled from the join table (so consumers see the real
    correlation structure — Gamma's and OuterSPACE's second Einsums,
    SIGMA's ``take`` chain) and carries ``derived_from`` ancestry so
    intersections can treat an ancestor's occupancy as already implied.
    Returns None when the expression can't be join-modeled; raises
    :class:`UnresolvedRankShapeError` when an output rank's shape can't
    be resolved from the workload, the spec, or any input statistics."""
    joint = _expr_join(ir.einsum.expr, stats_env)
    if joint is None:
        return None
    out_ranks = list(ir.output.storage_ranks)
    if any(r not in joint.ranks for r in out_ranks):
        return None
    shape = []
    for r in out_ranks:
        s = shapes.get(r) or joint.shape.get(r)
        if not s or s <= 0:
            raise UnresolvedRankShapeError(
                f"rank {r!r} of cascade intermediate "
                f"{ir.output.tensor!r} (Einsum {ir.name}) has no "
                f"resolvable shape: not in the workload shapes, the "
                f"spec's declared shapes, or the producing expression's "
                f"input statistics; pass shapes={{{r!r}: ...}}"
            )
        shape.append(int(round(s)))
    nnz = joint.d(out_ranks)
    ts = TensorStats(ir.output.tensor, out_ranks, shape, nnz=nnz)
    for S in _subsets(out_ranks):
        if 0 < len(S) < len(out_ranks):
            ts._memo[S] = max(min(joint.d(S), nnz),
                              1.0 if nnz >= 1.0 else 0.0)
    ts.derived_from = joint.derived_from
    return ts


# ----------------------------------------------------------------------
# The per-Einsum pricing walk
# ----------------------------------------------------------------------
def _price_einsum(ir: LoopNestIR, spec: AcceleratorSpec,
                  stats_env: Dict[str, TensorStats],
                  shapes: Dict[str, int], sink: ModelSink) -> EinsumEstimate:
    sink.einsum_begin(ir.name, ir)
    em = sink.current
    est = EinsumEstimate(name=ir.name)

    chunk_meta, spans, flat_shapes, flat_components = \
        _chunk_geometry(spec, ir, shapes)
    existential = _existential_ranks(ir)

    def stat_ranks(lvl) -> List[str]:
        """Level stat ranks with flattened ranks expanded to their base
        declared components (``MK0`` -> ``[M, K]``), so flattened fibers
        price against the source tensors' occupancy."""
        out: List[str] = []
        for r in _stat_ranks(lvl, ir.origin):
            for b in flat_components.get(r, (r,)):
                if b not in out:
                    out.append(b)
        return out

    plans = []
    for plan in ir.accesses:
        ts = stats_env.get(plan.tensor)
        if ts is None:
            raise ValueError(
                f"no statistics for tensor {plan.tensor!r} of Einsum "
                f"{ir.name}; pass stats= covering every cascade input"
            )
        plans.append(_PlanState(plan, ts))

    reads: Counter = Counter()  # (tensor, rank, kind) -> expected count
    writes: Counter = Counter()
    mult = 1.0
    mult_at: Dict[str, float] = {}
    lanes = 1.0
    space_set = set(ir.space_ranks)

    def shape_of(rank: str) -> float:
        base = ir.origin.get(rank, rank)
        if rank in spans:
            return spans[rank]
        s = ir.rank_shapes.get(rank)
        if s is None:
            s = shapes.get(base)
        if s is None:
            s = flat_shapes.get(base)
        return float(s) if s else 1.0

    def full_shape_of(rank: str) -> float:
        """The unsplit base-rank span (co-iteration densities compose it
        with each participant's own span fraction); flattened ranks
        resolve to their composed component space."""
        base = ir.origin.get(rank, rank)
        s = shapes.get(base)
        if s is None:
            s = flat_shapes.get(base)
        if s is None:
            s = ir.rank_shapes.get(rank)
        return float(s) if s else 1.0

    def drain_literals(st: _PlanState) -> float:
        """Consume literal-indexed levels (FFT-style ``P[0, ...]``)."""
        gate = 1.0
        while True:
            lvl = st.peek()
            if lvl is None or not lvl.exprs or lvl.kind == VIRTUAL:
                break
            if not all(e.is_literal for e in lvl.exprs):
                break
            sr = stat_ranks(lvl)
            occ = st.cond_occ(sr)
            hit = min(1.0, occ / max(st.window_span(sr), 1.0))
            reads[(st.plan.tensor, lvl.of or lvl.rank, "coord")] += mult
            reads[(st.plan.tensor, lvl.of or lvl.rank, "payload")] += \
                mult * hit
            st.consume(sr, -1)
            st.advance()
            if st.plan.conjunctive:
                gate *= hit
            else:
                st.present_q *= hit
        return gate

    for st in plans:
        mult *= drain_literals(st)

    for loop_idx, rank in enumerate(ir.loop_ranks):
        for st in plans:
            mult *= drain_literals(st)  # mid-nest literal-indexed levels
        binds = ir.binds.get(rank, ())
        drivers: List[Tuple[_PlanState, object]] = []
        lookups: List[Tuple[_PlanState, object]] = []
        virtuals: List[Tuple[_PlanState, object]] = []
        for st in plans:
            lvl = st.peek()
            if lvl is None or lvl.rank != rank:
                continue
            if lvl.kind == VIRTUAL:
                virtuals.append((st, lvl))
            elif _level_can_drive(lvl, binds):
                drivers.append((st, lvl))
            else:
                lookups.append((st, lvl))

        meta = chunk_meta.get(rank)
        mode = ir.modes.get(rank, "single")
        base_rank = ir.origin.get(rank, rank)
        S = shape_of(rank)
        S_base = max(full_shape_of(rank), 1.0)
        gate = 1.0
        # Span fraction a surviving leader window passes to followers at
        # this rank (None when the window is structurally lost).
        surviving_sf = None

        # --- trip count + driver reads (expectation of the executor's
        # _single/_intersect/_union/_iterate_dense accounting) ----------
        if not drivers:
            if meta and meta[0] == "shape":
                trip = max(1.0, math.ceil(meta[1] / meta[2]))
            else:
                trip = max(S, 1.0)
        else:
            infos = []  # (st, lvl, occ_elements, trip_i, own co-space)
            for st, lvl in drivers:
                sr = stat_ranks(lvl)
                sp = st.span_frac(sr)
                if lvl.kind in (UPPER, FLAT_UPPER):
                    elems = st.cond_occ(sr)
                    if meta and meta[0] == "shape":
                        span_above, span_here = meta[1], meta[2]
                        nbins = max(1.0, math.ceil(span_above / span_here))
                        t = _occupied(nbins, span_here, elems, span_above)
                        space_i = nbins
                    elif meta and meta[0] == "occupancy":
                        t = max(1.0, elems / max(meta[2], 1.0)) \
                            if elems > 0 else 0.0
                        space_i = max(t, 1.0)
                    else:
                        t = elems
                        space_i = max(t, 1.0)
                    # Upper levels co-iterate over chunk ids, not base
                    # coordinates, so their space is the bin count.
                    infos.append((st, lvl, elems, max(t, 0.0), space_i))
                elif lvl.kind == PLAIN and not lvl.exprs[0].is_var:
                    # Affine projection driver (convolution): the fiber is
                    # shifted into the unbound var and clipped to [0, S).
                    occ = st.cond_occ(sr)
                    span = st.window_span(sr)
                    t = occ * min(1.0, S / max(span, 1.0))
                    infos.append((st, lvl, occ, max(t, 0.0),
                                  max(S_base * sp, 1.0)))
                else:
                    occ = st.cond_occ(sr)
                    infos.append((st, lvl, occ, max(occ, 0.0),
                                  max(S_base * sp, 1.0)))

            if len(infos) == 1:
                st, lvl, elems, trip, _ = infos[0]
                tensor, of = st.plan.tensor, lvl.of or lvl.rank
                # An existential (take) rank stops at its first match:
                # the driver's fiber is scanned only to the first
                # effectual coordinate per enclosing context, not end
                # to end.
                scan = min(trip, 1.0) if rank in existential else trip
                reads[(tensor, of, "coord")] += mult * scan
                reads[(tensor, of, "payload")] += mult * scan
            elif mode == "union":
                # The union ranges over the widest participant's space.
                S_u = max(sx for _, _, _, _, sx in infos)
                dens = 1.0
                for _, _, _, t, _ in infos:
                    dens *= (1.0 - min(t / S_u, 1.0))
                trip = max(S_u * (1.0 - dens),
                           max(t for _, _, _, t, _ in infos))
                for st, lvl, _, t, _ in infos:
                    tensor, of = st.plan.tensor, lvl.of or lvl.rank
                    reads[(tensor, of, "coord")] += mult * trip
                    reads[(tensor, of, "payload")] += mult * t
                    st.present_q *= t / max(trip, 1e-12)
            else:
                # Two-finger intersection over the narrowest window: each
                # participant's density is its reachable elements over
                # its own co-iteration space; matches are the density
                # product over the shared (narrowest) window.
                # A participant some co-participant was *derived from*
                # (take()/join ancestry) is implied present wherever the
                # derived tensor is — dropping its density factor keeps
                # the correlation instead of squaring it away (Gamma's
                # Z = T * A with T ⊆ A x B, SIGMA's take chain).
                anc = set()
                for st_i, _, _, _, _ in infos:
                    anc |= st_i.stats.derived_from
                min_space = min(sx for _, _, _, _, sx in infos)
                matched = min_space
                for st_i, _, _, t, sx in infos:
                    if st_i.stats.name in anc:
                        continue
                    matched *= min(t / max(sx, 1e-12), 1.0)
                matched = min(matched, min(t for _, _, _, t, _ in infos))
                # Elements each participant holds inside the narrow
                # window; the sparsest is consumed fully, wider ones only
                # up to its last coordinate (an n/(n+1) span fraction),
                # and fibers spanning k disjoint narrow windows add the
                # (j+1)/k partial scans of the earlier windows.
                n_win = [t / max(sx / min_space, 1.0)
                         for _, _, _, t, sx in infos]
                n_min = min(n_win)
                visited = 0.0
                for (st, lvl, _, t, sx), n_i in zip(infos, n_win):
                    k = max(sx / max(min_space, 1e-12), 1.0)
                    frac = 1.0 if n_i <= n_min + 1e-9 \
                        else n_min / (n_min + 1.0)
                    vis = t * ((k - 1.0) / 2.0 + frac) / k
                    tensor, of = st.plan.tensor, lvl.of or lvl.rank
                    reads[(tensor, of, "coord")] += mult * vis
                    reads[(tensor, of, "payload")] += mult * matched
                    visited += vis
                sink.isect(rank, mult * visited, mult * matched)
                trip = matched

            # Post-descend bookkeeping per driver: a chunk descent leaves
            # 1/trips of the rank's elements reachable, confined to the
            # chunk's span; both compose with the conditional-occupancy
            # ratio at the eventual leaf level even when other ranks are
            # consumed in between.
            for st, lvl, elems, t, _ in infos:
                sr = stat_ranks(lvl)
                if lvl.kind in (UPPER, FLAT_UPPER):
                    if meta and meta[0] == "shape":
                        sf = meta[2] / max(meta[1], 1e-12)
                    else:
                        sf = 1.0 / max(t, 1.0)
                    st.narrow(sr[0], 1.0 / max(t, 1.0), sf)
                    if _upper_window_survives(st, lvl):
                        surviving_sf = sf
                else:
                    st.consume(sr, loop_idx)
                st.advance()

        # Followers at split ranks adopt the leader's chunk window only
        # when its coord_range survives the leader's storage layout.
        for st, lvl in virtuals:
            if surviving_sf is not None:
                st.narrow(stat_ranks(lvl)[0],
                          surviving_sf, surviving_sf)
            st.advance()

        # Existential (take) ranks stop at the first effectual subtree:
        # coordinate reads above honestly pay the scan, but the subtree
        # below each such rank runs at most once per enclosing context.
        if rank in existential and trip > 1.0:
            gate *= 1.0 / trip
        est.trips[rank] = trip
        mult_new = mult * trip * gate
        if rank in existential:
            mult_new = min(mult_new, mult)

        # --- lookup advances (the executor's _advance_all) -------------
        driver_anc = set()
        for st_d, _ in drivers:
            driver_anc |= st_d.stats.derived_from
        for st, lvl in lookups:
            tensor, of = st.plan.tensor, lvl.of or lvl.rank
            if lvl.kind in (UPPER, FLAT_UPPER):
                reads[(tensor, of, "coord")] += mult_new
                st.advance()
                continue
            sr = stat_ranks(lvl)
            occ = st.cond_occ(sr)
            hit = min(1.0, occ / max(st.window_span(sr), 1.0))
            if st.stats.name in driver_anc:
                # The driving tensor was derived from this one: the
                # lookup is guaranteed to land on a present fiber.
                hit = 1.0
            reads[(tensor, of, "coord")] += mult_new
            reads[(tensor, of, "payload")] += mult_new * hit
            st.consume(sr, loop_idx)
            st.advance()
            if st.plan.conjunctive:
                mult_new *= hit
            else:
                st.present_q *= hit

        if rank in space_set:
            lanes *= max(trip, 1.0)
        mult = mult_new
        mult_at[rank] = mult
        for st in plans:
            st.snapshot(loop_idx)

    # Trailing literal levels below the last loop rank.
    for st in plans:
        mult *= drain_literals(st)

    # ------------------------------------------------------------------
    # Leaf accounting
    # ------------------------------------------------------------------
    q = [st.present_q for st in plans]
    p_root, muls_per, adds_per = _leaf_ops(ir.einsum.expr, q)
    leaves = mult
    effectual = leaves * max(p_root, 0.0)
    muls = leaves * muls_per
    adds = leaves * adds_per

    out_ranks = ir.output.storage_ranks
    out_space = 1.0
    for r in out_ranks:
        out_space *= max(shapes.get(r, 1) or 1, 1)
    out_vars = set(ir.einsum.output.index_vars)
    reduction = set(ir.einsum.all_vars) - out_vars
    if ir.einsum.is_take or not reduction:
        d_out = effectual
    else:
        d_out = min(_collide(out_space, effectual), effectual)
        adds += max(0.0, effectual - d_out)
    # Copy events mirror the executor's leaf accounting: a take() leaf
    # always overwrites its key (never accumulates), and a bare-access
    # reduction pays a copy on each first touch before later visits
    # turn into accumulating adds.
    bare = muls_per == 0 and adds_per == 0
    if ir.einsum.is_take:
        copies = effectual
    elif bare:
        copies = d_out if reduction else effectual
    else:
        copies = 0.0

    if effectual > 0:
        writes[(ir.output.tensor,
                out_ranks[-1] if out_ranks else "root", "elem")] += effectual

    est.leaf_count = leaves
    est.effectual_leaves = effectual
    est.output_nnz = d_out
    est.lanes = lanes

    # ------------------------------------------------------------------
    # Compute / sequencer pricing
    # ------------------------------------------------------------------
    steps = effectual / max(lanes, 1.0)
    per_model: Dict[int, list] = {}
    for op, n in (("mul", muls), ("add", adds), ("copy", copies)):
        if n <= 0:
            continue
        model = em.computes.get(op)
        if model is None:
            model = next(iter(em.computes.values()))
        entry = per_model.setdefault(id(model), [model, 0.0])
        entry[1] += n
    for model, n in per_model.values():
        model.compute_estimate(n, steps, lanes)
    total_ops = muls + adds + copies
    for seq in em.sequencers.values():
        seq.compute(total_ops)

    # Swizzles: consumer side for swizzled intermediates, producer side
    # for discordant output build order.
    for st in plans:
        if st.plan.is_intermediate and any(
            p.kind == "swizzle" for p in st.plan.prep
        ):
            sink.swizzle(st.plan.tensor, st.stats.nnz, side="consumer")
    if ir.output.needs_producer_swizzle:
        sink.swizzle(ir.output.tensor, d_out, side="producer")

    # ------------------------------------------------------------------
    # Route + price data events (buffered models estimated from expected
    # distinct-key counts; unrouted events are bulk DRAM traffic)
    # ------------------------------------------------------------------
    _price_data_events(ir, sink, em, est, plans, reads, writes, mult_at,
                       mult, stats_env, shapes)

    sink.einsum_end(ir.name)
    return est


def _key_rank_sets(model, spec_decl: List[str]) -> List[str]:
    """The declared ranks a routed model's keys span (truncated for
    subtree/eager bindings)."""
    if model.key_depth is not None:
        return spec_decl[: model.key_depth]
    entry_rank = model.binding.rank
    if entry_rank in spec_decl:
        return spec_decl[: spec_decl.index(entry_rank) + 1]
    return list(spec_decl)


def _price_data_events(ir, sink, em, est, plans, reads, writes, mult_at,
                       mult_final, stats_env, shapes) -> None:
    oracle = sink.oracle
    tallies: Dict[int, dict] = {}

    def tally_of(model) -> dict:
        t = tallies.get(id(model))
        if t is None:
            t = tallies[id(model)] = {
                "model": model, "reads": 0.0, "writes": 0.0,
                "tensors": set(),
            }
        return t

    for (tensor, rk, kind), n in reads.items():
        model = sink._route(tensor, rk, kind)
        if model is None:
            em.dram.read_bulk(tensor, oracle.access_bits(tensor, rk, kind),
                              n)
        else:
            t = tally_of(model)
            t["reads"] += n
            t["tensors"].add(tensor)
    for (tensor, rk, kind), n in writes.items():
        model = sink._route(tensor, rk, kind)
        if model is None:
            em.dram.write_bulk(tensor, oracle.access_bits(tensor, rk, kind),
                               n)
        else:
            t = tally_of(model)
            t["writes"] += n
            t["tensors"].add(tensor)

    if not tallies:
        return

    state_by_tensor = {st.plan.tensor: st for st in plans}
    spec = sink.spec

    for t in tallies.values():
        model = t["model"]
        tensor = model.binding.tensor
        decl = spec.einsum.declaration.get(tensor, [])
        key_ranks = _key_rank_sets(model, list(decl))
        ts = stats_env.get(tensor)
        if ts is not None:
            known = [r for r in key_ranks if r in ts.shape]
            k_total = max(ts.distinct(known), 1.0)
        else:
            k_total = 1.0
            for r in key_ranks:
                k_total *= max(shapes.get(r, 1) or 1, 1)
        touches = t["reads"] + t["writes"]
        if isinstance(model, CacheModel):
            foot = k_total * model.fill_bits
            if foot <= model.capacity_bits or touches <= k_total:
                misses = min(k_total, touches)
            else:
                misses = k_total + (touches - k_total) * \
                    (1.0 - model.capacity_bits / foot)
            misses = min(misses, touches)
            hits = touches - misses
            wb = min(k_total, t["writes"]) if t["writes"] else 0.0
            fill_reads = misses * (t["reads"] / touches) if touches else 0.0
            model.price_actions({
                "reads": t["reads"], "writes": t["writes"],
                "hits": hits, "misses": misses, "writebacks": wb,
                "fill_reads": fill_reads,
            })
            est.buffer_occupancy_bits[model.component.name] = min(
                foot, model.capacity_bits)
            continue

        # Buffet: fills once per distinct key per evict window.
        evict = model.binding.evict_on
        if evict is None:
            windows = 1.0
        elif evict in mult_at:
            windows = max(mult_at[evict], 1.0)
        else:
            windows = max(mult_final, 1.0)
        st = state_by_tensor.get(tensor)
        if ts is not None and st is not None and evict in ir.loop_ranks:
            # First-touch fills per evict window: the expected distinct
            # keys *reachable within one window*, conditioned on every
            # rank of the tensor consumed above the evict point and
            # narrowed by the chunk windows live there.  On multi-level
            # tilings (ExTensor's three-level tiles) each sibling chunk
            # window re-references only its own slice of the tensor —
            # pricing the whole-tensor key count per window is what
            # turned every read into a fill.
            evict_idx = ir.loop_ranks.index(evict)
            window = st.window_trace.get(evict_idx, {})
            n_loops = len(ir.loop_ranks)
            bound = [r for r in ts.rank_ids
                     if st.consumed_at.get(r, n_loops) <= evict_idx]
            keys = [r for r in key_ranks if r in ts.shape]
            want = bound + [r for r in keys if r not in bound]
            num = st._d_eff(want, window)
            den = st._d_eff(bound, window)
            k_win = num / max(den, 1.0)
        elif ts is not None:
            known = [r for r in key_ranks if r in ts.shape]
            k_win = ts.distinct(known)
        else:
            k_win = k_total
        k_win = max(min(k_win, k_total), 1.0)

        read_share = t["reads"] / touches if touches else 0.0
        if ts is None and t["writes"] and tensor == ir.output.tensor:
            # Output buffet: within an evict window the same key absorbs
            # every accumulation, so drains are the expected distinct
            # keys per window — write events colliding into the key
            # ranks still free below the evict rank.
            evict_idx = ir.loop_ranks.index(evict) \
                if evict in ir.loop_ranks else -1
            free = 1.0
            for r in key_ranks:
                bound_at = -1
                for i, lr in enumerate(ir.loop_ranks):
                    if any(rank_of_var(v) == r
                           for v in ir.binds.get(lr, ())):
                        bound_at = i
                if bound_at > evict_idx:
                    free *= max(shapes.get(r, 1) or 1, 1)
            e = t["writes"] / windows
            per_win = min(_collide(free, e), e) if free > 1.0 \
                else min(e, 1.0)
            k_out = max(est.output_nnz, 1.0)
            drains = min(max(windows * per_win, k_out), t["writes"])
            fills_w = drains
            po = max(0.0, drains - k_out)
            fills_r = min(t["reads"], drains * read_share) \
                if t["reads"] else 0.0
            model.price_actions({
                "reads": t["reads"], "writes": t["writes"],
                "fills": fills_r + fills_w, "drains": drains,
                "partial_output_fills": po,
                "fill_reads": fills_r + po,
            })
            est.buffer_occupancy_bits[model.component.name] = \
                per_win * model.fill_bits
            continue

        fills_r = min(t["reads"], windows * k_win * read_share) \
            if t["reads"] else 0.0
        fills_w = min(t["writes"], windows * k_win * (1.0 - read_share)) \
            if t["writes"] else 0.0
        drains = fills_w
        po = max(0.0, fills_w - k_total) if t["writes"] else 0.0
        model.price_actions({
            "reads": t["reads"], "writes": t["writes"],
            "fills": fills_r + fills_w, "drains": drains,
            "partial_output_fills": po,
            "fill_reads": fills_r + po,
        })
        est.buffer_occupancy_bits[model.component.name] = \
            k_win * model.fill_bits


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def evaluate_analytical(
    spec: AcceleratorSpec,
    tensors: Optional[Dict[str, Tensor]] = None,
    stats: Optional[WorkloadStats] = None,
    shapes: Optional[Dict[str, int]] = None,
    energy_model: Optional[EnergyModel] = None,
) -> AnalyticalResult:
    """Price a spec from sparsity statistics alone (no tensor walk).

    Either ``stats`` (a :class:`WorkloadStats`) or ``tensors`` (real
    tensors, from which measured statistics are extracted) must be given;
    when both are given ``stats`` wins.  Returns an
    :class:`AnalyticalResult` — approximate by design; see the module
    docstring for the accuracy contract.
    """
    if stats is None:
        if not tensors:
            raise ValueError(
                "evaluate_analytical needs stats= (WorkloadStats) or "
                "tensors= to extract statistics from"
            )
        stats = WorkloadStats.from_tensors(tensors)

    all_shapes: Dict[str, int] = dict(spec.einsum.shapes)
    for name, ts in stats.tensors.items():
        declared = spec.einsum.declaration.get(name)
        if declared is None:
            continue
        for r in ts.rank_ids:
            if r in declared and ts.shape.get(r):
                all_shapes.setdefault(r, ts.shape[r])
    if shapes:
        all_shapes.update(shapes)

    env: Dict[str, Tensor] = {}
    sink = _StatsSink(spec, env)
    stats_env: Dict[str, TensorStats] = dict(stats.tensors)

    def proxy_of(name: str, ts: TensorStats):
        order = spec.mapping.rank_order_of(name, spec.einsum.ranks_of(name))
        shape = [all_shapes.get(r, ts.shape.get(r)) for r in order]
        return _ProxyTensor(name, order, shape, ts)

    for name, ts in stats.tensors.items():
        if name in spec.einsum.declaration:
            env[name] = proxy_of(name, ts)

    approx: Counter = Counter()
    estimates: Dict[str, EinsumEstimate] = {}
    # The compile cache's verified lowering: an exact re-pricing of the
    # same candidate (search's phase 2) reuses it.
    for ir in [u.ir for u in GLOBAL_COMPILE_CACHE.get(spec).units]:
        est = _price_einsum(ir, spec, stats_env, all_shapes, sink)
        estimates[ir.name] = est
        if ir.output.tensor not in stats_env:
            out_ts = derive_output_stats(ir, stats_env, all_shapes)
            if out_ts is None:
                # The join model was defeated (Add nodes, affine or
                # literal indices, repeated variables): fall back to
                # uncorrelated uniform stats at the walk's expected
                # output nnz — and say so in the tally.
                approx[f"{ir.output.tensor}:uniform-intermediate"] += 1
                shape = []
                for r in ir.output.storage_ranks:
                    s = all_shapes.get(r)
                    if not s:
                        for ts_i in stats_env.values():
                            s = ts_i.shape.get(r)
                            if s:
                                break
                    if not s or s <= 0:
                        raise UnresolvedRankShapeError(
                            f"rank {r!r} of cascade intermediate "
                            f"{ir.output.tensor!r} (Einsum {ir.name}) "
                            f"has no resolvable shape: not in the "
                            f"workload shapes, the spec's declared "
                            f"shapes, or any input statistics; pass "
                            f"shapes={{{r!r}: ...}}"
                        )
                    shape.append(int(s))
                out_ts = TensorStats.uniform(
                    ir.output.tensor, ir.output.storage_ranks, shape,
                    nnz=est.output_nnz,
                )
            stats_env[ir.output.tensor] = out_ts
            env[ir.output.tensor] = proxy_of(ir.output.tensor, out_ts)

    for ts in stats_env.values():
        for what, n in ts.approximations.items():
            approx[f"{ts.name}:{what}"] += n

    blocks = fuse_blocks(spec, sink)
    return AnalyticalResult(
        spec=spec,
        einsums=sink.einsums,
        blocks=blocks,
        env=env,
        oracle=sink.oracle,
        energy_model=energy_model or EnergyModel(),
        stats=stats,
        estimates=estimates,
        approximations=dict(approx),
    )
