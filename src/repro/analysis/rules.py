"""The spec linter: a rule registry over all five declarative layers.

``verify_spec(spec)`` runs every registered rule and returns the
findings, sorted errors-first.  Each rule is small, independent, and
registered with an id (``layer/what-it-catches``), a severity, and —
for the rules cheap and sound enough to reject search candidates — a
``feasibility`` flag; :func:`feasibility_findings` runs exactly that
error-severity subset, which is what the search runner uses to drop
statically-infeasible candidates before pricing anything.

Rules never mutate the spec and never raise on malformed input: a layer
too broken for a rule to inspect either yields findings or is skipped
(another rule owns that breakage).  Four rules (unknown rank-order
tensors, non-permutation rank orders, mapping and binding blocks for
unknown Einsums) are the loader's ``LOAD_CHECKS``, which
``AcceleratorSpec.validate()`` raises on, registered here unchanged:
search candidates built by ``apply_candidate`` (and any directly
constructed spec) bypass the loader.  Rank names derived by
partitioning come from one replay,
:meth:`~repro.spec.mapping.EinsumMapping.replay` — the one the IR
builder lowers with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..einsum.ast import accesses
from ..fibertree.rankid import rank_of_var
from ..spec.errors import SpecError
from ..spec.loader import LOAD_CHECKS, AcceleratorSpec
from ..spec.mapping import EinsumMapping, PartitionReplay
from .findings import ERROR, INFO, WARN, Finding, sort_findings

__all__ = ["LintContext", "Rule", "RULES", "rule", "verify_spec",
           "feasibility_findings", "rule_catalog"]


# ----------------------------------------------------------------------
# Context shared by every rule
# ----------------------------------------------------------------------
@dataclass
class LintContext:
    """Everything a rule may consult: the spec plus optional workload
    knowledge (rank shapes, sparsity statistics) that unlocks the
    shape- and capacity-dependent rules."""

    spec: AcceleratorSpec
    shapes: Dict[str, int] = field(default_factory=dict)
    stats: Optional[object] = None  # WorkloadStats, duck-typed
    _replays: Dict[Tuple[str, Optional[Tuple[str, ...]]],
                   PartitionReplay] = field(
        default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        merged = dict(self.spec.einsum.shapes)
        merged.update(self.shapes)
        self.shapes = merged

    # ---- einsum layer helpers ----------------------------------------
    @property
    def einsum_names(self) -> List[str]:
        return list(self.spec.einsum.cascade.produced)

    def base_ranks(self, einsum: str) -> List[str]:
        return [rank_of_var(v)
                for v in self.spec.einsum.cascade[einsum].all_vars]

    def mapping_for(self, einsum: str) -> EinsumMapping:
        return self.spec.mapping.for_einsum(einsum)

    # ---- partitioning ------------------------------------------------
    def replay(self, einsum: str,
               ranks: Optional[Sequence[str]] = None) -> PartitionReplay:
        """The Einsum's partitioning replayed over ``ranks`` (default: its
        iteration ranks), memoized for the lint pass."""
        key = (einsum, None if ranks is None else tuple(ranks))
        if key not in self._replays:
            self._replays[key] = self.mapping_for(einsum).replay(
                self.base_ranks(einsum) if ranks is None else ranks)
        return self._replays[key]

    def rank_span(self, rank: str) -> Optional[int]:
        """The coordinate span of a (possibly flattened) rank name."""
        if rank in self.shapes:
            return self.shapes[rank]
        return None


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Rule:
    """One registered lint rule."""

    id: str
    severity: str
    doc: str
    fn: Callable[[LintContext], Iterable[Finding]]
    feasibility: bool = False  # sound + cheap enough to reject candidates


RULES: Dict[str, Rule] = {}


def rule(rule_id: str, severity: str, *, feasibility: bool = False,
         doc: str = ""):
    """Register a lint rule.  The decorated function receives a
    :class:`LintContext` and yields :class:`Finding`s."""

    def deco(fn):
        if rule_id in RULES:
            raise ValueError(f"duplicate rule id {rule_id!r}")
        RULES[rule_id] = Rule(rule_id, severity,
                              doc or (fn.__doc__ or "").strip(), fn,
                              feasibility)
        return fn

    return deco


def rule_catalog() -> List[Rule]:
    """Every registered rule, sorted by id (the README table source)."""
    return [RULES[k] for k in sorted(RULES)]


def _load_check_rule(rule_id: str, doc: str, check) -> None:
    @rule(rule_id, ERROR, doc=doc)
    def _rule(ctx: LintContext):
        for path, message in check(ctx.spec):
            yield Finding(rule_id, ERROR, message, path=path)


for _rule_id, (_doc, _check) in LOAD_CHECKS.items():
    _load_check_rule(_rule_id, _doc, _check)


def verify_spec(spec: AcceleratorSpec, *,
                shapes: Optional[Dict[str, int]] = None,
                stats=None,
                rules: Optional[Sequence[str]] = None) -> List[Finding]:
    """Run the lint rules over a spec and return sorted findings.

    ``shapes`` merges over the spec's declared rank shapes and unlocks
    the shape-dependent rules (tile divisibility / over-partitioning);
    ``stats`` (a ``WorkloadStats``) unlocks the analytical buffer
    capacity check.  ``rules`` restricts the run to the named subset.
    """
    ctx = LintContext(spec, shapes or {}, stats)
    selected = ([RULES[r] for r in rules] if rules is not None
                else list(RULES.values()))
    findings: List[Finding] = []
    for r in selected:
        try:
            findings.extend(r.fn(ctx))
        except SpecError as err:
            # The layer is too malformed for this rule to inspect; the
            # breakage itself is the finding.
            findings.append(Finding(r.id, r.severity, str(err)))
    return sort_findings(findings)


def feasibility_findings(spec: AcceleratorSpec, *,
                         shapes: Optional[Dict[str, int]] = None
                         ) -> List[Finding]:
    """Error findings from the cheap feasibility subset only — the
    static-pruning predicate the search runner applies per candidate.
    Only error-severity feasibility rules run, so a clean result means
    "no rule proves this candidate cannot execute as specified"."""
    ids = [r.id for r in RULES.values()
           if r.feasibility and r.severity == ERROR]
    return verify_spec(spec, shapes=shapes, rules=ids)


# ----------------------------------------------------------------------
# einsum / cascade layer
# ----------------------------------------------------------------------
@rule("einsum/rank-shape-mismatch", ERROR,
      doc="One index variable spans ranks declared with different shapes "
          "(e.g. a cascade join between tensors whose shared rank "
          "disagrees in extent).")
def _rank_shape_mismatch(ctx: LintContext):
    for name in ctx.einsum_names:
        einsum = ctx.spec.einsum.cascade[name]
        touched: Dict[str, List[Tuple[str, str]]] = {}
        for acc in [einsum.output, *accesses(einsum.expr)]:
            decl = ctx.spec.einsum.declaration.get(acc.tensor)
            if decl is None or acc.indices is None:
                continue
            for rank, expr in zip(decl, acc.indices):
                if expr.is_var:
                    touched.setdefault(expr.vars[0], []).append(
                        (acc.tensor, rank))
        for var, sites in touched.items():
            spans = {}
            for tensor, rank in sites:
                span = ctx.rank_span(rank)
                if span is not None:
                    spans.setdefault(span, []).append(f"{tensor}.{rank}")
            if len(spans) > 1:
                detail = ", ".join(
                    f"{'/'.join(where)}={span}"
                    for span, where in sorted(spans.items()))
                yield Finding(
                    "einsum/rank-shape-mismatch", ERROR,
                    f"index variable {var!r} joins ranks of different "
                    f"declared shapes: {detail}",
                    path=("einsum", "shapes"), einsum=name)


@rule("cascade/dead-einsum", WARN,
      doc="An Einsum's output is never consumed downstream and is not "
          "the cascade's final result — the whole Einsum is dead work.")
def _dead_einsum(ctx: LintContext):
    cascade = ctx.spec.einsum.cascade
    if len(cascade) < 2:
        return
    consumed = {t for e in cascade for t in e.input_tensors}
    last = cascade.produced[-1]
    for name in cascade.produced:
        if name not in consumed and name != last:
            yield Finding(
                "cascade/dead-einsum", WARN,
                f"Einsum {name!r} produces a tensor no later Einsum "
                f"consumes and it is not the final result — it is "
                f"unreachable dead work",
                path=("einsum", "expressions"), einsum=name)


# ----------------------------------------------------------------------
# mapping layer
# ----------------------------------------------------------------------
@rule("mapping/loop-order-coverage", ERROR, feasibility=True,
      doc="loop-order does not cover exactly the partitioned iteration "
          "ranks (a rank is unbound, undeclared, or stale after "
          "partitioning).")
def _loop_order_coverage(ctx: LintContext):
    for name in ctx.einsum_names:
        mapping = ctx.mapping_for(name)
        if not mapping.loop_order:
            continue
        replay = ctx.replay(name)
        if replay.problems:
            continue  # partition rules own this breakage
        expected, got = set(replay.ranks), set(mapping.loop_order)
        if expected == got and len(mapping.loop_order) == len(got):
            continue
        missing = sorted(expected - got)
        extra = sorted(got - expected)
        parts = []
        if missing:
            parts.append(f"missing rank(s) {missing}")
        if extra:
            parts.append(f"unknown/stale rank(s) {extra}")
        if len(mapping.loop_order) != len(got):
            parts.append("contains duplicates")
        yield Finding(
            "mapping/loop-order-coverage", ERROR,
            f"loop-order {mapping.loop_order} must cover exactly the "
            f"partitioned iteration ranks {sorted(expected)}: "
            + "; ".join(parts),
            path=("mapping", "loop-order", name), einsum=name)


@rule("mapping/partition-unknown-rank", ERROR, feasibility=True,
      doc="A partitioning directive targets a rank that does not exist "
          "at that point — undeclared, or already consumed by an "
          "earlier flatten/split.")
def _partition_unknown_rank(ctx: LintContext):
    for name in ctx.einsum_names:
        for step in ctx.replay(name).problems:
            if step.flatten and len(step.key) < 2:
                continue  # mapping/flatten-single-rank owns this
            yield Finding(
                "mapping/partition-unknown-rank", ERROR, step.problem,
                path=("mapping", "partitioning", name, step.key_str),
                einsum=name)


@rule("mapping/flatten-single-rank", ERROR, feasibility=True,
      doc="flatten() applied to fewer than two ranks.")
def _flatten_single_rank(ctx: LintContext):
    for name in ctx.einsum_names:
        mapping = ctx.mapping_for(name)
        for key, directives in mapping.partitioning:
            if any(d.kind == "flatten" for d in directives) and len(key) < 2:
                yield Finding(
                    "mapping/flatten-single-rank", ERROR,
                    f"flatten() on the single rank {key[0]!r}; flattening "
                    f"needs a rank tuple like ({key[0]}, M)",
                    path=("mapping", "partitioning", name, key[0]),
                    einsum=name)


@rule("mapping/mixed-split-directives", ERROR, feasibility=True,
      doc="One rank mixes uniform_shape with uniform_occupancy splits, "
          "or occupancy splits with different leader tensors.")
def _mixed_split_directives(ctx: LintContext):
    for name in ctx.einsum_names:
        mapping = ctx.mapping_for(name)
        for key, directives in mapping.partitioning:
            splits = [d for d in directives if d.kind != "flatten"]
            occ = [d for d in splits if d.kind == "uniform_occupancy"]
            if not occ or len(splits) < 2:
                continue
            leaders = {d.leader for d in occ}
            if len(occ) != len(splits) or len(leaders) > 1:
                yield Finding(
                    "mapping/mixed-split-directives", ERROR,
                    f"splits of {key[0]!r} mix directives "
                    f"{[str(d) for d in splits]}; occupancy splits must "
                    f"all share one leader and cannot mix with shape "
                    f"splits",
                    path=("mapping", "partitioning", name, key[0]),
                    einsum=name)


@rule("mapping/occupancy-unknown-leader", ERROR, feasibility=True,
      doc="A uniform_occupancy split names a leader tensor that does "
          "not participate in the Einsum.")
def _occupancy_unknown_leader(ctx: LintContext):
    for name in ctx.einsum_names:
        einsum = ctx.spec.einsum.cascade[name]
        participants = set(einsum.input_tensors) | {einsum.output.tensor}
        mapping = ctx.mapping_for(name)
        for key, directives in mapping.partitioning:
            for d in directives:
                if (d.kind == "uniform_occupancy" and d.leader
                        and d.leader not in participants):
                    yield Finding(
                        "mapping/occupancy-unknown-leader", ERROR,
                        f"uniform_occupancy leader {d.leader!r} is not a "
                        f"tensor of Einsum {name} (participants: "
                        f"{sorted(participants)})",
                        path=("mapping", "partitioning", name, key[0]),
                        einsum=name)


@rule("mapping/unbound-symbolic-size", ERROR, feasibility=True,
      doc="A symbolic partition size has no binding in the spec params.")
def _unbound_symbolic_size(ctx: LintContext):
    params = ctx.spec.params
    for name in ctx.einsum_names:
        mapping = ctx.mapping_for(name)
        for key, directives in mapping.partitioning:
            for d in directives:
                if isinstance(d.size, str) and d.size not in params:
                    yield Finding(
                        "mapping/unbound-symbolic-size", ERROR,
                        f"symbolic partition size {d.size!r} on rank "
                        f"{key[0]!r} has no binding in params "
                        f"{sorted(params) or '{}'}",
                        path=("mapping", "partitioning", name, key[0]),
                        einsum=name)


def _shape_splits(ctx: LintContext, name: str):
    """(target, top-down numeric sizes, span) per resolvable shape split
    the builder makes."""
    params = ctx.spec.params
    for step in ctx.replay(name).steps:
        if not step.applied or not step.splits or any(
                d.kind != "uniform_shape" for d in step.splits):
            continue
        sizes = [d.size if isinstance(d.size, int)
                 else params.get(d.size, d.size) for d in step.splits]
        numeric = [s for s in sizes if isinstance(s, int)]
        if len(numeric) != len(sizes):
            continue  # unbound symbolic size; its own rule fires
        span: Optional[int] = 1
        for comp in step.key if step.flatten else (step.target,):
            s = ctx.rank_span(comp)
            if s is None:
                span = None
                break
            span *= s
        yield step.target, numeric, span


@rule("mapping/tile-nonpositive", ERROR, feasibility=True,
      doc="A partition size is zero or negative.")
def _tile_nonpositive(ctx: LintContext):
    for name in ctx.einsum_names:
        for target, sizes, _span in _shape_splits(ctx, name):
            for s in sizes:
                if s <= 0:
                    yield Finding(
                        "mapping/tile-nonpositive", ERROR,
                        f"partition size {s} of rank {target!r} must be "
                        f"positive",
                        path=("mapping", "partitioning", name, target),
                        einsum=name)


@rule("mapping/tile-over-partition", ERROR, feasibility=True,
      doc="A uniform_shape tile is at least as large as the span it "
          "splits (the split is a degenerate single chunk), or a deeper "
          "tile is no smaller than its parent tile.")
def _tile_over_partition(ctx: LintContext):
    for name in ctx.einsum_names:
        for target, sizes, span in _shape_splits(ctx, name):
            if any(s <= 0 for s in sizes):
                continue  # mapping/tile-nonpositive owns this
            enclosing = span
            for s in sizes:
                if enclosing is not None and s >= enclosing:
                    yield Finding(
                        "mapping/tile-over-partition", ERROR,
                        f"uniform_shape({s}) on rank {target!r} does not "
                        f"partition its span of {enclosing}: every chunk "
                        f"level it creates holds the whole span "
                        f"(a degenerate no-op tiling)",
                        path=("mapping", "partitioning", name, target),
                        einsum=name)
                    break
                enclosing = s


@rule("mapping/tile-divides", WARN,
      doc="A uniform_shape tile does not evenly divide the span it "
          "splits; the last chunk is ragged, which is legal but rarely "
          "intended on hardware with fixed tile buffers.")
def _tile_divides(ctx: LintContext):
    for name in ctx.einsum_names:
        for target, sizes, span in _shape_splits(ctx, name):
            if any(s <= 0 for s in sizes):
                continue
            enclosing = span
            for s in sizes:
                if enclosing is not None and s < enclosing \
                        and enclosing % s != 0:
                    yield Finding(
                        "mapping/tile-divides", WARN,
                        f"uniform_shape({s}) on rank {target!r} does not "
                        f"divide its span of {enclosing} "
                        f"(last chunk holds {enclosing % s})",
                        path=("mapping", "partitioning", name, target),
                        einsum=name)
                if enclosing is not None and s >= enclosing:
                    break  # over-partition; its own rule fires
                enclosing = s


@rule("mapping/spacetime-coverage", ERROR, feasibility=True,
      doc="The spacetime block does not cover exactly the loop ranks, "
          "or schedules a rank in both space and time.")
def _spacetime_coverage(ctx: LintContext):
    for name in ctx.einsum_names:
        mapping = ctx.mapping_for(name)
        if not mapping.space and not mapping.time:
            continue
        replay = ctx.replay(name)
        if replay.problems:
            continue
        expected = set(mapping.loop_order) if mapping.loop_order \
            else set(replay.ranks)
        space, time = set(mapping.space_ranks), set(mapping.time_ranks)
        overlap = sorted(space & time)
        if overlap:
            yield Finding(
                "mapping/spacetime-coverage", ERROR,
                f"rank(s) {overlap} are scheduled in both space and time",
                path=("mapping", "spacetime", name), einsum=name)
        if space | time != expected:
            missing = sorted(expected - (space | time))
            extra = sorted((space | time) - expected)
            parts = []
            if missing:
                parts.append(f"unscheduled rank(s) {missing}")
            if extra:
                parts.append(f"unknown rank(s) {extra}")
            yield Finding(
                "mapping/spacetime-coverage", ERROR,
                f"spacetime covers {sorted(space | time)} but the loop "
                f"ranks are {sorted(expected)}: " + "; ".join(parts),
                path=("mapping", "spacetime", name), einsum=name)


# ----------------------------------------------------------------------
# format layer
# ----------------------------------------------------------------------
@rule("format/unknown-tensor", WARN,
      doc="The format block describes a tensor the declaration lacks — "
          "the whole block is dead.")
def _format_unknown_tensor(ctx: LintContext):
    declared = set(ctx.spec.einsum.declaration)
    for tensor in ctx.spec.format.tensors:
        if tensor not in declared:
            yield Finding(
                "format/unknown-tensor", WARN,
                f"format given for undeclared tensor {tensor!r}",
                path=("format", tensor))


@rule("format/unknown-rank", WARN,
      doc="A rank-format entry names a rank the tensor can never carry "
          "(not declared and not derived by any partitioning) — the "
          "entry is dead and a default format silently applies instead.")
def _format_unknown_rank(ctx: LintContext):
    spec = ctx.spec
    for tensor, tf in spec.format.tensors.items():
        decl = spec.einsum.declaration.get(tensor)
        if decl is None:
            continue  # format/unknown-tensor owns this
        valid = set(decl)
        for name in ctx.einsum_names:
            valid.update(ctx.replay(name, decl).bases)
        for config, ranks in tf.configs.items():
            for rank in ranks:
                if rank not in valid:
                    yield Finding(
                        "format/unknown-rank", WARN,
                        f"format config {config!r} of tensor {tensor} "
                        f"describes rank {rank!r}, which is neither "
                        f"declared nor derived by partitioning "
                        f"(known: {sorted(valid)})",
                        path=("format", tensor, config, rank))


@rule("format/discordant-compressed-rank", WARN,
      doc="A compressed (C-format) rank is iterated out of its declared "
          "storage order, forcing a concordant-traversal swizzle of "
          "compressed fibers before every execution.")
def _discordant_compressed_rank(ctx: LintContext):
    spec = ctx.spec
    for name in ctx.einsum_names:
        mapping = ctx.mapping_for(name)
        replay = ctx.replay(name)
        if replay.problems:
            continue
        loop = mapping.loop_order or replay.ranks
        pos = {r: i for i, r in enumerate(loop)}
        # The loop rank where a base rank's coordinates are enumerated:
        # itself, the lowest split below it, or its flattened group.
        rank_site = {base: rank for rank in loop
                     for base in replay.binds.get(rank, ())}
        einsum = spec.einsum.cascade[name]
        for acc in [einsum.output, *accesses(einsum.expr)]:
            decl = spec.einsum.declaration.get(acc.tensor)
            tf = spec.format.tensors.get(acc.tensor)
            if decl is None or tf is None or acc.indices is None:
                continue
            if not all(e.is_var for e in acc.indices):
                continue
            order = spec.mapping.rank_order_of(acc.tensor, decl)
            rank_of = dict(zip(decl, (e.vars[0] for e in acc.indices)))
            sites = []
            for r in order:
                var = rank_of.get(r)
                site = rank_site.get(rank_of_var(var)) if var else None
                if site is None or site not in pos:
                    sites = None
                    break
                sites.append((r, pos[site]))
            if not sites:
                continue
            sorted_ranks = [r for r, _ in
                            sorted(sites, key=lambda rs: rs[1])]
            storage_ranks = [r for r, _ in sites]
            if sorted_ranks == storage_ranks:
                continue
            moved = [r for r, s in zip(storage_ranks, sorted_ranks)
                     if r != s]
            for config, ranks in tf.configs.items():
                compressed = [r for r in moved
                              if ranks.get(r) is not None
                              and ranks[r].format == "C"]
                for r in compressed:
                    yield Finding(
                        "format/discordant-compressed-rank", WARN,
                        f"rank {r} of {acc.tensor} is compressed in "
                        f"config {config!r} but the loop order visits "
                        f"{acc.tensor}'s ranks as {sorted_ranks}, not "
                        f"the storage order {storage_ranks}: every "
                        f"execution pays a concordant-traversal swizzle "
                        f"of compressed fibers",
                        path=("format", acc.tensor, config, r),
                        einsum=name)


# ----------------------------------------------------------------------
# architecture layer
# ----------------------------------------------------------------------
def _resolved_topology(ctx: LintContext, config: Optional[str]):
    """The topology a binding config resolves to, or None."""
    arch = ctx.spec.architecture
    if config is not None:
        return arch.topologies.get(config)
    if len(arch.topologies) == 1:
        return next(iter(arch.topologies.values()))
    return None


@rule("architecture/missing-topology", ERROR,
      doc="A binding names a topology the architecture does not define "
          "(or names none while several exist).")
def _missing_topology(ctx: LintContext):
    arch = ctx.spec.architecture
    for name, binding in ctx.spec.binding.einsums.items():
        if not binding.data and not binding.ops:
            continue
        if binding.config is not None:
            if binding.config not in arch.topologies:
                yield Finding(
                    "architecture/missing-topology", ERROR,
                    f"binding of {name} names topology "
                    f"{binding.config!r}; known: "
                    f"{sorted(arch.topologies) or 'none'}",
                    path=("binding", name, "config"), einsum=name)
        elif len(arch.topologies) != 1:
            yield Finding(
                "architecture/missing-topology", ERROR,
                f"binding of {name} names no topology but the "
                f"architecture defines "
                f"{sorted(arch.topologies) or 'none'}; bindings must "
                f"name one",
                path=("binding", name, "config"), einsum=name)


@rule("architecture/dead-component", WARN,
      doc="A component of a used topology that no binding ever routes "
          "data or ops through — modeled hardware that can never see "
          "traffic.")
def _dead_component(ctx: LintContext):
    used_by_topology: Dict[str, set] = {}
    for binding in ctx.spec.binding.einsums.values():
        topo = _resolved_topology(ctx, binding.config)
        if topo is None:
            continue
        used = used_by_topology.setdefault(topo.name, set())
        used.update(binding.data)
        used.update(binding.ops)
    for topo_name, used in sorted(used_by_topology.items()):
        topo = ctx.spec.architecture.topologies[topo_name]
        for comp_name, comp in topo.components.items():
            if comp_name in used or comp.klass == "DRAM":
                continue
            yield Finding(
                "architecture/dead-component", WARN,
                f"component {comp_name} ({comp.klass}) of topology "
                f"{topo_name} has no binding routed through it — it is "
                f"dead hardware in the model",
                path=("architecture", topo_name, comp_name))


# ----------------------------------------------------------------------
# binding layer
# ----------------------------------------------------------------------
@rule("binding/unknown-component", ERROR,
      doc="A binding routes data or ops to a component absent from the "
          "named topology.")
def _binding_unknown_component(ctx: LintContext):
    for name, binding in ctx.spec.binding.einsums.items():
        topo = _resolved_topology(ctx, binding.config)
        if topo is None:
            continue  # architecture/missing-topology owns this
        for comp_name in list(binding.data) + list(binding.ops):
            if comp_name not in topo.components:
                yield Finding(
                    "binding/unknown-component", ERROR,
                    f"binding of {name} routes through component "
                    f"{comp_name!r}, absent from topology {topo.name} "
                    f"(known: {sorted(topo.components)})",
                    path=("binding", name, "components", comp_name),
                    einsum=name)


@rule("binding/unknown-tensor", ERROR,
      doc="A data binding names a tensor the declaration lacks.")
def _binding_unknown_tensor(ctx: LintContext):
    declared = set(ctx.spec.einsum.declaration)
    for name, binding in ctx.spec.binding.einsums.items():
        for comp, entries in binding.data.items():
            for b in entries:
                if b.tensor not in declared:
                    yield Finding(
                        "binding/unknown-tensor", ERROR,
                        f"binding of {name} at {comp} names undeclared "
                        f"tensor {b.tensor!r}",
                        path=("binding", name, "components", comp),
                        einsum=name)


@rule("binding/unrouted-tensor", WARN,
      doc="A data binding names a tensor that does not participate in "
          "that Einsum — its traffic events can never match, so the "
          "binding silently models nothing.")
def _binding_unrouted_tensor(ctx: LintContext):
    produced = set(ctx.einsum_names)
    for name, binding in ctx.spec.binding.einsums.items():
        if name not in produced:
            continue
        einsum = ctx.spec.einsum.cascade[name]
        participants = set(einsum.input_tensors) | {einsum.output.tensor}
        for comp, entries in binding.data.items():
            for b in entries:
                if (b.tensor in ctx.spec.einsum.declaration
                        and b.tensor not in participants):
                    yield Finding(
                        "binding/unrouted-tensor", WARN,
                        f"binding of {name} at {comp} names tensor "
                        f"{b.tensor}, which Einsum {name} neither reads "
                        f"nor writes — no event will ever route there",
                        path=("binding", name, "components", comp),
                        einsum=name)


@rule("binding/unknown-rank", ERROR,
      doc="A data binding's rank is neither 'root', a declared rank of "
          "the tensor, nor a rank derived from one by partitioning — "
          "the bound slice can never exist.")
def _binding_unknown_rank(ctx: LintContext):
    spec = ctx.spec
    produced = set(ctx.einsum_names)
    for name, binding in spec.binding.einsums.items():
        if name not in produced:
            continue
        einsum = spec.einsum.cascade[name]
        participants = set(einsum.input_tensors) | {einsum.output.tensor}
        for comp, entries in binding.data.items():
            for b in entries:
                decl = spec.einsum.declaration.get(b.tensor)
                if decl is None or b.tensor not in participants:
                    continue  # other binding rules own these
                valid = {"root"} | set(ctx.replay(name, decl).bases)
                if b.rank not in valid:
                    yield Finding(
                        "binding/unknown-rank", ERROR,
                        f"binding of {name} at {comp} slices tensor "
                        f"{b.tensor} at rank {b.rank!r}, which the "
                        f"tensor can never carry (known: "
                        f"{sorted(valid)})",
                        path=("binding", name, "components", comp),
                        einsum=name)


@rule("binding/evict-on-unknown-rank", WARN,
      doc="An evict-on rank is not part of the Einsum's iteration space "
          "(before or after partitioning); the buffet degrades to "
          "whole-execution retention, which is rarely what was meant.")
def _evict_on_unknown_rank(ctx: LintContext):
    produced = set(ctx.einsum_names)
    for name, binding in ctx.spec.binding.einsums.items():
        if name not in produced:
            continue
        known = set(ctx.replay(name).bases)
        for comp, entries in binding.data.items():
            for b in entries:
                if b.evict_on is not None and b.evict_on not in known:
                    yield Finding(
                        "binding/evict-on-unknown-rank", WARN,
                        f"binding of {name} at {comp} evicts on rank "
                        f"{b.evict_on!r}, which is not in the iteration "
                        f"space {sorted(known)}; the buffer will retain "
                        f"its contents for the whole execution",
                        path=("binding", name, "components", comp),
                        einsum=name)


@rule("binding/format-config-unknown", ERROR,
      doc="A data binding names a format config the tensor's format "
          "block lacks (or names none while several exist) — format "
          "resolution will fail at evaluation time.")
def _format_config_unknown(ctx: LintContext):
    for name, binding in ctx.spec.binding.einsums.items():
        for comp, entries in binding.data.items():
            for b in entries:
                tf = ctx.spec.format.tensors.get(b.tensor)
                if tf is None or not tf.configs:
                    continue
                if b.config is not None and b.config not in tf.configs:
                    yield Finding(
                        "binding/format-config-unknown", ERROR,
                        f"binding of {name} at {comp} names format "
                        f"config {b.config!r} of tensor {b.tensor}; "
                        f"known: {sorted(tf.configs)}",
                        path=("binding", name, "components", comp),
                        einsum=name)
                elif b.config is None and len(tf.configs) > 1:
                    yield Finding(
                        "binding/format-config-unknown", ERROR,
                        f"binding of {name} at {comp} names no format "
                        f"config for tensor {b.tensor}, which has "
                        f"several: {sorted(tf.configs)}",
                        path=("binding", name, "components", comp),
                        einsum=name)


@rule("binding/capacity", WARN,
      doc="Analytical occupancy estimates say a bound buffer's expected "
          "working set exceeds its capacity (statistical, hence warn): "
          "the model will thrash where the author expected residency.")
def _binding_capacity(ctx: LintContext):
    if ctx.stats is None:
        return  # the analytical oracle needs sparsity statistics
    from ..model.analytical import evaluate_analytical

    try:
        result = evaluate_analytical(ctx.spec, stats=ctx.stats,
                                     shapes=ctx.shapes or None)
    except Exception:
        return  # the oracle cannot price this spec; stay silent
    for name, estimate in result.estimates.items():
        binding = ctx.spec.binding.for_einsum(name)
        topo = _resolved_topology(ctx, binding.config)
        if topo is None:
            continue
        for comp_name, bits in estimate.buffer_occupancy_bits.items():
            comp = topo.components.get(comp_name)
            if comp is None or comp.klass != "Buffer":
                continue
            width = float(comp.attr("width", 64))
            depth = float(comp.attr("depth", 1024))
            capacity = width * depth * max(comp.count, 1)
            if bits > capacity:
                yield Finding(
                    "binding/capacity", WARN,
                    f"expected occupancy of {comp_name} during {name} is "
                    f"~{bits:.0f} bits, exceeding its capacity of "
                    f"{capacity:.0f} bits ({comp.count} x {width:.0f}w x "
                    f"{depth:.0f}d): the buffer will thrash",
                    path=("binding", name, "components", comp_name),
                    einsum=name)
