"""The ``mapping`` specification: rank-order, partitioning, loop-order,
spacetime (paper Figure 3, lines 10-31).

Partitioning directives follow the paper's concrete syntax::

    uniform_shape(128)        # coordinate-based split, chunk shape 128
    uniform_shape(K0)         # symbolic size, bound via spec params
    uniform_occupancy(A.256)  # occupancy split, leader tensor A, 256 each
    flatten()                 # combine the listed ranks into one

Partitioning is keyed per Einsum (by its output tensor), then by the rank
(or parenthesized rank tuple for flatten) the directive applies to.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..fibertree.rankid import flatten_name, split_names
from .errors import SpecError

_DIRECTIVE_RE = re.compile(
    r"^\s*(?P<kind>uniform_shape|uniform_occupancy|flatten)\s*"
    r"\(\s*(?P<body>[^)]*)\s*\)\s*$"
)


@dataclass(frozen=True)
class PartitionDirective:
    """One partitioning step applied to a rank (or flattened rank group)."""

    kind: str  # 'uniform_shape' | 'uniform_occupancy' | 'flatten'
    size: Union[int, str, None] = None  # int, or symbolic parameter name
    leader: Optional[str] = None  # leader tensor for occupancy splits

    @classmethod
    def parse(cls, text: str) -> "PartitionDirective":
        match = _DIRECTIVE_RE.match(str(text))
        if match is None:
            raise SpecError("mapping", f"bad partitioning directive {text!r}")
        kind = match.group("kind")
        body = match.group("body").strip()
        if kind == "flatten":
            if body:
                raise SpecError("mapping", "flatten() takes no arguments")
            return cls("flatten")
        if kind == "uniform_shape":
            size: Union[int, str] = int(body) if body.isdigit() else body
            if body == "":
                raise SpecError("mapping", "uniform_shape() needs a size")
            return cls("uniform_shape", size)
        # uniform_occupancy(A.256)
        if "." not in body:
            raise SpecError(
                "mapping",
                f"uniform_occupancy needs leader.size, got {body!r}",
            )
        leader, size_text = body.split(".", 1)
        size = int(size_text) if size_text.isdigit() else size_text
        return cls("uniform_occupancy", size, leader.strip())

    def resolve_size(self, params: Dict[str, int]) -> int:
        """Numeric size, resolving symbolic names through ``params``."""
        if isinstance(self.size, int):
            return self.size
        if self.size in params:
            return int(params[self.size])
        raise SpecError(
            "mapping",
            f"symbolic partition size {self.size!r} has no binding in params",
        )

    def __str__(self) -> str:
        if self.kind == "flatten":
            return "flatten()"
        if self.kind == "uniform_shape":
            return f"uniform_shape({self.size})"
        return f"uniform_occupancy({self.leader}.{self.size})"


def _parse_rank_key(key: str) -> Tuple[str, ...]:
    """Parse a partitioning key: ``K`` or ``(K, M)``."""
    key = str(key).strip()
    if key.startswith("(") and key.endswith(")"):
        parts = tuple(p.strip() for p in key[1:-1].split(","))
        if len(parts) < 2 or not all(parts):
            raise SpecError("mapping", f"bad rank tuple {key!r}")
        return parts
    return (key,)


@dataclass(frozen=True)
class SpacetimeRank:
    """A loop rank scheduled in space or time.

    The optional stamp style (``N.coord`` vs default position-based stamps)
    follows the SIGMA spec in Figure 8c.
    """

    rank: str
    style: str = "pos"  # 'pos' | 'coord'

    @classmethod
    def parse(cls, text: str) -> "SpacetimeRank":
        text = str(text).strip()
        if "." in text:
            rank, style = text.split(".", 1)
            if style not in ("pos", "coord"):
                raise SpecError("mapping", f"bad spacetime style {text!r}")
            return cls(rank, style)
        return cls(text)

    def __str__(self) -> str:
        return self.rank if self.style == "pos" else f"{self.rank}.{self.style}"


@dataclass
class EinsumMapping:
    """Mapping attributes of a single Einsum."""

    name: str
    loop_order: List[str] = field(default_factory=list)
    partitioning: List[Tuple[Tuple[str, ...], List[PartitionDirective]]] = field(
        default_factory=list
    )
    space: List[SpacetimeRank] = field(default_factory=list)
    time: List[SpacetimeRank] = field(default_factory=list)

    @property
    def space_ranks(self) -> List[str]:
        return [s.rank for s in self.space]

    @property
    def time_ranks(self) -> List[str]:
        return [t.rank for t in self.time]

    def replay(self, ranks: Sequence[str]) -> "PartitionReplay":
        """Replay ``partitioning`` over ``ranks`` (an Einsum's iteration
        ranks, or one tensor's declared ranks).

        An entry applies when the ranks it acts on (a flatten's whole
        key, a split's target) are present at that point; one that does
        not is recorded with the reason and changes nothing.  The
        builder rejects an iteration space with any such entry and skips
        them per tensor; the linter reports them.
        """
        current = list(ranks)
        bases: Dict[str, Tuple[str, ...]] = {r: (r,) for r in current}
        binds = dict(bases)
        steps: List[PartitionStep] = []
        for key, directives in self.partitioning:
            flatten = any(d.kind == "flatten" for d in directives)
            splits = tuple(d for d in directives if d.kind != "flatten")
            target = flatten_name(key) if flatten and len(key) > 1 else key[0]
            names = tuple(split_names(target, len(splits))) if splits else ()
            step = PartitionStep(key, flatten, target, splits, names)
            missing = [k for k in key if k not in current]
            if flatten and len(key) < 2:
                step.problem = (f"flatten() needs at least two ranks, got "
                                f"{step.key_str}")
            elif flatten and len(set(key)) < len(key):
                step.problem = f"flatten of {step.key_str} repeats a rank"
            elif flatten and missing:
                step.problem = (
                    f"flatten of {step.key_str} names rank(s) {missing} "
                    f"not in the ranks {current} (undeclared, or already "
                    f"consumed by an earlier directive)")
            elif not flatten and target not in current:
                step.problem = (
                    f"split target {target!r} is not in the ranks "
                    f"{current} (undeclared, or already consumed by an "
                    f"earlier directive)")
            steps.append(step)
            if step.problem:
                continue
            if flatten:
                pos = min(current.index(k) for k in key)
                for k in key:
                    current.remove(k)
                current.insert(pos, target)
                bases[target] = tuple(dict.fromkeys(
                    b for k in key for b in bases[k]))
                binds[target] = tuple(b for k in key for b in binds[k])
            if splits:
                pos = current.index(target)
                current[pos:pos + 1] = names
                for name in names:
                    bases[name] = bases[target]
                    binds[name] = ()
                binds[names[-1]] = binds[target]
        return PartitionReplay(current, steps, bases, binds)


@dataclass
class PartitionStep:
    """One ``partitioning`` entry as replayed over a rank list."""

    key: Tuple[str, ...]
    flatten: bool  # the entry flattens ``key`` into ``target``
    target: str  # the rank the splits act on
    splits: Tuple[PartitionDirective, ...]
    names: Tuple[str, ...]  # split names of ``target``, top-down
    problem: str = ""  # why the entry did not apply ("" if it did)

    @property
    def applied(self) -> bool:
        return not self.problem

    @property
    def key_str(self) -> str:
        """The key as the mapping spells it: ``K`` or ``(M, K0)``."""
        if len(self.key) == 1:
            return self.key[0]
        return "(" + ", ".join(self.key) + ")"


@dataclass
class PartitionReplay:
    """What an Einsum's partitioning derives from a rank list."""

    ranks: List[str]  # after every applied entry
    steps: List[PartitionStep]  # one per entry, in mapping order
    #: Every rank name that existed at some point -> the given ranks it
    #: derives from (``MK0`` -> ``(M, K)``, ``K1`` -> ``(K,)``).
    bases: Dict[str, Tuple[str, ...]]
    #: The same names -> the given ranks whose coordinates a loop over
    #: the rank binds: the lowest split name binds its target's, an
    #: upper split name (``K1``) none, since it walks chunks.
    binds: Dict[str, Tuple[str, ...]]

    @property
    def problems(self) -> List[PartitionStep]:
        return [s for s in self.steps if s.problem]


@dataclass
class MappingSpec:
    """The full mapping block: per-tensor rank orders + per-Einsum mappings."""

    rank_order: Dict[str, List[str]] = field(default_factory=dict)
    einsums: Dict[str, EinsumMapping] = field(default_factory=dict)

    @classmethod
    def from_dict(cls, data: dict) -> "MappingSpec":
        data = data or {}
        rank_order = {
            str(t): [str(r) for r in ranks]
            for t, ranks in (data.get("rank-order") or {}).items()
        }
        partitioning = data.get("partitioning") or {}
        loop_order = data.get("loop-order") or {}
        spacetime = data.get("spacetime") or {}

        names = set(partitioning) | set(loop_order) | set(spacetime)
        einsums = {}
        for name in names:
            part_block = partitioning.get(name) or {}
            parsed_part = [
                (
                    _parse_rank_key(key),
                    [PartitionDirective.parse(d) for d in directives],
                )
                for key, directives in part_block.items()
            ]
            st = spacetime.get(name) or {}
            einsums[str(name)] = EinsumMapping(
                name=str(name),
                loop_order=[str(r) for r in (loop_order.get(name) or [])],
                partitioning=parsed_part,
                space=[SpacetimeRank.parse(r) for r in (st.get("space") or [])],
                time=[SpacetimeRank.parse(r) for r in (st.get("time") or [])],
            )
        return cls(rank_order, einsums)

    def for_einsum(self, name: str) -> EinsumMapping:
        """Mapping for one Einsum (an empty default when unspecified)."""
        return self.einsums.get(name) or EinsumMapping(name=name)

    def rank_order_of(self, tensor: str, declared: Sequence[str]) -> List[str]:
        return list(self.rank_order.get(tensor, list(declared)))
