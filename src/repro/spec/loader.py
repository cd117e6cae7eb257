"""Loading complete accelerator specifications.

An :class:`AcceleratorSpec` bundles the five TeAAL specification levels
(paper Figure 7, top to bottom of the pyramid):

1. ``einsum``       — the cascade of Einsums (most concise),
2. ``mapping``      — rank orders, partitioning, loop orders, spacetime,
3. ``format``       — concrete per-rank representations,
4. ``architecture`` — hardware topologies,
5. ``binding``      — data/ops bound to components (finest grain).

Specs are written as YAML (matching the paper's concrete syntax) or built
from dicts.  ``params`` binds symbolic partition sizes (ExTensor's
``uniform_shape(K1)``) to numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, Optional, Tuple

import yaml

from .architecture import ArchitectureSpec
from .binding import BindingSpec
from .einsum_spec import EinsumSpec
from .errors import SpecError
from .format import FormatSpec
from .mapping import MappingSpec


def yaml_key_lines(text: str) -> Dict[Tuple[str, ...], int]:
    """Map every YAML key path of ``text`` to its 1-based source line.

    Keys are tuples of mapping keys from the root (sequence items do not
    extend the path), so ``("mapping", "loop-order", "Z")`` resolves to
    the line where the ``Z:`` key appears.  Returns ``{}`` for YAML
    that does not parse (the loader reports that separately).
    """
    try:
        root = yaml.compose(text)
    except yaml.YAMLError:
        return {}
    lines: Dict[Tuple[str, ...], int] = {}

    def walk(node, path: Tuple[str, ...]) -> None:
        if isinstance(node, yaml.MappingNode):
            for key_node, value_node in node.value:
                key = getattr(key_node, "value", None)
                if not isinstance(key, str):
                    continue
                sub = path + (key,)
                lines.setdefault(sub, key_node.start_mark.line + 1)
                walk(value_node, sub)
        elif isinstance(node, yaml.SequenceNode):
            for item in node.value:
                walk(item, path)

    if root is not None:
        walk(root, ())
    return lines


def _locate(key_lines: Dict[Tuple[str, ...], int],
            path: Optional[Tuple[str, ...]], section: str,
            source: str) -> Optional[str]:
    """``file:line`` of the deepest known prefix of ``path`` (falling
    back to the section's top-level key), or None if nothing matches."""
    candidates = []
    if path:
        candidates.extend(tuple(path[:i]) for i in range(len(path), 0, -1))
    candidates.append((section,))
    for cand in candidates:
        line = key_lines.get(cand)
        if line is not None:
            return f"{source}:{line}"
    return None


def _with_location(err: SpecError, location: str) -> SpecError:
    """Copy of ``err`` (same type) with a source location attached."""
    new = type(err).__new__(type(err))
    SpecError.__init__(new, err.section, err.raw_message, path=err.path,
                       location=location)
    return new


#: ``(key path, message)`` of one problem a load check finds.
Problem = Tuple[Tuple[str, ...], str]


def _rank_order_unknown_tensor(spec: "AcceleratorSpec") -> Iterator[Problem]:
    declared = spec.einsum.declaration
    for tensor in spec.mapping.rank_order:
        if tensor not in declared:
            yield (("mapping", "rank-order", tensor),
                   f"rank-order given for undeclared tensor {tensor!r}")


def _rank_order_not_permutation(spec: "AcceleratorSpec") -> Iterator[Problem]:
    declaration = spec.einsum.declaration
    for tensor, order in spec.mapping.rank_order.items():
        decl = declaration.get(tensor)
        if decl is not None and sorted(order) != sorted(decl):
            yield (("mapping", "rank-order", tensor),
                   f"rank-order {order} of {tensor} is not a permutation "
                   f"of declared ranks {decl}")


def _unknown_einsum(layer: str, path_key: Tuple[str, ...]):
    def check(spec: "AcceleratorSpec") -> Iterator[Problem]:
        produced = set(spec.einsum.cascade.produced)
        for name in getattr(spec, layer).einsums:
            if name not in produced:
                yield ((layer, *path_key, name),
                       f"{layer} given for unknown Einsum {name!r}; "
                       f"cascade produces {sorted(produced)}")
    return check


#: The checks a spec must pass to load, in the order checked: lint-rule
#: id -> (rule doc, check).  ``repro.analysis.rules`` registers each as
#: an error-severity lint rule, since search candidates and directly
#: constructed specs bypass the loader.
LOAD_CHECKS: Dict[str, Tuple[str, Callable[["AcceleratorSpec"],
                                           Iterator[Problem]]]] = {
    "mapping/rank-order-unknown-tensor": (
        "rank-order is given for a tensor the declaration lacks.",
        _rank_order_unknown_tensor),
    "mapping/rank-order-not-permutation": (
        "A tensor's rank-order is not a permutation of its declared ranks.",
        _rank_order_not_permutation),
    "mapping/unknown-einsum": (
        "A mapping block names an Einsum the cascade never produces.",
        _unknown_einsum("mapping", ("loop-order",))),
    "binding/unknown-einsum": (
        "A binding block names an Einsum the cascade never produces.",
        _unknown_einsum("binding", ())),
}


@dataclass
class AcceleratorSpec:
    """A complete, validated accelerator description."""

    einsum: EinsumSpec
    mapping: MappingSpec
    format: FormatSpec = field(default_factory=FormatSpec)
    architecture: ArchitectureSpec = field(default_factory=ArchitectureSpec)
    binding: BindingSpec = field(default_factory=BindingSpec)
    params: Dict[str, int] = field(default_factory=dict)
    name: str = "accelerator"

    @classmethod
    def from_dict(cls, data: dict, name: str = "accelerator") -> "AcceleratorSpec":
        if "einsum" not in data:
            raise SpecError("spec", "missing top-level 'einsum' block")
        spec = cls(
            einsum=EinsumSpec.from_dict(data["einsum"]),
            mapping=MappingSpec.from_dict(data.get("mapping") or {}),
            format=FormatSpec.from_dict(data.get("format") or {}),
            architecture=ArchitectureSpec.from_dict(data.get("architecture") or {}),
            binding=BindingSpec.from_dict(data.get("binding") or {}),
            params={str(k): int(v) for k, v in (data.get("params") or {}).items()},
            name=name,
        )
        spec.validate()
        return spec

    @classmethod
    def from_yaml(cls, text: str, name: str = "accelerator",
                  source_file: Optional[str] = None) -> "AcceleratorSpec":
        data = yaml.safe_load(text)
        if not isinstance(data, dict):
            raise SpecError("spec", "top level of a spec must be a mapping",
                            location=source_file)
        key_lines = yaml_key_lines(text)
        source = source_file or f"<{name}>"
        try:
            spec = cls.from_dict(data, name)
        except SpecError as err:
            if err.location is not None:
                raise
            location = _locate(key_lines, err.path, err.section, source)
            if location is None:
                raise
            raise _with_location(err, location) from err
        # Plain instance attributes (not dataclass fields), so cache
        # fingerprints over the spec layers are unaffected.
        spec.source_file = source_file
        spec.key_lines = key_lines
        return spec

    def validate(self) -> None:
        """Raise the first problem the ``LOAD_CHECKS`` find, then resolve
        every binding's named topology."""
        for _doc, check in LOAD_CHECKS.values():
            for path, message in check(self):
                raise SpecError(path[0], message, path=path)
        for binding in self.binding.einsums.values():
            if binding.config is not None:
                self.architecture.topology(binding.config)

    def param(self, name: str, default: Optional[int] = None) -> int:
        if name in self.params:
            return self.params[name]
        if default is not None:
            return default
        raise SpecError("spec", f"missing parameter {name!r}")

    def with_params(self, **params: int) -> "AcceleratorSpec":
        """Copy of this spec with additional/overridden parameters."""
        merged = dict(self.params)
        merged.update({k: int(v) for k, v in params.items()})
        return AcceleratorSpec(
            einsum=self.einsum,
            mapping=self.mapping,
            format=self.format,
            architecture=self.architecture,
            binding=self.binding,
            params=merged,
            name=self.name,
        )


def load_spec(source, name: str = "accelerator") -> AcceleratorSpec:
    """Load a spec from YAML text or a dict."""
    if isinstance(source, AcceleratorSpec):
        return source
    if isinstance(source, str):
        return AcceleratorSpec.from_yaml(source, name)
    if isinstance(source, dict):
        return AcceleratorSpec.from_dict(source, name)
    raise TypeError(f"cannot load a spec from {type(source).__name__}")
