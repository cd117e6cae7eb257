"""Every registered accelerator spec must lint with zero errors.

Warn findings are waived through an explicit per-rule allowlist —
extending the allowlist is a reviewed decision, so a new rule (or a
spec regression) that starts warning on a registered accelerator shows
up loudly here rather than scrolling by.
"""

import pytest

from repro.accelerators.registry import FACTORIES, accelerator
from repro.analysis import errors_of, verify_spec
from repro.fibertree.rankid import rank_of_var
from repro.ir.builder import build_cascade_ir, build_ir
from repro.analysis import verify_cascade_irs

#: Warn rules accepted on registered specs.  Both are faithful to the
#: modeled hardware: ExTensor's PEB tracks a component the bindings
#: route around, and the outer-product accelerators deliberately pay a
#: discordant-traversal swizzle on their intermediate tensors.
WARN_ALLOWLIST = {
    "architecture/dead-component",
    "format/discordant-compressed-rank",
}


@pytest.mark.parametrize("name", sorted(FACTORIES))
class TestRegisteredSpecs:
    def test_zero_errors(self, name):
        findings = verify_spec(accelerator(name))
        errors = errors_of(findings)
        assert not errors, f"{name} has lint errors: " + "; ".join(
            f.render() for f in errors
        )

    def test_warns_are_allowlisted(self, name):
        findings = verify_spec(accelerator(name))
        rogue = [f for f in findings
                 if f.severity != "error" and f.rule not in WARN_ALLOWLIST]
        assert not rogue, (
            f"{name} has non-allowlisted findings (extend WARN_ALLOWLIST "
            f"only deliberately): " + "; ".join(f.render() for f in rogue)
        )

    def test_lowers_and_verifies(self, name):
        verify_cascade_irs(build_cascade_ir(accelerator(name)))

    def test_replay_agrees_with_the_lowered_ir(self, name):
        """The linter's rank vocabulary is the builder's: the mapping's
        replay yields the IR's loop ranks, and every rank a tensor
        carries after prep is one its own replay names."""
        spec = accelerator(name)
        for einsum in spec.einsum.cascade:
            mapping = spec.mapping.for_einsum(einsum.name)
            replay = mapping.replay(
                [rank_of_var(v) for v in einsum.all_vars])
            ir = build_ir(spec, einsum.name)
            if mapping.loop_order:
                assert set(replay.ranks) == set(ir.loop_ranks)
            else:
                assert replay.ranks == ir.loop_ranks
            for plan in ir.accesses:
                names = mapping.replay(
                    spec.einsum.ranks_of(plan.tensor)).bases
                carried = {r for step in plan.prep
                           for r in (step.rank, *step.ranks) if r}
                assert carried <= set(names), (einsum.name, plan.tensor)
                for level in plan.levels:
                    # A level the tensor's replay does not name sits at
                    # the loop rank that binds its index variable.
                    if level.rank not in names:
                        bound = {v for e in level.exprs for v in e.vars}
                        assert bound & set(ir.binds[level.rank]), (
                            einsum.name, plan.tensor, level.rank)
