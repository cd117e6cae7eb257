"""Static analysis of TeAAL specs and lowered IR.

Two verifiers live here:

* :func:`verify_spec` — a rule-based linter over all five declarative
  layers (einsum, mapping, format, architecture, binding).  Returns
  :class:`Finding`s; never raises on a malformed spec.
* :func:`verify_ir` — a structural invariant checker for
  :class:`~repro.ir.nodes.LoopNestIR`, run between lowering and
  codegen.  Raises :class:`IRVerificationError`.

``python -m repro.analysis <spec>...`` lints registered accelerator
specs or YAML files from the command line.
"""

from .findings import (ERROR, INFO, WARN, Finding, SpecLintWarning,
                       SpecVerificationError, errors_of, sort_findings)
from .ir_verify import (IRVerificationError, ir_violations, verify_cascade_irs,
                        verify_ir)
from .rules import (RULES, LintContext, Rule, feasibility_findings,
                    rule_catalog, verify_spec)

__all__ = [
    "ERROR", "WARN", "INFO",
    "Finding", "sort_findings", "errors_of",
    "SpecVerificationError", "SpecLintWarning",
    "Rule", "RULES", "LintContext", "rule_catalog",
    "verify_spec", "feasibility_findings",
    "IRVerificationError", "ir_violations", "verify_ir",
    "verify_cascade_irs",
]
