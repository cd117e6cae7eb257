PYTHON ?= python
export PYTHONPATH := src
export HYPOTHESIS_PROFILE ?= repro

.PHONY: test test-differential coverage benchmarks example

# Tier-1: unit + integration + the codegen differential suite, with the
# fixed hypothesis profile for reproducibility.
test:
	$(PYTHON) -m pytest tests -q

# Just the backend-equivalence harness (fast inner loop while hacking on
# the code generator).
test-differential:
	$(PYTHON) -m pytest tests/ir/test_codegen_differential.py \
	    tests/model/test_fused.py \
	    tests/model/test_backend.py \
	    tests/fibertree/test_prepare_arena.py \
	    tests/integration/test_published_metrics.py -q

# Tier-1 with the CI coverage floor (needs pytest-cov).
coverage:
	$(PYTHON) -m pytest tests -q --cov=repro --cov-report=term \
	    --cov-fail-under=80

# Figure-reproduction benchmarks and the speed gates (slow).  The files
# are named bench_*.py, which pytest collects only when passed by name.
benchmarks:
	$(PYTHON) -m pytest benchmarks/bench_*.py -q

example:
	$(PYTHON) examples/generated_simulator.py
