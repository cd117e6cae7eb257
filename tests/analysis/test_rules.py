"""One firing fixture + one near-miss clean fixture per lint rule.

Every fixture is a minimal mutation of the clean ``BASE`` spec from
``conftest.py``; the firing variant must report the rule under test and
the near-miss variant — the closest legal spec — must not.  Specs are
built through ``conftest.build``, which (like search candidates)
bypasses ``AcceleratorSpec.validate()``.
"""

import pytest

from repro.analysis import ERROR, RULES, WARN, rule_catalog, verify_spec
from repro.model.analytical import WorkloadStats
from repro.workloads import uniform_random

from conftest import base_dict, build, lint, rule_ids


def fired(data, rule, **kw):
    findings = lint(data, **kw)
    hits = [f for f in findings if f.rule == rule]
    assert hits, (
        f"expected {rule} to fire; got {[f.render() for f in findings]}"
    )
    return hits


def silent(data, rule, **kw):
    findings = lint(data, **kw)
    hits = [f for f in findings if f.rule == rule]
    assert not hits, f"{rule} fired on the near-miss: " + "; ".join(
        f.render() for f in hits
    )


class TestBase:
    def test_base_spec_is_perfectly_clean(self):
        assert lint(base_dict()) == []

    def test_every_rule_has_a_fixture_pair(self):
        """This module must cover the whole registry: each rule id
        appears in at least one test (the grep below keeps the suite
        honest when new rules land)."""
        import pathlib

        source = pathlib.Path(__file__).read_text()
        missing = [r.id for r in rule_catalog() if f'"{r.id}"' not in source]
        assert not missing, f"rules without fixtures: {missing}"

    def test_severities_and_docs(self):
        for r in rule_catalog():
            assert r.severity in ("error", "warn", "info")
            assert r.doc, f"rule {r.id} has no doc line"
        # Feasibility rules (the search pruning subset) must all be
        # error severity: pruning on a warn could change the best.
        for r in rule_catalog():
            if r.feasibility:
                assert r.severity == ERROR


class TestEinsumRules:
    def test_rank_shape_mismatch_fires(self):
        d = base_dict()
        d["einsum"]["declaration"]["B"] = ["J", "N"]
        d["einsum"]["shapes"]["J"] = 64  # k joins A.K (96) and B.J (64)
        hits = fired(d, "einsum/rank-shape-mismatch")
        assert "'k'" in hits[0].message

    def test_rank_shape_mismatch_clean_when_spans_agree(self):
        d = base_dict()
        d["einsum"]["declaration"]["B"] = ["J", "N"]
        d["einsum"]["shapes"]["J"] = 96  # differently named, same span
        silent(d, "einsum/rank-shape-mismatch")

    def test_dead_einsum_fires(self):
        d = base_dict()
        d["einsum"]["declaration"]["T"] = ["M", "N"]
        d["einsum"]["expressions"] = [
            "T[m, n] = A[k, m] * B[k, n]",  # T is never consumed
            "Z[m, n] = A[k, m] * B[k, n]",
        ]
        hits = fired(d, "cascade/dead-einsum")
        assert hits[0].einsum == "T"

    def test_dead_einsum_clean_when_consumed(self):
        d = base_dict()
        d["einsum"]["declaration"]["T"] = ["M", "N"]
        d["einsum"]["expressions"] = [
            "T[m, n] = A[k, m] * B[k, n]",
            "Z[m, n] = T[m, n]",
        ]
        silent(d, "cascade/dead-einsum")


class TestMappingRules:
    def test_unknown_einsum_fires(self):
        d = base_dict()
        d["mapping"]["loop-order"]["Q"] = ["M", "N", "K"]
        fired(d, "mapping/unknown-einsum")

    def test_unknown_einsum_clean(self):
        silent(base_dict(), "mapping/unknown-einsum")

    def test_rank_order_unknown_tensor_fires(self):
        d = base_dict()
        d["mapping"]["rank-order"] = {"C": ["K", "M"]}
        fired(d, "mapping/rank-order-unknown-tensor")

    def test_rank_order_unknown_tensor_clean(self):
        d = base_dict()
        d["mapping"]["rank-order"] = {"B": ["K", "N"]}
        silent(d, "mapping/rank-order-unknown-tensor")

    def test_rank_order_not_permutation_fires(self):
        d = base_dict()
        d["mapping"]["rank-order"] = {"B": ["N"]}
        fired(d, "mapping/rank-order-not-permutation")

    def test_rank_order_permutation_clean(self):
        d = base_dict()
        d["mapping"]["rank-order"] = {"B": ["N", "K"]}
        silent(d, "mapping/rank-order-not-permutation")

    def test_loop_order_coverage_fires_on_missing_rank(self):
        d = base_dict()
        d["mapping"]["loop-order"]["Z"] = ["K1", "K0", "M"]  # N unbound
        hits = fired(d, "mapping/loop-order-coverage")
        assert "['N']" in hits[0].message

    def test_loop_order_coverage_fires_on_stale_rank(self):
        d = base_dict()
        # K was split into K1/K0; naming the consumed base rank is stale.
        d["mapping"]["loop-order"]["Z"] = ["K", "M", "N"]
        fired(d, "mapping/loop-order-coverage")

    def test_loop_order_coverage_clean(self):
        silent(base_dict(), "mapping/loop-order-coverage")

    def test_partition_unknown_rank_fires(self):
        d = base_dict()
        d["mapping"]["partitioning"]["Z"] = {"J": ["uniform_shape(8)"]}
        d["mapping"]["loop-order"]["Z"] = ["M", "N", "K"]
        fired(d, "mapping/partition-unknown-rank")

    def test_partition_consumed_rank_fires(self):
        d = base_dict()
        d["mapping"]["partitioning"]["Z"] = {
            "(K, M)": ["flatten()"],
            "K": ["uniform_shape(8)"],  # K was consumed by the flatten
        }
        d["mapping"]["loop-order"]["Z"] = ["KM", "N"]
        fired(d, "mapping/partition-unknown-rank")

    def test_partition_known_rank_clean(self):
        silent(base_dict(), "mapping/partition-unknown-rank")

    def test_flatten_single_rank_fires(self):
        d = base_dict()
        d["mapping"]["partitioning"]["Z"] = {"K": ["flatten()"]}
        d["mapping"]["loop-order"]["Z"] = ["M", "N", "K"]
        fired(d, "mapping/flatten-single-rank")

    def test_flatten_two_ranks_clean(self):
        d = base_dict()
        d["mapping"]["partitioning"]["Z"] = {"(K, M)": ["flatten()"]}
        d["mapping"]["loop-order"]["Z"] = ["KM", "N"]
        silent(d, "mapping/flatten-single-rank")

    def test_mixed_split_directives_fires(self):
        d = base_dict()
        d["mapping"]["partitioning"]["Z"] = {
            "K": ["uniform_shape(8)", "uniform_occupancy(A.4)"]
        }
        d["mapping"]["loop-order"]["Z"] = ["K2", "K1", "K0", "M", "N"]
        fired(d, "mapping/mixed-split-directives")

    def test_same_leader_occupancy_stack_clean(self):
        d = base_dict()
        d["mapping"]["partitioning"]["Z"] = {
            "K": ["uniform_occupancy(A.8)", "uniform_occupancy(A.4)"]
        }
        d["mapping"]["loop-order"]["Z"] = ["K2", "K1", "K0", "M", "N"]
        silent(d, "mapping/mixed-split-directives")

    def test_occupancy_unknown_leader_fires(self):
        d = base_dict()
        d["mapping"]["partitioning"]["Z"] = {
            "K": ["uniform_occupancy(C.4)"]
        }
        fired(d, "mapping/occupancy-unknown-leader")

    def test_occupancy_participant_leader_clean(self):
        d = base_dict()
        d["mapping"]["partitioning"]["Z"] = {
            "K": ["uniform_occupancy(A.4)"]
        }
        silent(d, "mapping/occupancy-unknown-leader")

    def test_unbound_symbolic_size_fires(self):
        d = base_dict()
        d["mapping"]["partitioning"]["Z"] = {"K": ["uniform_shape(KP)"]}
        fired(d, "mapping/unbound-symbolic-size")

    def test_bound_symbolic_size_clean(self):
        d = base_dict()
        d["mapping"]["partitioning"]["Z"] = {"K": ["uniform_shape(KP)"]}
        d["params"] = {"KP": 8}
        silent(d, "mapping/unbound-symbolic-size")

    def test_tile_nonpositive_fires(self):
        d = base_dict()
        d["mapping"]["partitioning"]["Z"] = {"K": ["uniform_shape(0)"]}
        fired(d, "mapping/tile-nonpositive")

    def test_tile_positive_clean(self):
        silent(base_dict(), "mapping/tile-nonpositive")

    def test_tile_over_partition_fires_on_full_span(self):
        d = base_dict()
        # K spans 96; a 96-wide tile is a degenerate single chunk.
        d["mapping"]["partitioning"]["Z"] = {"K": ["uniform_shape(96)"]}
        fired(d, "mapping/tile-over-partition")

    def test_tile_over_partition_fires_on_nonshrinking_chain(self):
        d = base_dict()
        d["mapping"]["partitioning"]["Z"] = {
            "K": ["uniform_shape(8)", "uniform_shape(8)"]
        }
        d["mapping"]["loop-order"]["Z"] = ["K2", "K1", "K0", "M", "N"]
        fired(d, "mapping/tile-over-partition")

    def test_tile_under_span_clean(self):
        d = base_dict()
        d["mapping"]["partitioning"]["Z"] = {"K": ["uniform_shape(48)"]}
        silent(d, "mapping/tile-over-partition")

    def test_tile_divides_fires_on_ragged_tile(self):
        d = base_dict()
        d["mapping"]["partitioning"]["Z"] = {"K": ["uniform_shape(10)"]}
        hits = fired(d, "mapping/tile-divides")
        assert hits[0].severity == WARN
        assert "96" in hits[0].message

    def test_tile_divides_clean_on_even_tile(self):
        silent(base_dict(), "mapping/tile-divides")

    def test_spacetime_coverage_fires_on_unscheduled_rank(self):
        d = base_dict()
        d["mapping"]["spacetime"] = {
            "Z": {"space": ["K1"], "time": ["K0", "M"]}  # N unscheduled
        }
        fired(d, "mapping/spacetime-coverage")

    def test_spacetime_coverage_fires_on_overlap(self):
        d = base_dict()
        d["mapping"]["spacetime"] = {
            "Z": {"space": ["K1"], "time": ["K1", "K0", "M", "N"]}
        }
        fired(d, "mapping/spacetime-coverage")

    def test_spacetime_full_cover_clean(self):
        d = base_dict()
        d["mapping"]["spacetime"] = {
            "Z": {"space": ["K1"], "time": ["K0", "M", "N"]}
        }
        silent(d, "mapping/spacetime-coverage")


class TestFormatRules:
    def test_unknown_tensor_fires(self):
        d = base_dict()
        d["format"]["C"] = {"Dead": {"M": {"format": "U"}}}
        fired(d, "format/unknown-tensor")

    def test_declared_tensor_clean(self):
        silent(base_dict(), "format/unknown-tensor")

    def test_unknown_rank_fires(self):
        d = base_dict()
        d["format"]["A"]["Comp"]["J"] = {"format": "C"}
        fired(d, "format/unknown-rank")

    def test_partition_derived_rank_clean(self):
        d = base_dict()
        # K0 is not declared, but the K split derives it: legal.
        d["format"]["A"]["Comp"]["K0"] = {"format": "C"}
        silent(d, "format/unknown-rank")

    def test_discordant_compressed_rank_fires(self):
        d = base_dict()
        # A is stored [K, M] but iterated M-before-K: its compressed K
        # fibers need a concordant-traversal swizzle every execution.
        d["mapping"]["loop-order"]["Z"] = ["M", "K1", "K0", "N"]
        hits = fired(d, "format/discordant-compressed-rank")
        assert hits[0].severity == WARN
        assert hits[0].path[:2] == ("format", "A")

    def test_discordant_uncompressed_rank_clean(self):
        d = base_dict()
        d["mapping"]["loop-order"]["Z"] = ["M", "K1", "K0", "N"]
        # Same discordant order, but nothing compressed moves.
        d["format"]["A"]["Comp"]["K"] = {"format": "U"}
        silent(d, "format/discordant-compressed-rank")


class TestArchitectureRules:
    def test_missing_topology_fires(self):
        d = base_dict()
        d["binding"]["Z"]["config"] = "Missing"
        fired(d, "architecture/missing-topology")

    def test_named_topology_clean(self):
        silent(base_dict(), "architecture/missing-topology")

    def test_dead_component_fires(self):
        d = base_dict()
        d["architecture"]["Buffered"]["subtree"][0]["local"].append(
            {"name": "Scratch", "class": "Buffer",
             "attributes": {"type": "buffet", "width": 64, "depth": 64}})
        hits = fired(d, "architecture/dead-component")
        assert "Scratch" in hits[0].message

    def test_unbound_dram_is_exempt(self):
        d = base_dict()
        d["architecture"]["Buffered"]["subtree"][0]["local"].append(
            {"name": "DRAM2", "class": "DRAM",
             "attributes": {"bandwidth": 64}})
        silent(d, "architecture/dead-component")


class TestBindingRules:
    def test_unknown_einsum_fires(self):
        d = base_dict()
        d["binding"]["Q"] = {"config": "Buffered",
                             "components": {"ALU": [{"op": "mul"}]}}
        fired(d, "binding/unknown-einsum")

    def test_known_einsum_clean(self):
        silent(base_dict(), "binding/unknown-einsum")

    def test_unknown_component_fires(self):
        d = base_dict()
        d["binding"]["Z"]["components"]["GhostBuf"] = [
            {"tensor": "A", "rank": "K", "type": "elem", "style": "lazy"}
        ]
        fired(d, "binding/unknown-component")

    def test_known_component_clean(self):
        silent(base_dict(), "binding/unknown-component")

    def test_unknown_tensor_fires(self):
        d = base_dict()
        d["binding"]["Z"]["components"]["ABuf"].append(
            {"tensor": "C", "rank": "K", "type": "elem", "style": "lazy"})
        fired(d, "binding/unknown-tensor")

    def test_declared_tensor_clean(self):
        silent(base_dict(), "binding/unknown-tensor")

    def test_unrouted_tensor_fires(self):
        d = base_dict()
        d["einsum"]["declaration"]["T"] = ["M", "N"]
        d["einsum"]["expressions"] = [
            "T[m, n] = A[k, m] * B[k, n]",
            "Z[m, n] = T[m, n]",
        ]
        # Z's binding still routes A, which Z neither reads nor writes.
        hits = fired(d, "binding/unrouted-tensor")
        assert any(h.einsum == "Z" for h in hits)

    def test_participating_tensor_clean(self):
        silent(base_dict(), "binding/unrouted-tensor")

    def test_unknown_rank_fires(self):
        d = base_dict()
        d["binding"]["Z"]["components"]["ABuf"][0]["rank"] = "J"
        fired(d, "binding/unknown-rank")

    def test_partition_derived_rank_clean(self):
        d = base_dict()
        d["binding"]["Z"]["components"]["ABuf"][0]["rank"] = "K0"
        silent(d, "binding/unknown-rank")

    def test_evict_on_unknown_rank_fires(self):
        d = base_dict()
        d["binding"]["Z"]["components"]["ABuf"][0]["evict-on"] = "J"
        hits = fired(d, "binding/evict-on-unknown-rank")
        assert hits[0].severity == WARN

    def test_evict_on_derived_rank_clean(self):
        d = base_dict()
        d["binding"]["Z"]["components"]["ABuf"][0]["evict-on"] = "K1"
        silent(d, "binding/evict-on-unknown-rank")

    def test_format_config_unknown_fires(self):
        d = base_dict()
        d["binding"]["Z"]["components"]["ABuf"][0]["config"] = "Nope"
        fired(d, "binding/format-config-unknown")

    def test_format_config_ambiguous_fires(self):
        d = base_dict()
        d["format"]["A"]["Other"] = {"K": {"format": "U"},
                                     "M": {"format": "U"}}
        # Two configs, the binding names neither.
        fired(d, "binding/format-config-unknown")

    def test_format_config_named_clean(self):
        d = base_dict()
        d["format"]["A"]["Other"] = {"K": {"format": "U"},
                                     "M": {"format": "U"}}
        d["binding"]["Z"]["components"]["ABuf"][0]["config"] = "Comp"
        silent(d, "binding/format-config-unknown")


class TestCapacityRule:
    @pytest.fixture(scope="class")
    def stats(self):
        return WorkloadStats.from_tensors({
            "A": uniform_random("A", ["K", "M"], (96, 48), 0.9, seed=1),
            "B": uniform_random("B", ["K", "N"], (96, 40), 0.9, seed=2),
        })

    def test_capacity_fires_on_tiny_buffer(self, stats):
        d = base_dict()
        local = d["architecture"]["Buffered"]["subtree"][0]["local"]
        buf = next(c for c in local if c["name"] == "ZBuf")
        buf["attributes"]["depth"] = 1  # 64 bits of capacity
        findings = verify_spec(build(d), stats=stats)
        hits = [f for f in findings if f.rule == "binding/capacity"]
        assert hits and hits[0].severity == WARN
        assert "ZBuf" in hits[0].message

    def test_capacity_clean_on_ample_buffer(self, stats):
        findings = verify_spec(build(base_dict()), stats=stats)
        assert "binding/capacity" not in rule_ids(findings)

    def test_capacity_silent_without_stats(self):
        d = base_dict()
        local = d["architecture"]["Buffered"]["subtree"][0]["local"]
        next(c for c in local if c["name"] == "ZBuf")[
            "attributes"]["depth"] = 1
        # The rule is statistical; with no stats it must stay silent
        # rather than guess.
        silent(d, "binding/capacity")


class TestRobustness:
    def test_rules_never_raise_on_layer_garbage(self):
        """A spec mangled at one layer yields findings, not tracebacks."""
        d = base_dict()
        d["mapping"]["partitioning"]["Z"] = {
            "K": ["uniform_shape(0)", "uniform_shape(KP)"],
            "(K, M)": ["flatten()"],
            "J": ["uniform_occupancy(C.4)"],
        }
        d["mapping"]["loop-order"]["Z"] = ["K", "K", "Q"]
        d["binding"]["Z"]["components"]["ABuf"][0]["rank"] = "J"
        findings = lint(d)
        assert findings  # plenty wrong, all reported as findings
        assert all(f.rule in RULES or f.rule.startswith("cli/")
                   for f in findings)


class TestBuilderAgreement:
    """The linter derives rank names with the replay the IR builder
    lowers with, so it accepts exactly the ranks and splits the builder
    makes."""

    def test_unknown_rank_flags_a_split_the_tensor_never_gets(self):
        # Z[M, N] lacks K, so the (M, K) flatten never applies to Z and
        # the split that follows acts on MK, not on Z's M: Z never
        # carries M1.
        d = base_dict()
        d["mapping"]["partitioning"]["Z"] = {
            "(M, K)": ["flatten()", "uniform_shape(4)"]}
        d["mapping"]["loop-order"]["Z"] = ["MK1", "MK0", "N"]
        d["binding"]["Z"]["components"]["ZBuf"][0]["rank"] = "M1"
        d["format"]["Z"] = {"Out": {"M1": {"format": "U"}}}
        [binding] = fired(d, "binding/unknown-rank")
        assert "'M1'" in binding.message
        [fmt] = fired(d, "format/unknown-rank")
        assert fmt.path == ("format", "Z", "Out", "M1")
        # MK1 is a rank A carries (A[K, M] flattens, then splits).
        d["binding"]["Z"]["components"]["ABuf"][0]["rank"] = "MK1"
        assert "'MK1'" not in " ".join(
            f.message for f in lint(d) if f.rule == "binding/unknown-rank")

    @pytest.mark.parametrize("size, rule", [
        (0, "mapping/tile-nonpositive"),
        (10, "mapping/tile-divides"),
        (96, "mapping/tile-over-partition"),
    ])
    def test_no_tile_rule_sees_a_split_after_a_failed_flatten(self, size,
                                                              rule):
        # The flatten of (M, Q) fails (Z has no Q), so the builder never
        # splits anything for this entry; a tile rule must not judge a
        # split over M x Q's span (48 x 2) that does not exist.
        d = base_dict()
        d["mapping"]["partitioning"]["Z"] = {
            "(M, Q)": ["flatten()", f"uniform_shape({size})"]}
        d["mapping"]["loop-order"]["Z"] = ["M", "K", "N"]
        [problem] = fired(d, "mapping/partition-unknown-rank",
                          shapes={"Q": 2})
        assert "['Q']" in problem.message
        silent(d, rule, shapes={"Q": 2})
