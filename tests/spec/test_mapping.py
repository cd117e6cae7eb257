"""Tests for the mapping specification parsing and rank derivation."""

import pytest

from repro.spec import MappingSpec, PartitionDirective, SpacetimeRank, SpecError


class TestPartitionDirective:
    def test_uniform_shape_numeric(self):
        d = PartitionDirective.parse("uniform_shape(128)")
        assert d.kind == "uniform_shape"
        assert d.size == 128

    def test_uniform_shape_symbolic(self):
        d = PartitionDirective.parse("uniform_shape(K1)")
        assert d.size == "K1"
        assert d.resolve_size({"K1": 64}) == 64

    def test_symbolic_unresolved_raises(self):
        d = PartitionDirective.parse("uniform_shape(K1)")
        with pytest.raises(SpecError):
            d.resolve_size({})

    def test_uniform_occupancy(self):
        d = PartitionDirective.parse("uniform_occupancy(A.256)")
        assert d.kind == "uniform_occupancy"
        assert d.leader == "A"
        assert d.size == 256

    def test_flatten(self):
        assert PartitionDirective.parse("flatten()").kind == "flatten"

    def test_flatten_with_args_raises(self):
        with pytest.raises(SpecError):
            PartitionDirective.parse("flatten(K)")

    def test_bad_directive_raises(self):
        with pytest.raises(SpecError):
            PartitionDirective.parse("split(4)")

    def test_occupancy_without_leader_raises(self):
        with pytest.raises(SpecError):
            PartitionDirective.parse("uniform_occupancy(256)")

    def test_str_round_trip(self):
        for text in (
            "uniform_shape(128)",
            "uniform_occupancy(A.256)",
            "flatten()",
        ):
            assert str(PartitionDirective.parse(text)) == text


class TestSpacetimeRank:
    def test_plain(self):
        s = SpacetimeRank.parse("KM1")
        assert s.rank == "KM1" and s.style == "pos"

    def test_coord_style(self):
        s = SpacetimeRank.parse("N.coord")
        assert s.rank == "N" and s.style == "coord"

    def test_bad_style(self):
        with pytest.raises(SpecError):
            SpacetimeRank.parse("N.weird")


OUTERSPACE_MAPPING = {
    "rank-order": {
        "A": ["K", "M"],
        "B": ["K", "N"],
        "T": ["M", "K", "N"],
        "Z": ["M", "N"],
    },
    "partitioning": {
        "T": {
            "(K, M)": ["flatten()"],
            "KM": ["uniform_occupancy(A.256)", "uniform_occupancy(A.16)"],
        },
        "Z": {"M": ["uniform_occupancy(T.128)", "uniform_occupancy(T.8)"]},
    },
    "loop-order": {
        "T": ["KM2", "KM1", "KM0", "N"],
        "Z": ["M2", "M1", "M0", "N", "K"],
    },
    "spacetime": {
        "T": {"space": ["KM1", "KM0"], "time": ["KM2", "N"]},
        "Z": {"space": ["M1", "M0"], "time": ["M2", "N", "K"]},
    },
}


class TestMappingSpec:
    def test_outerspace_figure3(self):
        m = MappingSpec.from_dict(OUTERSPACE_MAPPING)
        t = m.for_einsum("T")
        assert t.loop_order == ["KM2", "KM1", "KM0", "N"]
        assert t.space_ranks == ["KM1", "KM0"]
        key, directives = t.partitioning[0]
        assert key == ("K", "M")
        assert directives[0].kind == "flatten"

    def test_replay_outerspace_t(self):
        m = MappingSpec.from_dict(OUTERSPACE_MAPPING)
        replay = m.for_einsum("T").replay(["K", "M", "N"])
        assert replay.ranks == ["KM2", "KM1", "KM0", "N"]
        assert not replay.problems
        assert replay.bases["KM1"] == ("K", "M")
        assert replay.binds["KM0"] == ("K", "M")
        assert replay.binds["KM1"] == ()

    def test_replay_outerspace_z(self):
        m = MappingSpec.from_dict(OUTERSPACE_MAPPING)
        replay = m.for_einsum("Z").replay(["M", "N", "K"])
        assert replay.ranks == ["M2", "M1", "M0", "N", "K"]
        [step] = replay.steps
        assert step.names == ("M2", "M1", "M0") and step.applied

    def test_sigma_flatten_after_split(self):
        # SIGMA (Figure 8c): shape split K, then flatten (M, K0), then
        # occupancy split MK0 -> MK01, MK00.
        m = MappingSpec.from_dict(
            {
                "partitioning": {
                    "Z": {
                        "K": ["uniform_shape(128)"],
                        "(M, K0)": ["flatten()"],
                        "MK0": ["uniform_occupancy(T.16384)"],
                    }
                },
                "loop-order": {"Z": ["K1", "MK01", "MK00", "N"]},
            }
        )
        replay = m.for_einsum("Z").replay(["M", "N", "K"])
        assert set(replay.ranks) == {"K1", "MK01", "MK00", "N"}
        assert replay.bases["MK00"] == ("M", "K")

    def test_replay_records_entries_that_do_not_apply(self):
        # The first entry names a rank Z lacks; the split that follows
        # still applies.  Over a tensor's ranks (A[K, M]) the flatten
        # of (M, N) does not apply either, and nothing splits A.
        m = MappingSpec.from_dict({"partitioning": {"Z": {
            "Q": ["uniform_shape(4)"],
            "(M, N)": ["flatten()", "uniform_shape(8)"],
        }}})
        replay = m.for_einsum("Z").replay(["M", "N", "K"])
        bad, good = replay.steps
        assert "'Q'" in bad.problem and not bad.applied
        assert good.applied and good.names == ("MN1", "MN0")
        assert replay.ranks == ["MN1", "MN0", "K"]
        assert replay.problems == [bad]
        tensor = m.for_einsum("Z").replay(["K", "M"])
        assert tensor.ranks == ["K", "M"]
        assert set(tensor.bases) == {"K", "M"}

    def test_replay_flags_single_rank_and_repeated_flattens(self):
        m = MappingSpec.from_dict({"partitioning": {"Z": {
            "K": ["flatten()"], "(M, M)": ["flatten()"]}}})
        single, repeated = m.for_einsum("Z").replay(["M", "K"]).steps
        assert "at least two ranks" in single.problem
        assert "repeats" in repeated.problem

    def test_default_einsum_mapping_empty(self):
        m = MappingSpec.from_dict({})
        assert m.for_einsum("Q").loop_order == []

    def test_rank_order_default_is_declared(self):
        m = MappingSpec.from_dict({"rank-order": {"A": ["K", "M"]}})
        assert m.rank_order_of("A", ["M", "K"]) == ["K", "M"]
        assert m.rank_order_of("B", ["K", "N"]) == ["K", "N"]
