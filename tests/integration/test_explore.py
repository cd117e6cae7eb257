"""Tests for mapping-space exploration: candidate enumeration and the
serial exhaustive sweep (``search(..., strategy="exhaustive",
workers=1)``)."""

import pytest

from repro.search import Candidate, apply_candidate, enumerate_candidates, \
    search
from repro.fibertree import tensor_to_dense
from repro.spec import load_spec
from repro.workloads import uniform_random

import numpy as np

BASE = """
einsum:
  declaration:
    A: [K, M]
    B: [K, N]
    Z: [M, N]
  expressions:
    - Z[m, n] = A[k, m] * B[k, n]
"""


def serial_sweep(spec, tensors, **kwargs):
    """The serial exhaustive sweep."""
    return search(spec, tensors, strategy="exhaustive", workers=1, **kwargs)


@pytest.fixture(scope="module")
def tensors():
    a = uniform_random("A", ["K", "M"], (24, 20), 0.25, seed=1)
    b = uniform_random("B", ["K", "N"], (24, 16), 0.25, seed=2)
    return {"A": a, "B": b}


class TestEnumeration:
    def test_plain_orders(self):
        cands = enumerate_candidates(["M", "N", "K"])
        assert len(cands) == 6
        assert all(len(c.loop_order) == 3 for c in cands)

    def test_tiling_adds_split_ranks(self):
        cands = enumerate_candidates(["M", "K"], tile_sizes={"K": [4]})
        tiled = [c for c in cands if c.tiles]
        assert tiled
        for c in tiled:
            assert "K1" in c.loop_order and "K0" in c.loop_order
            assert c.loop_order.index("K1") < c.loop_order.index("K0")

    def test_max_loop_orders_truncates(self):
        cands = enumerate_candidates(["M", "N", "K"], max_loop_orders=2)
        assert len(cands) == 2

    def test_describe(self):
        c = Candidate(("K1", "M", "K0"), (("K", 4),))
        assert "K:4" in c.describe()


class TestApplyCandidate:
    def test_candidate_mapping_installed(self, tensors):
        spec = load_spec(BASE)
        cand = Candidate(("K1", "M", "N", "K0"), (("K", 8),))
        new = apply_candidate(spec, "Z", cand)
        assert new.mapping.for_einsum("Z").loop_order == list(
            cand.loop_order
        )
        assert new.mapping.for_einsum("Z").partitioning[0][0] == ("K",)

    def test_original_spec_untouched(self, tensors):
        spec = load_spec(BASE)
        apply_candidate(spec, "Z", Candidate(("M", "N", "K")))
        assert spec.mapping.for_einsum("Z").loop_order == []


class TestExplore:
    def test_all_candidates_functionally_correct(self, tensors):
        result = serial_sweep(
            load_spec(BASE), tensors,
            tile_sizes={"K": [8]}, max_loop_orders=3,
        )
        expected = (
            tensor_to_dense(tensors["A"], shape=[24, 20]).T
            @ tensor_to_dense(tensors["B"], shape=[24, 16])
        )
        assert len(result.candidates) == 6  # 3 orders x (none + K:8)
        for cand, res in result.candidates:
            np.testing.assert_allclose(
                tensor_to_dense(res.env["Z"], shape=expected.shape),
                expected,
                err_msg=cand.describe(),
            )

    def test_ranking_metrics(self, tensors):
        result = serial_sweep(load_spec(BASE), tensors, max_loop_orders=3)
        by_time = result.ranked("exec_seconds")
        assert by_time[0][1].exec_seconds <= by_time[-1][1].exec_seconds
        by_traffic = result.ranked("traffic")
        assert (by_traffic[0][1].traffic_bytes()
                <= by_traffic[-1][1].traffic_bytes())
        with pytest.raises(ValueError):
            result.ranked("beauty")

    def test_best(self, tensors):
        result = serial_sweep(load_spec(BASE), tensors, max_loop_orders=2)
        cand, res = result.best()
        assert res.exec_seconds == min(
            r.exec_seconds for _, r in result.candidates
        )

    def test_cascade_requires_einsum_name(self, tensors):
        spec = load_spec("""
einsum:
  declaration:
    A: [K, M]
    T: [K, M]
    Z: [M]
  expressions:
    - T[k, m] = A[k, m]
    - Z[m] = T[k, m]
""")
        with pytest.raises(ValueError):
            serial_sweep(spec, tensors)


class TestSweepPreparationReuse:
    def test_sweep_prepares_each_distinct_form_once(self, tensors,
                                                    monkeypatch):
        """A full-loop-order sweep must prepare each (tensor, storage
        order, prep) combination exactly once, not once per candidate:
        6 loop orders over 3 ranks need at most 2 swizzle orders per
        2-rank input, so preparation count stays far below the
        candidate count."""
        import repro.model.backend as backend_mod

        calls = []

        def counting(real):
            def prepare(tensor, rank_order, prep_steps):
                calls.append((real.__name__, tensor.name,
                              tuple(rank_order), tuple(prep_steps)))
                return real(tensor, rank_order, prep_steps)
            return prepare

        for entry in ("prepare_tensor", "prepare_arena"):
            monkeypatch.setattr(backend_mod, entry,
                                counting(getattr(backend_mod, entry)))
        result = serial_sweep(load_spec(BASE), tensors)
        n_candidates = len(result.candidates)
        assert n_candidates == 6
        # Every preparation that ran was for a distinct form ...
        assert calls
        assert len(calls) == len(set(calls))
        # ... and far fewer ran than candidates x inputs.
        assert len(calls) < 2 * n_candidates
        assert len(calls) <= 4  # 2 inputs x at most 2 storage orders

    def test_sweep_reuses_arenas_across_candidates(self, tensors,
                                                   monkeypatch):
        import repro.model.backend as backend_mod

        builds = []
        real = backend_mod.prepare_arena

        def counting(t, rank_order, prep_steps):
            builds.append(t.name)
            return real(t, rank_order, prep_steps)

        monkeypatch.setattr(backend_mod, "prepare_arena", counting)
        serial_sweep(load_spec(BASE), tensors)
        # One arena per distinct prepared input form (<= 2 per input),
        # plus nothing per-candidate beyond that.
        input_builds = [n for n in builds if n in ("A", "B")]
        assert 0 < len(input_builds) <= 4


class TestToTable:
    def test_to_table_ranks_and_formats(self, tensors):
        result = serial_sweep(load_spec(BASE), tensors, max_loop_orders=3)
        table = result.to_table()
        lines = table.splitlines()
        assert len(lines) == 2 + len(result.candidates)
        assert "exec_seconds" in lines[0]
        best_cand, _ = result.best()
        assert best_cand.describe() in lines[2]

    def test_to_table_top_truncates(self, tensors):
        result = serial_sweep(load_spec(BASE), tensors, max_loop_orders=3)
        table = result.to_table(metric="traffic", top=2)
        assert len(table.splitlines()) == 4


class TestExploreMetricsModes:
    def test_metrics_modes_agree(self, tensors):
        """auto and trace sweeps rank identically with identical
        numbers."""
        base = load_spec(BASE)
        ref, got = (serial_sweep(base, tensors, max_loop_orders=2, metrics=m)
                    for m in ("trace", "auto"))
        for (c1, r1), (c2, r2) in zip(ref.candidates, got.candidates):
            assert c1 == c2
            assert r1.exec_seconds == r2.exec_seconds
            assert r1.traffic_bytes() == r2.traffic_bytes()
            assert r1.energy_pj == r2.energy_pj
            assert r1.env["Z"].points() == r2.env["Z"].points()
