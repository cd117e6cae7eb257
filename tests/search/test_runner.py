"""Search-runner behavior: parallel/serial equivalence, two-phase
pruning, executor strictness, cascade sweeps, and the explore shim."""

import pytest

from repro.model import PrepCache, ProcessExecutorError
from repro.search import (
    BeamSearch,
    SearchResult,
    explore,
    explore_cascade,
    metrics_fingerprint,
    search,
)
from repro.spec import load_spec
from repro.workloads import uniform_random

BASE = """
einsum:
  declaration:
    A: [K, M]
    B: [K, N]
    Z: [M, N]
  expressions:
    - Z[m, n] = A[k, m] * B[k, n]
"""

BUFFERED = BASE + """
architecture:
  Buffered:
    clock: 1.0e9
    subtree:
      - name: System
        local:
          - name: DRAM
            class: DRAM
            attributes: {bandwidth: 128}
          - name: ABuf
            class: Buffer
            attributes: {type: buffet, width: 64, depth: 256}
          - name: BCache
            class: Buffer
            attributes: {type: cache, width: 64, depth: 16384}
          - name: ALU
            class: Compute
            attributes: {type: mul}
binding:
  Z:
    config: Buffered
    components:
      ABuf:
        - {tensor: A, rank: K, type: elem, style: lazy, evict-on: M}
      BCache:
        - {tensor: B, rank: K, type: elem, style: lazy}
      ALU:
        - op: mul
"""

CASCADE = """
einsum:
  declaration:
    A: [K, M]
    B: [K, N]
    T: [M, N]
    Z: [M]
  expressions:
    - T[m, n] = A[k, m] * B[k, n]
    - Z[m] = T[m, n]
"""


@pytest.fixture(scope="module")
def tensors():
    a = uniform_random("A", ["K", "M"], (24, 20), 0.25, seed=1)
    b = uniform_random("B", ["K", "N"], (24, 16), 0.25, seed=2)
    return {"A": a, "B": b}


def _fingerprints(result):
    return [
        (cand, res.exec_seconds, res.traffic_bytes(), res.energy_pj,
         sorted(res.action_counts().items()))
        for cand, res in result.candidates
    ]


class TestParallelSerialEquivalence:
    def test_thread_pool_matches_serial_bit_identically(self, tensors):
        spec = load_spec(BASE)
        serial = search(spec, tensors, tile_sizes={"K": [8]}, workers=1)
        threaded = search(spec, tensors, tile_sizes={"K": [8]}, workers=4,
                          executor="thread")
        assert _fingerprints(serial) == _fingerprints(threaded)
        assert [c for c, _ in serial.ranked()] \
            == [c for c, _ in threaded.ranked()]

    def test_process_pool_matches_serial_bit_identically(self, tensors):
        spec = load_spec(BASE)
        serial = search(spec, tensors, max_loop_orders=4, workers=1)
        procs = search(spec, tensors, max_loop_orders=4, workers=2,
                       executor="process")
        assert _fingerprints(serial) == _fingerprints(procs)

    def test_parallel_sweep_shares_prep_cache(self, tensors):
        spec = load_spec(BASE)
        cache = PrepCache()
        search(spec, tensors, workers=4, executor="thread",
               prep_cache=cache)
        # 6 loop orders over 2 inputs: at most 2 storage orders each,
        # each missing once for the prepared tensor and once for its
        # arena — every other access across the sweep must hit.
        assert cache.misses <= 8
        assert cache.hits > 0


class TestTwoPhasePruning:
    def test_pruned_topk_contains_exhaustive_best(self, tensors):
        """The default (exact) surrogate provably keeps the best: the
        pruned search's winner must equal the exhaustive winner, with
        bit-identical full metrics."""
        spec = load_spec(BUFFERED)
        exhaustive = search(spec, tensors, tile_sizes={"K": [8]},
                            workers=1, metrics="trace")
        pruned = search(spec, tensors, tile_sizes={"K": [8]},
                        prune_to=3, workers=2)
        best_exh = exhaustive.best()
        assert best_exh[0] in {c for c, _ in pruned.candidates}
        best_pruned = pruned.best()
        assert best_pruned[0] == best_exh[0]
        assert best_pruned[1].exec_seconds == best_exh[1].exec_seconds
        assert best_pruned[1].traffic_bytes() == best_exh[1].traffic_bytes()
        assert best_pruned[1].energy_pj == best_exh[1].energy_pj

    def test_pruning_reprices_only_topk_on_buffered_specs(self, tensors):
        """The analytical surrogate is approximate, so exactly the k
        survivors are re-priced."""
        spec = load_spec(BUFFERED)
        result = search(spec, tensors, tile_sizes={"K": [8]}, prune_to=3,
                        prune_metrics="analytical", workers=1)
        assert result.n_scored == 12
        assert result.n_priced == 3
        assert result.stats["n_repriced"] == 3
        assert result.pruned_to == 3

    def test_exact_phase1_reprices_nothing_on_buffered_specs(self, tensors):
        """An exact phase 1 already priced the survivors trace-exactly:
        nothing is re-priced, and the best candidate and its metrics
        fingerprint equal the exhaustive traced sweep's."""
        spec = load_spec(BUFFERED)
        result = search(spec, tensors, tile_sizes={"K": [8]}, prune_to=3,
                        workers=1)
        assert result.stats["n_repriced"] == 0
        assert result.n_priced == 3
        exhaustive = search(spec, tensors, tile_sizes={"K": [8]},
                            workers=1, metrics="trace")
        assert result.best()[0] == exhaustive.best()[0]
        assert metrics_fingerprint(result.best()[1]) \
            == metrics_fingerprint(exhaustive.best()[1])

    def test_pruning_skips_phase2_without_buffers(self, tensors):
        """On sink-less specs the cheap pass is exact, so nothing is
        re-priced and the survivors keep their phase-1 results."""
        spec = load_spec(BASE)
        result = search(spec, tensors, prune_to=2, workers=1)
        assert result.stats["n_repriced"] == 0
        assert result.n_priced == 2
        full = search(spec, tensors, workers=1)
        assert result.best()[0] == full.best()[0]

    def test_analytical_surrogate_runs_and_prices_exactly(self, tensors):
        """The approximate surrogate still yields exact survivor metrics
        (phase 2 re-prices them with an exact mode)."""
        spec = load_spec(BUFFERED)
        result = search(spec, tensors, prune_to=6,
                        prune_metrics="analytical", workers=1)
        reference = search(spec, tensors, workers=1, metrics="trace")
        exact = {c: r for c, r in reference.candidates}
        for cand, res in result.candidates:
            assert res.exec_seconds == exact[cand].exec_seconds
            assert res.traffic_bytes() == exact[cand].traffic_bytes()

    def test_scores_record_every_proposal(self, tensors):
        spec = load_spec(BUFFERED)
        result = search(spec, tensors, prune_to=2, workers=1)
        assert result.n_scored == 6
        assert len(result.ranked_scores()) == 6
        assert result.ranked_scores()[0][1] <= result.ranked_scores()[-1][1]

    def test_prune_to_must_be_positive(self, tensors):
        with pytest.raises(ValueError):
            search(load_spec(BASE), tensors, prune_to=0)

    @pytest.mark.parametrize("kwargs", [
        {"prune_to": 2, "prune_metrics": "counterz"},
        {"metrics": "fused"},
    ])
    def test_unknown_search_modes_rejected(self, tensors, kwargs):
        """An unknown mode fails the call up front, naming the known
        modes, instead of failing every candidate into an empty sweep."""
        with pytest.raises(ValueError, match="known: 'auto', 'trace'"):
            search(load_spec(BASE), tensors, workers=1, **kwargs)


class TestExecutorStrictness:
    def test_explicit_process_with_custom_energy_model_raises(self, tensors):
        from repro.model import EnergyModel

        with pytest.raises(ProcessExecutorError) as err:
            search(load_spec(BASE), tensors, workers=2,
                   executor="process", energy_model=EnergyModel())
        assert "energy_model" in str(err.value)

    def test_default_path_downgrade_warns_naming_offender(
            self, tensors, monkeypatch):
        """An env-requested process pool that cannot be honored still
        runs the sweep on threads, but now says so — naming the
        argument that blocked the process pool."""
        from repro.model import EnergyModel, ExecutorDowngradeWarning

        monkeypatch.setenv("REPRO_EVALUATE_EXECUTOR", "process")
        with pytest.warns(ExecutorDowngradeWarning, match="energy_model"):
            result = search(load_spec(BASE), tensors, max_loop_orders=3,
                            workers=2, energy_model=EnergyModel())
        assert len(result.candidates) == 3

    def test_unknown_executor_rejected(self, tensors):
        with pytest.raises(ValueError):
            search(load_spec(BASE), tensors, executor="fibers")


class TestProposalContract:
    def test_reproposing_seen_candidates_does_not_end_the_search(
            self, tensors):
        """The strategy contract says re-proposals are 'harmless but
        wasted': a round made entirely of seen candidates must not
        truncate the rounds that follow."""
        from repro.search import SearchStrategy

        class Stutter(SearchStrategy):
            name = "stutter"

            def reset(self, space):
                self.round = 0

            def propose(self, space, scored):
                self.round += 1
                everything = space.all()
                if self.round == 1:
                    return everything[:2]
                if self.round == 2:
                    return everything[:2]  # all duplicates
                if self.round == 3:
                    return everything[2:4]  # must still be evaluated
                return []

        result = search(load_spec(BASE), tensors, strategy=Stutter(),
                        workers=1)
        assert result.n_scored == 4

    def test_runaway_duplicate_strategy_is_bounded(self, tensors):
        """A strategy that re-proposes the same candidate forever must
        terminate (MAX_STALE_ROUNDS), not spin."""
        from repro.search import SearchStrategy

        class Stuck(SearchStrategy):
            name = "stuck"

            def propose(self, space, scored):
                return space.all()[:1]

        result = search(load_spec(BASE), tensors, strategy=Stuck(),
                        workers=1)
        assert result.n_scored == 1


class TestStrategiesEndToEnd:
    def test_beam_search_finds_exhaustive_best_on_buffered_spec(
            self, tensors):
        spec = load_spec(BUFFERED)
        exhaustive = search(spec, tensors, tile_sizes={"K": [8, 16]},
                            workers=1)
        beam = search(spec, tensors, tile_sizes={"K": [8, 16]},
                      strategy=BeamSearch(width=3, init=6, seed=0),
                      workers=2)
        assert beam.best()[0] == exhaustive.best()[0]
        assert beam.n_scored <= exhaustive.n_scored

    def test_random_search_is_seeded_subset(self, tensors):
        spec = load_spec(BASE)
        a = search(spec, tensors, strategy="random", samples=4, seed=9)
        b = search(spec, tensors, strategy="random", samples=4, seed=9)
        assert [c for c, _ in a.candidates] == [c for c, _ in b.candidates]
        full = {c for c, _ in search(spec, tensors, workers=1).candidates}
        assert {c for c, _ in a.candidates} <= full


class TestExploreCascade:
    def test_cascade_searches_every_einsum_in_order(self, tensors):
        spec = load_spec(CASCADE)
        result = explore_cascade(spec, tensors, max_loop_orders=3)
        assert list(result.per_einsum) == ["T", "Z"]
        assert set(result.best_candidates) == {"T", "Z"}
        assert result.best_result is not None
        # The final spec carries both chosen mappings.
        for name, cand in result.best_candidates.items():
            assert result.spec.mapping.for_einsum(name).loop_order \
                == list(cand.loop_order)

    def test_cascade_best_prefix_carries_forward(self, tensors):
        """Searching Z must happen under T's chosen mapping: the final
        evaluation's T mapping equals the recorded best for T."""
        spec = load_spec(CASCADE)
        result = explore_cascade(spec, tensors, max_loop_orders=2)
        t_best = result.best_candidates["T"]
        final_spec = result.best_result.spec
        assert final_spec.mapping.for_einsum("T").loop_order \
            == list(t_best.loop_order)

    def test_cascade_beats_or_matches_default_mapping(self, tensors):
        from repro.model import evaluate

        spec = load_spec(CASCADE)
        result = explore_cascade(spec, tensors)
        default = evaluate(spec, dict(tensors))
        assert result.best_result.exec_seconds <= default.exec_seconds

    def test_single_einsum_spec_requires_no_name(self, tensors):
        result = search(load_spec(BASE), tensors, max_loop_orders=2)
        assert isinstance(result, SearchResult)

    def test_cascade_spec_requires_einsum_name_for_search(self, tensors):
        with pytest.raises(ValueError):
            search(load_spec(CASCADE), tensors)


class TestExploreShim:
    def test_explore_importable_from_both_homes(self):
        from repro.explore import explore as legacy
        from repro.search import explore as canonical
        assert legacy is canonical

    def test_explore_is_serial_exhaustive(self, tensors):
        result = explore(load_spec(BASE), tensors, max_loop_orders=3)
        assert result.strategy == "exhaustive"
        assert result.stats["workers"] == 1
        assert len(result.candidates) == 3
