"""Search-sweep contracts on one buffered spec's full candidate space.

Every loop order of (M, N, K) x (untiled, K:8, K:16) is priced on one
96x48 / 96x40 SpMSpM pair, and the shortcuts a sweep can take must not
change its answer:

* **search** — the parallel pruned search (vector scoring for
  everyone, the top ``PRUNE_TO`` kept) picks the serial exhaustive
  traced sweep's best with bit-identical metrics;
* **analytical** — so does the pruned search whose phase 0 is the
  statistics tier (``prune_metrics="analytical"``);
* **supervised** — a cached sweep that loses its three newest result
  entries, re-run with the same ``cache=``, re-evaluates only those
  three and reaches the same best and fingerprint;
* **store** — a warm sweep is served from the persistent store
  without recomputing and stays bit-identical;
* **lint** — ``validate="strict"`` drops the degenerate-tile
  candidates statically and keeps the unpruned best.
"""

import os

import pytest

from faults import FaultPlan
from repro.search import MappingSpace, metrics_fingerprint, search
from repro.spec import load_spec
from repro.store import PersistentStore
from repro.workloads import uniform_random

#: The buffered architecture with evict-on ranks (M) that exist in every
#: candidate mapping — the space tiles only K, so the bindings stay
#: meaningful across it.
SPEC = """
einsum:
  declaration:
    A: [K, M]
    B: [K, N]
    Z: [M, N]
  expressions:
    - Z[m, n] = A[k, m] * B[k, n]
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
          - name: ZBuf
            class: Buffer
            attributes: {type: buffet, width: 64, depth: 1024}
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
      ZBuf:
        - {tensor: Z, rank: N, type: elem, style: lazy, evict-on: M}
      ALU:
        - op: mul
"""

RANKS = ("M", "N", "K")
TILE_SIZES = {"K": (8, 16)}
PRUNE_TO = 4
#: The search ladder plus two tile sizes past K's extent (96): single-
#: chunk no-ops the spec linter proves infeasible statically.
LINT_TILE_SIZES = {"K": (8, 16, 256, 1024)}


@pytest.fixture(scope="module")
def spec():
    return load_spec(SPEC, name="search-sweep")


@pytest.fixture(scope="module")
def tensors():
    return {
        "A": uniform_random("A", ["K", "M"], (96, 48), 0.15, seed=5),
        "B": uniform_random("B", ["K", "N"], (96, 40), 0.15, seed=7),
    }


@pytest.fixture(scope="module")
def exhaustive(spec, tensors):
    """The serial exhaustive sweep at full traced fidelity."""
    return search(spec, tensors, tile_sizes=TILE_SIZES, workers=1,
                  metrics="trace")


@pytest.fixture(scope="module")
def pruned(spec, tensors):
    return search(spec, tensors, tile_sizes=TILE_SIZES, prune_to=PRUNE_TO)


def assert_same_best(reference, other):
    (cand_r, res_r), (cand_o, res_o) = reference.best(), other.best()
    assert cand_o == cand_r, (
        f"best {cand_o.describe()} diverged from {cand_r.describe()}"
    )
    return res_r, res_o


def test_pruned_search_finds_exhaustive_best(exhaustive, pruned):
    res_s, res_p = assert_same_best(exhaustive, pruned)
    assert res_s.exec_seconds == res_p.exec_seconds
    assert res_s.traffic_bytes() == res_p.traffic_bytes()
    assert res_s.energy_pj == res_p.energy_pj
    assert res_s.action_counts() == res_p.action_counts()
    assert pruned.n_scored == len(exhaustive.candidates) \
        == MappingSpace.of(RANKS, TILE_SIZES).size() == 18


def test_analytical_pruned_search_finds_exhaustive_best(spec, tensors,
                                                        exhaustive):
    pruned = search(spec, tensors, tile_sizes=TILE_SIZES,
                    prune_to=PRUNE_TO, prune_metrics="analytical")
    res_s, res_p = assert_same_best(exhaustive, pruned)
    # Survivors were re-priced with the traced reference, so the winning
    # metrics are bit-identical, not just close.
    assert res_s.exec_seconds == res_p.exec_seconds
    assert res_s.traffic_bytes() == res_p.traffic_bytes()
    assert pruned.n_priced == PRUNE_TO
    assert pruned.n_scored == exhaustive.n_scored


def test_resumed_sweep_is_bit_identical(spec, tensors, pruned, tmp_path,
                                        monkeypatch):
    path = str(tmp_path / "cache")
    first = search(spec, tensors, tile_sizes=TILE_SIZES,
                   prune_to=PRUNE_TO, cache=path)
    assert first.best()[0] == pruned.best()[0]

    # Lose the last committed results the way a kill would: delete the
    # three most recently written result entries of the store.
    results = os.path.join(path, "objects", "results")
    entries = sorted((os.path.join(d, f)
                      for d, _, files in os.walk(results)
                      for f in files), key=os.path.getmtime)
    for entry in entries[-3:]:
        os.remove(entry)

    monkeypatch.setenv("REPRO_FAULT_INJECTION", "1")
    plan = FaultPlan(str(tmp_path / "faults"))
    os.makedirs(plan.root, exist_ok=True)
    plan.install()
    try:
        count = plan.add("search-sweep", "count")  # every evaluation
        resumed = search(spec, tensors, tile_sizes=TILE_SIZES,
                         prune_to=PRUNE_TO, cache=path)
        assert plan.fired(count) == 3  # exactly the lost entries
    finally:
        plan.uninstall()
    assert resumed.stats["n_adopted"] == len(entries) - 3 == 15
    res_p, res_r = assert_same_best(pruned, resumed)
    assert metrics_fingerprint(res_r) == metrics_fingerprint(res_p)


def test_warm_store_sweep_hits_and_is_bit_identical(spec, tensors,
                                                    tmp_path):
    cache = str(tmp_path / "cache")
    cold = search(spec, tensors, tile_sizes=TILE_SIZES, prune_to=PRUNE_TO,
                  cache=cache)
    store = PersistentStore(cache)
    warm = search(spec, tensors, tile_sizes=TILE_SIZES, prune_to=PRUNE_TO,
                  cache=store)
    assert store.stats.hits > 0 and store.stats.puts == 0, (
        "the warm sweep recomputed instead of hitting the store"
    )
    res_c, res_w = assert_same_best(cold, warm)
    assert metrics_fingerprint(res_w) == metrics_fingerprint(res_c)


def test_static_pruning_keeps_the_best(spec, tensors):
    n_total = MappingSpace.of(RANKS, LINT_TILE_SIZES).size()
    assert n_total == 30
    unvalidated = search(spec, tensors, tile_sizes=LINT_TILE_SIZES,
                         workers=1)
    validated = search(spec, tensors, tile_sizes=LINT_TILE_SIZES,
                       workers=1, validate="strict")
    pruned = validated.stats["statically_pruned"]
    assert unvalidated.n_scored == n_total
    assert pruned > 0 and validated.n_scored == n_total - pruned, (
        f"static pruning dropped {pruned} of {n_total} but scored "
        f"{validated.n_scored}"
    )
    res_u, res_v = assert_same_best(unvalidated, validated)
    assert metrics_fingerprint(res_v) == metrics_fingerprint(res_u)
