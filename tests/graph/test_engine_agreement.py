"""The compiled arena kernels and the interpreter run vertex-centric
cascades identically: same decoded properties, same per-iteration work
and cost, field for field."""

import dataclasses
import re

import networkx as nx
import pytest

import repro.model.backend as backend_mod
from repro.graph import (
    DESIGNS,
    PROPOSAL,
    ConvergenceError,
    graphdyns_cascade,
    graphicionado_cascade,
    run_vertex_centric,
)
from repro.model import GLOBAL_COMPILE_CACHE, CompiledBackend
from repro.workloads import adjacency_from_networkx, random_graph

ALGORITHMS = ("bfs", "sssp", "cc")


def _two_component_graph():
    """The graph of ``test_connected_components.py``: {0..3} and {4..6}."""
    g = nx.Graph()
    g.add_edges_from([(0, 1), (1, 2), (2, 3), (4, 5), (5, 6)])
    return adjacency_from_networkx(g, weighted=True, seed=2)


def _sink_source_graph():
    """A directed chain 3 -> 2 -> 1 -> 0: source 0 has no out-edges, so
    its frontier empties after one iteration."""
    g = nx.DiGraph()
    g.add_nodes_from(range(4))  # node v is vertex v
    g.add_edges_from([(3, 2), (2, 1), (1, 0)])
    return adjacency_from_networkx(g, weighted=True, seed=5)


GRAPHS = {
    "random": lambda: random_graph(n=60, avg_degree=6, seed=3),
    "two-component": _two_component_graph,
    "sink-source": _sink_source_graph,
}


@pytest.fixture(scope="module", params=sorted(GRAPHS))
def graph(request):
    return GRAPHS[request.param]()


def _fields(result):
    return (sorted(result.properties.items()),
            [dataclasses.astuple(it) for it in result.iterations])


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("design", list(DESIGNS.values()),
                         ids=lambda d: d.name)
def test_default_backend_matches_interpreter(graph, design, algorithm):
    fast = run_vertex_centric(design, graph, 0, algorithm)
    ref = run_vertex_centric(design, graph, 0, algorithm,
                             backend="interpreter")
    assert _fields(fast) == _fields(ref)
    assert fast.iterations  # the loop ran at least once


def test_sink_source_stops_after_one_iteration():
    res = run_vertex_centric(PROPOSAL, _sink_source_graph(), 0, "bfs")
    assert res.num_iterations == 1
    assert res.properties == {0: 0.0}


@pytest.mark.parametrize("cascade", [graphicionado_cascade,
                                     graphdyns_cascade])
def test_every_einsum_compiles_to_a_flat_kernel(cascade):
    for unit in GLOBAL_COMPILE_CACHE.get(cascade()).units:
        assert callable(unit.flat)


def test_default_run_never_calls_the_interpreter(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the interpreter ran")

    monkeypatch.setattr(backend_mod, "execute_cascade", refuse)
    res = run_vertex_centric(PROPOSAL, GRAPHS["random"](), 0, "sssp")
    assert res.num_iterations > 1


def test_one_prep_cache_per_run_prepares_the_graph_once():
    seen = []

    class Recording(CompiledBackend):
        def run_cascade(self, *args, prep_cache=None, **kwargs):
            seen.append(prep_cache)
            return super().run_cascade(*args, prep_cache=prep_cache,
                                       **kwargs)

    engine = Recording()
    run_vertex_centric(PROPOSAL, GRAPHS["random"](), 0, "bfs",
                       backend=engine)
    first_run = list(seen)
    assert len(first_run) > 1
    assert all(cache is first_run[0] for cache in first_run)
    # G's arena is built on the first iteration and reused afterwards.
    assert first_run[0].hits >= len(first_run) - 1
    run_vertex_centric(PROPOSAL, GRAPHS["random"](), 0, "bfs",
                       backend=engine)
    assert seen[len(first_run)] is not first_run[0]


@pytest.mark.parametrize("backend", [None, "interpreter"])
def test_truncated_run_raises(backend):
    message = (re.escape(f"{PROPOSAL.name}/bfs") + r".* 1 iterations: "
               r"\d+ vertices still active")
    with pytest.raises(ConvergenceError, match=message):
        run_vertex_centric(PROPOSAL, GRAPHS["random"](), 0, "bfs",
                           max_iterations=1, backend=backend)


def test_exact_iteration_budget_is_not_truncation():
    full = run_vertex_centric(PROPOSAL, GRAPHS["random"](), 0, "bfs")
    again = run_vertex_centric(PROPOSAL, GRAPHS["random"](), 0, "bfs",
                               max_iterations=full.num_iterations)
    assert _fields(again) == _fields(full)
