"""Graph workloads for the vertex-centric study (paper section 8).

Graphs are adjacency matrices ``G[d, s]`` (destination, source) on the
fibertree substrate, generated from the Table 4 graph stand-ins or from
networkx generators.  Edge weights are positive integers so SSSP has
non-trivial shortest paths.  ``networkx`` is imported only by the generator
that calls it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from ..fibertree import Tensor
from .datasets import TABLE4

if TYPE_CHECKING:
    import networkx as nx


def adjacency_from_dataset(key: str, seed: int = 0,
                           weighted: bool = True) -> Tensor:
    """G[d, s] for a Table 4 graph stand-in (square, power-law)."""
    ds = TABLE4[key]
    n = max(ds.shape)
    g = ds.matrix(name="G", rank_ids=("D", "S"), seed=seed)
    rng = np.random.default_rng(seed + 17)
    points = []
    for (d, s), _ in g.leaves():
        w = float(rng.integers(1, 10)) if weighted else 1.0
        points.append(((d % n, s % n), w))
    return Tensor.from_coo("G", ["D", "S"], points, shape=[n, n])


def adjacency_from_networkx(graph: "nx.Graph", weighted: bool = True,
                            seed: int = 0) -> Tensor:
    """G[d, s] from a networkx graph (directed or undirected)."""
    n = graph.number_of_nodes()
    relabel = {v: i for i, v in enumerate(graph.nodes())}
    rng = np.random.default_rng(seed)
    points = []
    for u, v, data in graph.edges(data=True):
        w = float(data.get("weight",
                           rng.integers(1, 10) if weighted else 1.0))
        points.append(((relabel[v], relabel[u]), w))
        if not graph.is_directed():
            points.append(((relabel[u], relabel[v]), w))
    return Tensor.from_coo("G", ["D", "S"], points, shape=[n, n])


def random_graph(n: int = 200, avg_degree: float = 8.0, seed: int = 0,
                 weighted: bool = True) -> Tensor:
    """A scale-free-ish random digraph as an adjacency tensor."""
    import networkx as nx

    m = max(1, int(avg_degree / 2))
    g = nx.barabasi_albert_graph(n, m, seed=seed)
    return adjacency_from_networkx(g, weighted=weighted, seed=seed)


def reachable_source(adj: Tensor, seed: int = 0) -> int:
    """A source vertex with at least one outgoing edge."""
    sources = sorted({s for (_, s), _ in adj.leaves()})
    if not sources:
        raise ValueError("graph has no edges")
    rng = np.random.default_rng(seed)
    return int(sources[rng.integers(0, len(sources))])
