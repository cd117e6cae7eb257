"""Vertex-centric graph accelerators (paper section 8, Figures 12-13)."""

from .algorithms import reference_bfs, reference_sssp
from .designs import (
    DESIGNS,
    GRAPHDYNS,
    GRAPHICIONADO,
    PROPOSAL,
    Design,
    GraphicionadoConfig,
)
from .driver import (
    ConvergenceError,
    IterationStats,
    RunResult,
    run_vertex_centric,
)
from .vcp import (
    ALGORITHM_OPSETS,
    graphdyns_cascade,
    graphicionado_cascade,
    opset_for,
)

__all__ = [
    "ALGORITHM_OPSETS",
    "ConvergenceError",
    "DESIGNS",
    "Design",
    "GRAPHDYNS",
    "GRAPHICIONADO",
    "GraphicionadoConfig",
    "IterationStats",
    "PROPOSAL",
    "RunResult",
    "graphdyns_cascade",
    "graphicionado_cascade",
    "opset_for",
    "reference_bfs",
    "reference_sssp",
    "run_vertex_centric",
]
