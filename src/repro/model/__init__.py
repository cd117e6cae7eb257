"""Performance model: executor, traces, components, footprints, energy."""

from .components import (
    BuffetModel,
    CacheModel,
    ComputeModel,
    DramModel,
    IntersectModel,
    MergerModel,
    SequencerModel,
    Traffic,
)
from .backend import (
    Backend,
    CompileCache,
    CompiledBackend,
    GLOBAL_COMPILE_CACHE,
    InterpreterBackend,
    PrepCache,
    resolve_backend,
    spec_cache_key,
    spec_fingerprint,
)
from .energy import DEFAULT_ENERGY_PJ, EnergyModel
from .evaluate import (
    EinsumModel,
    EnvVarError,
    EvaluationResult,
    ExecutorDowngradeWarning,
    FusedMachines,
    METRICS_MODES,
    ModelSink,
    ProcessExecutorError,
    default_workers,
    evaluate,
    evaluate_many,
    fuse_blocks,
    process_incompatibilities,
)
from .executor import (
    ExecutionError,
    execute_cascade,
    execute_einsum,
    install_fault_hook,
    prepare_tensor,
)
from .footprint import (
    FootprintOracle,
    algorithmic_minimum_bits,
    tensor_rank_stats,
)
from .traces import CountingSink, KernelCounters, TraceSink

#: Exported from :mod:`repro.model.analytical`, which is imported on first
#: access to one of them: the exact path never uses that tier.
_ANALYTICAL = frozenset((
    "AnalyticalResult",
    "EinsumEstimate",
    "TensorStats",
    "UnresolvedRankShapeError",
    "WorkloadStats",
    "derive_output_stats",
    "evaluate_analytical",
))


def __getattr__(name):
    if name in _ANALYTICAL:
        from . import analytical
        return getattr(analytical, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AnalyticalResult",
    "Backend",
    "BuffetModel",
    "CacheModel",
    "CompileCache",
    "CompiledBackend",
    "ComputeModel",
    "CountingSink",
    "DEFAULT_ENERGY_PJ",
    "DramModel",
    "EinsumEstimate",
    "EinsumModel",
    "EnergyModel",
    "EnvVarError",
    "EvaluationResult",
    "ExecutionError",
    "ExecutorDowngradeWarning",
    "FootprintOracle",
    "FusedMachines",
    "GLOBAL_COMPILE_CACHE",
    "InterpreterBackend",
    "IntersectModel",
    "KernelCounters",
    "MergerModel",
    "ModelSink",
    "METRICS_MODES",
    "PrepCache",
    "ProcessExecutorError",
    "SequencerModel",
    "TensorStats",
    "TraceSink",
    "Traffic",
    "UnresolvedRankShapeError",
    "WorkloadStats",
    "algorithmic_minimum_bits",
    "derive_output_stats",
    "default_workers",
    "evaluate",
    "evaluate_analytical",
    "evaluate_many",
    "execute_cascade",
    "execute_einsum",
    "fuse_blocks",
    "install_fault_hook",
    "prepare_tensor",
    "process_incompatibilities",
    "resolve_backend",
    "spec_cache_key",
    "spec_fingerprint",
    "tensor_rank_stats",
]
