"""Fibertree substrate: fibers, tensors, and content-preserving transforms."""

from .fiber import Fiber
from .rankid import flatten_name, index_var, rank_of_var, split_names
from .tensor import Tensor
from .arena import (
    FlatArena,
    FlatFiberView,
    arena_from_fiber,
    arena_from_tensor,
    tensor_from_arena,
)
from .convert import (
    arena_from_scipy,
    arena_to_scipy,
    tensor_from_dense,
    tensor_from_scipy,
    tensor_to_dense,
    tensor_to_scipy,
)
from .prepare import prepare_arena

__all__ = [
    "Fiber",
    "FlatArena",
    "FlatFiberView",
    "Tensor",
    "arena_from_fiber",
    "arena_from_scipy",
    "arena_from_tensor",
    "arena_to_scipy",
    "flatten_name",
    "index_var",
    "prepare_arena",
    "rank_of_var",
    "split_names",
    "tensor_from_arena",
    "tensor_from_dense",
    "tensor_from_scipy",
    "tensor_to_dense",
    "tensor_to_scipy",
]
