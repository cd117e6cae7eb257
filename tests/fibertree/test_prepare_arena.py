"""Differential tests: columnar preparation vs the boxed route.

:func:`repro.fibertree.prepare.prepare_arena` applies the rank-order
swizzle and every prep step as column operations over arena buffers.
It must produce, field for field, the arena of the boxed route
``arena_from_tensor(prepare_tensor(...))``: coordinate buffer types and
dtypes, segment pointers, the value buffer type, and every fiber's
``coord_range`` window — including windows that splits record and later
steps drop.
"""

import dataclasses

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from repro.accelerators import FACTORIES, accelerator
from repro.fibertree import Fiber, Tensor, arena_from_tensor, \
    prepare_arena
from repro.ir import build_cascade_ir
from repro.ir.nodes import PrepStep
from repro.model.executor import prepare_tensor


# ----------------------------------------------------------------------
# Field-for-field arena comparison
# ----------------------------------------------------------------------
def _typed(x):
    """A value with its Python type spelled out (recursing into tuples),
    so an ``np.int64`` can never pass for an ``int``."""
    if isinstance(x, tuple):
        return ("tuple", tuple(_typed(c) for c in x))
    return (type(x).__name__, x)


def _same_buffer(got, want, what):
    assert type(got) is type(want), what
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype, what
        assert np.array_equal(got, want), what
    else:
        assert [_typed(x) for x in got] == [_typed(x) for x in want], what


def assert_same_arena(got, want):
    assert got.depth == want.depth
    for level in range(want.depth):
        _same_buffer(got.coords[level], want.coords[level],
                     f"coords[{level}]")
        _same_buffer(got.segs[level], want.segs[level], f"segs[{level}]")
        assert [_typed(r) for r in got.ranges[level]] == \
            [_typed(r) for r in want.ranges[level]], f"ranges[{level}]"
    _same_buffer(got.vals, want.vals, "vals")
    got.validate()


def check(tensor, rank_order, prep):
    # Columns first: the boxed route's transforms read ``tensor.root``,
    # which switches a column-backed tensor to its tree.
    got = prepare_arena(tensor, rank_order, prep)
    want = arena_from_tensor(prepare_tensor(tensor, rank_order, prep))
    assert_same_arena(got, want)


def both_storages(tensor):
    """``tensor`` (column-backed, as ``from_coo`` builds it) and a twin
    whose boxed tree is authoritative."""
    boxed = tensor.copy()
    boxed.root  # noqa: B018 -- the first access switches the storage
    assert tensor.stored_arena is not None and boxed.stored_arena is None
    return tensor, boxed


# ----------------------------------------------------------------------
# Every (tensor, prep) plan of the registered accelerators
# ----------------------------------------------------------------------
def _plans():
    out = []
    for name in FACTORIES:
        spec = accelerator(name)
        for ir in build_cascade_ir(spec):
            for plan in ir.accesses:
                out.append(pytest.param(
                    spec, plan,
                    id=f"{name}-{ir.name}-{plan.tensor}",
                ))
    return out


def _shrunk(step):
    """The step with split sizes small enough that the test tensors
    actually split into several chunks per fiber."""
    if step.kind in ("partition_shape", "partition_occupancy"):
        return dataclasses.replace(
            step, sizes=tuple(max(1, 3 - k) for k in range(len(step.sizes)))
        )
    return step


def _random_tensor(name, ranks, seed, extent=9, density=0.3, ints=False):
    rng = np.random.default_rng(seed)
    shape = (extent,) * len(ranks)
    dense = rng.random(shape) < density
    points = {}
    for point in zip(*np.nonzero(dense)):
        value = int(rng.integers(1, 9)) if ints else float(rng.random() + .5)
        points[tuple(int(c) for c in point)] = value
    return Tensor.from_coo(name, ranks, points.items(), shape=list(shape))


@pytest.mark.parametrize("spec,plan", _plans())
def test_registered_plans(spec, plan):
    ranks = spec.einsum.ranks_of(plan.tensor)
    order = spec.mapping.rank_order_of(plan.tensor, ranks)
    for seed in range(2):
        for prep in (plan.prep, [_shrunk(s) for s in plan.prep]):
            for t in both_storages(_random_tensor(plan.tensor, ranks, seed)):
                check(t, order, prep)


# ----------------------------------------------------------------------
# Hypothesis: random tensors under random step sequences
# ----------------------------------------------------------------------
@st.composite
def prep_cases(draw):
    depth = draw(st.integers(1, 3))
    ranks = [f"R{i}" for i in range(depth)]
    shape = [draw(st.integers(1, 7)) for _ in range(depth)]
    n_points = draw(st.sampled_from([0, 1, draw(st.integers(2, 30))]))
    ints = draw(st.booleans())
    points = {}
    for _ in range(n_points):
        point = tuple(draw(st.integers(0, s - 1)) for s in shape)
        points[point] = draw(st.integers(1, 9)) if ints else \
            draw(st.floats(0.5, 9.5, allow_nan=False))
    tensor = Tensor.from_coo("T", ranks, points.items(), shape=shape)

    order = draw(st.permutations(ranks))
    current = list(order)
    flattened = set()  # ranks with tuple coordinates
    steps = []
    for _ in range(draw(st.integers(0, 4))):
        kinds = ["swizzle", "partition_occupancy"]
        if len(current) > 1:
            kinds.append("flatten")
        if set(current) - flattened:
            kinds.append("partition_shape")
        kind = draw(st.sampled_from(kinds))
        if kind == "swizzle":
            new = draw(st.permutations(current))
            steps.append(PrepStep("swizzle", ranks=tuple(new)))
            current = list(new)
        elif kind == "flatten":
            start = draw(st.integers(0, len(current) - 2))
            width = draw(st.integers(2, len(current) - start))
            group = current[start:start + width]
            name = "".join(group)
            steps.append(PrepStep("flatten", ranks=tuple(group)))
            current[start:start + width] = [name]
            flattened.add(name)
        else:
            pool = current if kind == "partition_occupancy" else \
                [r for r in current if r not in flattened]
            rank = draw(st.sampled_from(pool))
            sizes = tuple(draw(st.lists(st.integers(1, 4), min_size=1,
                                        max_size=2)))
            steps.append(PrepStep(kind, rank=rank, sizes=sizes))
            i = current.index(rank)
            names = [f"{rank}{k}" for k in range(len(sizes), -1, -1)]
            current[i:i + 1] = names
            if rank in flattened:
                flattened.update(names)
    return tensor, order, steps


@given(case=prep_cases())
def test_random_prep_sequences(case):
    tensor, order, steps = case
    check(tensor, order, steps)


def test_empty_and_single_element():
    for points in ([], [((2, 1), 4.0)]):
        t = Tensor.from_coo("T", ["K", "M"], points, shape=[5, 5])
        for prep in ([], [PrepStep("partition_shape", rank="K", sizes=(2,))],
                     [PrepStep("partition_occupancy", rank="M", sizes=(1,))],
                     [PrepStep("flatten", ranks=("K", "M"))]):
            check(t, ["K", "M"], prep)
            check(t, ["M", "K"], prep[:0])


def test_boxed_tree_with_empty_fiber_zero_leaf_and_window():
    """A hand-built tree holds what ``from_coo`` never makes: its empty
    sub-fiber and root window survive steps that keep the tree's
    structure and vanish under a swizzle, and its zero leaf is kept
    throughout, on both routes."""
    root = Fiber([0, 2, 5],
                 [Fiber([1, 3], [1.0, 2.0]), Fiber(),
                  Fiber([0, 4], [3.0, 0.0])],
                 coord_range=(0, 9))
    t = Tensor("T", ["K", "M"], root, [9, 6])
    for order in (["K", "M"], ["M", "K"]):
        for prep in ([],
                     [PrepStep("partition_shape", rank="M", sizes=(4, 2))],
                     [PrepStep("partition_occupancy", rank="K",
                               sizes=(2, 1))],
                     [PrepStep("flatten", ranks=tuple(order))]):
            check(t, order, prep)


def test_tuple_coordinates_split_and_swizzle():
    """Occupancy splits of a flattened rank record tuple windows; a
    later swizzle sorts tuple coordinates with the Python sort."""
    t = _random_tensor("A", ["K", "M", "N"], seed=3, extent=6, density=0.4)
    prep = [
        PrepStep("flatten", ranks=("K", "M")),
        PrepStep("partition_occupancy", rank="KM", sizes=(4, 2)),
        PrepStep("swizzle", ranks=("N", "KM2", "KM1", "KM0")),
        PrepStep("flatten", ranks=("KM1", "KM0")),
    ]
    check(t, ["K", "M", "N"], prep)
    check(t, ["K", "M", "N"], prep[:2])


def test_int_values_keep_list_storage():
    t = _random_tensor("A", ["K", "M"], seed=5, ints=True)
    arena = prepare_arena(t, ["M", "K"], [])
    assert isinstance(arena.vals, list)
    check(t, ["M", "K"], [PrepStep("partition_shape", rank="K",
                                   sizes=(4, 2))])


def test_unknown_step_and_bad_order_raise():
    t = _random_tensor("A", ["K", "M"], seed=1)
    with pytest.raises(ValueError):
        prepare_arena(t, ["K", "M"], [PrepStep("teleport")])
    with pytest.raises(ValueError):
        prepare_arena(t, ["K", "N"], [])
