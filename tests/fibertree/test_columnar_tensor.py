"""Column-backed tensors: ``Tensor.from_points`` stores a ``FlatArena``
and the boxed fibertree is a view built on first ``.root`` access.

The column route must be indistinguishable from the boxed route it
replaces: the same arena field for field, the same ``leaves()`` /
``points()`` order and Python types, the same ``nnz``.  Points the
columns cannot hold exactly keep the boxed build; a caller who mutates
``.root`` is seen by every engine afterwards; and racing first accesses
from many threads agree.
"""

import pickle
import sys
import threading

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from repro.fibertree import Fiber, FlatArena, Tensor, prepare_arena
from repro.fibertree.tensor import _arena_from_points, _arena_from_rows
from repro.graph import PROPOSAL, run_vertex_centric
from repro.ir.nodes import PrepStep
from repro.model import CompiledBackend, WorkloadStats, evaluate
from repro.spec import load_spec
from repro.workloads import uniform_random


def _typed(x):
    """A value with its Python type spelled out (recursing into tuples)."""
    if isinstance(x, tuple):
        return ("tuple", tuple(_typed(c) for c in x))
    return (type(x).__name__, x)


def _typed_leaves(tensor):
    return [(_typed(p), _typed(v)) for p, v in tensor.leaves()]


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
        assert got.ranges[level] == want.ranges[level], f"ranges[{level}]"
    _same_buffer(got.vals, want.vals, "vals")


def _boxed(ranks, points, shape=None):
    """The boxed route, built independently of ``from_points``: zeros
    dropped, then a nested dict through ``Fiber.from_dict``."""
    nested = {}
    for point, value in points.items():
        if value == 0:
            continue
        node = nested
        for c in point[:-1]:
            node = node.setdefault(c, {})
        node[point[-1]] = value
    return Tensor("T", ranks, Fiber.from_dict(nested), shape)


def _tree_builds(monkeypatch):
    """Record every ``FlatArena.to_fiber`` call."""
    calls = []
    real = FlatArena.to_fiber

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(FlatArena, "to_fiber", counted)
    return calls


SPMSPM = """
einsum:
  declaration:
    A: [K, M]
    B: [K, N]
    Z: [M, N]
  expressions:
    - Z[m, n] = A[k, m] * B[k, n]
"""


# ----------------------------------------------------------------------
# The column route equals the boxed route
# ----------------------------------------------------------------------
@st.composite
def point_sets(draw):
    depth = draw(st.integers(1, 3))
    coord = st.integers(-6, 6)
    value = st.one_of(st.floats(-9, 9, allow_nan=False),
                      st.sampled_from([0.0, -0.0]))
    points = draw(st.dictionaries(st.tuples(*[coord] * depth), value,
                                  min_size=1, max_size=30))
    return [f"R{d}" for d in range(depth)], points


@given(case=point_sets())
def test_columns_match_the_boxed_route(case):
    ranks, points = case
    t = Tensor.from_points("T", ranks, points)
    want = _boxed(ranks, points)
    assert t.stored_arena is not None
    assert_same_arena(t.stored_arena,
                      FlatArena.from_fiber(want.root, len(ranks)))
    t.stored_arena.validate()
    assert t.nnz == want.nnz
    assert _typed_leaves(t) == _typed_leaves(want)
    assert [_typed(p) for p in t.points()] == \
        [_typed(p) for p in want.points()]
    assert t.points() == want.points()

    copy = t.copy("C")
    assert copy.stored_arena is t.stored_arena
    assert copy.name == "C" and _typed_leaves(copy) == _typed_leaves(t)

    assert t == want
    assert t.stored_arena is not None  # comparing built no stored tree
    assert t.root == want.root
    assert t.stored_arena is None
    assert copy.stored_arena is not None  # the copy keeps its columns
    assert _typed_leaves(t) == _typed_leaves(want)


@pytest.mark.parametrize("ranks,points", [
    pytest.param(["K", "M"], {((0, 1), 2): 1.0, ((1, 1), 0): 2.0},
                 id="tuple-coordinate"),
    pytest.param(["K", "M"], {(0, 1): 3, (2, 0): 4}, id="int-values"),
    pytest.param(["K"], {(0,): True, (3,): True}, id="bool-values"),
    pytest.param(["K", "M"], {(0, 1): np.float64(1.5)}, id="np-float64"),
    pytest.param(["K", "M"], {(np.int64(0), 1): 1.5}, id="np-int64-coord"),
    pytest.param(["K"], {(True,): 1.5}, id="bool-coord"),
    pytest.param(["K"], {(2 ** 70,): 1.5, (1,): 2.5}, id="big-int-coord"),
    pytest.param(["K", "M"], {(0, 1): 1.5, (2, 0): 2}, id="mixed-values"),
    pytest.param(["K", "M"], {}, id="empty"),
])
def test_fallback_points_take_the_tree_route(ranks, points):
    t = Tensor.from_points("T", ranks, points)
    assert t.stored_arena is None
    want = _boxed(ranks, points)
    assert t.root == want.root
    assert _typed_leaves(t) == _typed_leaves(want)


# ----------------------------------------------------------------------
# The one-rank build equals the general one
# ----------------------------------------------------------------------
@pytest.mark.parametrize("points", [
    pytest.param({(9,): 1.5, (2,): -2.0, (5,): 3.0, (-4,): 0.5},
                 id="unsorted"),
    pytest.param({(1,): 1.0, (2,): 2.0, (30,): 3.0}, id="sorted"),
    pytest.param({(3,): 0.0, (1,): 2.0, (7,): -0.0, (0,): 4.0},
                 id="signed-zeros"),
    pytest.param({(3,): 0.0, (1,): -0.0}, id="empty-result"),
    pytest.param({(2 ** 63 - 1,): 1.0, (-2 ** 63,): 2.0}, id="int64-edges"),
])
def test_one_rank_arena_equals_the_general_path(points):
    got = _arena_from_points(points, 1)
    assert got is not None
    assert_same_arena(got, _arena_from_rows(points, 1))
    got.validate()


@given(points=st.dictionaries(
    st.tuples(st.integers(-50, 50)),
    st.one_of(st.floats(-9, 9, allow_nan=False),
              st.sampled_from([0.0, -0.0])),
    min_size=1, max_size=40))
def test_one_rank_arena_equals_the_general_path_on_any_points(points):
    assert_same_arena(_arena_from_points(points, 1),
                      _arena_from_rows(points, 1))


@pytest.mark.parametrize("points", [
    pytest.param({(True,): 1.5, (3,): 2.5}, id="bool-coord"),
    pytest.param({(np.int64(2),): 1.5}, id="np-int64-coord"),
    pytest.param({(2 ** 63,): 1.5, (1,): 2.5}, id="int64-overflow"),
    pytest.param({(-2 ** 63 - 1,): 1.5}, id="int64-underflow"),
    pytest.param({(1,): np.float64(1.5)}, id="np-float64-value"),
    pytest.param({(1,): 2, (2,): 1.5}, id="int-value"),
    pytest.param({3: 1.5}, id="int-key"),
    pytest.param({b"\x03": 1.5}, id="bytes-key"),
    pytest.param({range(3, 4): 1.5}, id="range-key"),
    pytest.param({(1, 2): 1.5}, id="two-coordinate-key"),
    pytest.param({(1,): 1.5, (): 2.5}, id="empty-key"),
])
def test_one_rank_path_declines_what_the_general_path_declines(points):
    assert _arena_from_points(points, 1) is None
    if set(map(type, points.values())) == {float}:
        assert _arena_from_rows(points, 1) is None


def test_tensor_pickled_with_a_root_attribute_still_loads():
    """Tensors pickled while ``root`` was a plain attribute (a job
    payload written before column storage) load tree-backed."""
    tree = _boxed(["K"], {(1,): 2.0, (4,): 3.0})
    legacy = Tensor.__new__(Tensor)
    legacy.__dict__.update(name="T", rank_ids=["K"], root=tree.root,
                           shape=[None])
    blob = pickle.dumps(legacy)
    loaded = pickle.loads(blob)
    assert loaded.stored_arena is None
    assert loaded.root == tree.root and loaded.points() == tree.points()


# ----------------------------------------------------------------------
# Mutation through .root is authoritative
# ----------------------------------------------------------------------
def test_mutation_through_root_is_seen_by_every_engine():
    spec = load_spec(SPMSPM)
    a = uniform_random("A", ["K", "M"], (10, 8), 0.5, seed=1)
    b = uniform_random("B", ["K", "N"], (10, 6), 0.5, seed=2)
    (k, m), _ = next(iter(a.leaves()))
    mutated = a.points()
    mutated[(k, m)] = 100.0
    want = Tensor.from_points("A", ["K", "M"], mutated, a.shape)

    a.root.get_payload(k).set_payload(m, 100.0)
    assert a.stored_arena is None
    assert a.points() == want.points()
    expected = CompiledBackend().run_cascade(spec, {"A": want, "B": b})
    got = CompiledBackend().run_cascade(spec, {"A": a, "B": b})
    assert got["Z"].points() == expected["Z"].points()
    res = evaluate(spec, {"A": a, "B": b})
    assert res.env["Z"].points() == expected["Z"].points()


# ----------------------------------------------------------------------
# Threads racing the first .root access
# ----------------------------------------------------------------------
def test_threads_racing_root_and_prepare_agree():
    t = uniform_random("A", ["K", "M"], (40, 30), 0.3, seed=4)
    ref = _boxed(t.rank_ids, t.points(), t.shape)
    swizzled = prepare_arena(ref, ["M", "K"], [])
    split = [PrepStep("partition_occupancy", rank="K", sizes=(3,))]
    chunked = prepare_arena(ref, ["K", "M"], split)
    barrier = threading.Barrier(8)
    roots, arenas, errors = [], [], []

    def work(i):
        try:
            barrier.wait()
            if i % 2:
                roots.append(t.root)
            else:
                arenas.append((prepare_arena(t, ["M", "K"], []),
                               prepare_arena(t, ["K", "M"], split)))
        except Exception as exc:  # noqa: BLE001 -- reported below
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert not errors
    assert len(roots) == 4 and all(r is roots[0] for r in roots)
    assert t.root is roots[0] and roots[0] == ref.root
    for got_swizzled, got_chunked in arenas:
        assert_same_arena(got_swizzled, swizzled)
        assert_same_arena(got_chunked, chunked)


# ----------------------------------------------------------------------
# Readers that need no tree
# ----------------------------------------------------------------------
def test_prepare_without_steps_returns_the_stored_arena():
    t = uniform_random("A", ["K", "M"], (10, 8), 0.5, seed=5)
    arena = prepare_arena(t, ["K", "M"], [])
    assert arena is t.stored_arena
    assert prepare_arena(t, ["M", "K"], []) is not arena


def test_column_backed_inputs_stay_column_backed(monkeypatch):
    calls = _tree_builds(monkeypatch)
    spec = load_spec(SPMSPM)
    a = uniform_random("A", ["K", "M"], (20, 16), 0.3, seed=6)
    b = uniform_random("B", ["K", "N"], (20, 12), 0.3, seed=7)
    res = evaluate(spec, {"A": a, "B": b}, metrics="auto")
    assert res.normalized_traffic() > 0
    WorkloadStats.from_tensors({"A": a, "B": b})
    edges = {(0, 1): 2.0, (1, 2): 1.0, (2, 3): 4.0, (1, 0): 2.0,
             (3, 0): 1.0, (2, 1): 3.0}
    graph = Tensor.from_points("G", ["D", "S"], edges, shape=[4, 4])
    run = run_vertex_centric(PROPOSAL, graph, source=1, algorithm="sssp")
    assert run.num_iterations > 0
    assert calls == []
    for t in (a, b, graph, res.env["Z"]):
        assert t.stored_arena is not None


def test_interpreter_runs_and_transforms_keep_the_columns(monkeypatch):
    """Readers that only walk or transform a tree build their own: the
    caller's column-backed tensor keeps its columns, and the results
    equal those of its boxed twin."""
    # K-major, so the interpreter walks the caller's tensors unswizzled.
    spec = load_spec(SPMSPM + """
mapping:
  loop-order:
    Z: [K, M, N]
""")
    a = uniform_random("A", ["K", "M"], (12, 8), 0.5, seed=8)
    b = uniform_random("B", ["K", "N"], (12, 6), 0.5, seed=9)
    boxed = {"A": _boxed(a.rank_ids, a.points(), a.shape),
             "B": _boxed(b.rank_ids, b.points(), b.shape)}
    for kwargs in ({"metrics": "trace"}, {"backend": "interpreter"}):
        res = evaluate(spec, {"A": a, "B": b}, **kwargs)
        want = evaluate(spec, boxed, **kwargs)
        assert res.env["Z"].points() == want.env["Z"].points()
        assert a.stored_arena is not None and b.stored_arena is not None

    tile = Tensor.from_points("T", ["K1", "K0", "M"],
                              {(4 * (k // 4), k, m): v
                               for (k, m), v in a.points().items()},
                              [12, 12, 8])
    cases = [
        (a, lambda t: t.partition_uniform_shape("K", [4])),
        (a, lambda t: t.partition_uniform_occupancy("K", [3])),
        (a, lambda t: t.partition_by_boundaries("K", ["K1", "K0"],
                                                [0, 5, 9])),
        (a, lambda t: t.flatten_ranks(["K", "M"])),
        (a, lambda t: t.prune_empty()),
        (tile, lambda t: t.unpartition("K1", "K0", "K")),
    ]
    for t, transform in cases:
        twin = _boxed(t.rank_ids, t.points(), t.shape)
        got = transform(t)
        assert t.stored_arena is not None
        want = transform(twin)
        assert got.rank_ids == want.rank_ids and got.shape == want.shape
        assert got.root == want.root
