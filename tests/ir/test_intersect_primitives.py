"""Direct tests of the batched two-way intersection primitives.

``rt.visect2`` (one span pair) and ``rt.SiblingMap.intersect`` (one
fixed span against a block of sibling spans) must reproduce, span by
span, what the priced kernels' inline scalar merge computes: the matched
positions of both inputs and each input's visit count, including the
galloping merge's early stop when either input runs out.
"""

import bisect

import hypothesis.strategies as st
import numpy as np
from hypothesis import example, given

import repro.ir.codegen_runtime as rt


def gallop(c0, a0, b0, off0, c1, a1, b1, off1):
    """The scalar leaf's two-way merge over ``[a0, b0)`` x ``[a1, b1)``.

    A match visits one coordinate of each input; a skip gallops the
    lagging input to the other's head and visits what it jumped over.
    The loop stops as soon as either input is exhausted.
    """
    p0, p1 = a0, a1
    q0, q1 = [], []
    v0 = v1 = 0
    while p0 < b0 and p1 < b1:
        h0, h1 = c0[p0] + off0, c1[p1] + off1
        if h0 == h1:
            q0.append(p0)
            q1.append(p1)
            v0 += 1
            v1 += 1
            p0 += 1
            p1 += 1
        elif h0 < h1:
            nx = bisect.bisect_left(c0, h1 - off0, p0, b0)
            v0 += nx - p0
            p0 = nx
        else:
            nx = bisect.bisect_left(c1, h0 - off1, p1, b1)
            v1 += nx - p1
            p1 = nx
    return q0, q1, v0, v1


def level(fibers):
    """(coordinates, segment pointers) of a level holding ``fibers``."""
    coords = np.array([c for f in fibers for c in f], dtype=np.int64)
    segs = np.cumsum([0] + [len(f) for f in fibers]).astype(np.int64)
    return coords, segs


def fibers(lo, hi, max_fibers=6):
    """Ragged fibers over coordinates [lo, hi], about half of them empty."""
    fiber = st.lists(st.integers(lo, hi), unique=True, min_size=1,
                     max_size=12).map(sorted)
    return st.lists(st.one_of(st.just([]), fiber), min_size=1,
                    max_size=max_fibers)


#: A fiber over the whole test domain (negative coordinates included).
DENSE = list(range(-5, 31))


@st.composite
def sibling_cases(draw):
    """A fixed level, a walking level and one fixed span against a run
    of sibling fibers, covering equal and unequal offsets, disjoint
    shifted ranges and shared last coordinates.  The fixed level ends
    with a dense fiber, so the map over the 36-wide domain always fits."""
    fixed = draw(fibers(-5, 30, max_fibers=3)) + [DENSE]
    walk = draw(fibers(-5, 30))
    f = draw(st.integers(0, len(fixed) - 1))
    if draw(st.booleans()) and fixed[f]:
        # The siblings end on the fixed span's last coordinate.
        last = fixed[f][-1]
        walk = [sorted({c for c in w if c < last} | {last}) for w in walk]
    off0 = draw(st.integers(-8, 8))
    off1 = draw(st.sampled_from([off0, off0 + 40, off0 - 40,
                                 draw(st.integers(-8, 8))]))
    n_a = draw(st.integers(0, len(walk) - 1))
    n_b = draw(st.integers(n_a, len(walk)))
    return fixed, walk, f, off0, off1, n_a, n_b


@given(fixed=fibers(-5, 30, max_fibers=1), walk=fibers(-5, 30, max_fibers=1),
       off0=st.integers(-8, 8), off1=st.integers(-8, 8))
def test_visect2_matches_scalar_merge(fixed, walk, off0, off1):
    c0, s0 = level(fixed)
    c1, s1 = level(walk)
    a0, b0, a1, b1 = int(s0[0]), int(s0[1]), int(s1[0]), int(s1[1])
    q0, q1, v0, v1 = rt.visect2(c0, a0, b0, off0, c1, a1, b1, off1)
    ref = gallop(c0.tolist(), a0, b0, off0, c1.tolist(), a1, b1, off1)
    assert (q0.tolist(), q1.tolist(), v0, v1) == ref


@given(sibling_cases())
@example(([[1, 2, 3, 5], DENSE], [[2, 3, 4], [], [0, 7], []], 0, 0, 0, 0, 4))
@example(([[1, 2, 3, 5], DENSE], [[], [5], [2, 5], [6]], 0, 0, 0, 1, 4))
@example(([[4, 9], DENSE], [[0, 1], [20, 30]], 0, 0, 0, 0, 2))
@example(([[4, 9], DENSE], [[4, 9], [3, 4]], 0, 0, -40, 0, 2))
@example(([DENSE[5:]], [[-3, -2, 1], [-5, 29, 30]], 0, 0, 0, 0, 2))
def test_sibling_intersect_matches_scalar_merge(case):
    fixed, walk, f, off0, off1, n_a, n_b = case
    c0, s0 = level(fixed)
    c1, s1 = level(walk)
    sm = rt.SiblingMap(c0, c1, s1)
    a0, b0 = int(s0[f]), int(s0[f + 1])
    got = sm.intersect(a0, b0, off0, n_a, n_b, off1)
    assert got is not None
    q0, q1, starts, counts, v0, v1 = got
    assert len(starts) == len(counts) == len(v0) == len(v1) == n_b - n_a
    for s in range(n_b - n_a):
        a1, b1 = int(s1[n_a + s]), int(s1[n_a + s + 1])
        ref = gallop(c0.tolist(), a0, b0, off0, c1.tolist(), a1, b1, off1)
        o, m = starts[s], counts[s]
        assert (q0[o:o + m].tolist(), q1[o:o + m].tolist(), v0[s], v1[s]) \
            == ref
        assert all(type(x) is int for x in (o, m, v0[s], v1[s]))
    assert len(q0) == sum(counts)
    assert (sm.pos == -1).all()  # every written slot was reset


@given(sibling_cases())
def test_sibling_map_is_reused_across_parents(case):
    """One map serves every parent of a kernel call: consecutive
    batches over different fixed spans see no stale slots."""
    fixed, walk, _, off0, off1, n_a, n_b = case
    c0, s0 = level(fixed)
    c1, s1 = level(walk)
    sm = rt.SiblingMap(c0, c1, s1)
    for f in range(len(fixed)):
        a0, b0 = int(s0[f]), int(s0[f + 1])
        q0, q1, starts, counts, v0, v1 = sm.intersect(a0, b0, off0,
                                                      n_a, n_b, off1)
        for s in range(n_b - n_a):
            a1, b1 = int(s1[n_a + s]), int(s1[n_a + s + 1])
            want = rt.visect2(c0, a0, b0, off0, c1, a1, b1, off1)
            o, m = starts[s], counts[s]
            assert q0[o:o + m].tolist() == want[0].tolist()
            assert q1[o:o + m].tolist() == want[1].tolist()
            assert (v0[s], v1[s]) == want[2:]


@given(fixed=fibers(0, 40, max_fibers=2), walk=fibers(0, 40),
       spread=st.integers(1, 10**6))
def test_sparse_domain_falls_back_per_span(fixed, walk, spread):
    """A map longer than twice the two levels' combined length is never
    allocated: ``intersect`` returns None, so the leaf calls visect2."""
    fixed = [[c * spread for c in f] for f in fixed]
    c0, s0 = level(fixed)
    c1, s1 = level(walk)
    n = len(c0) + len(c1)
    hi = max(c0.max(initial=0), c1.max(initial=0))
    sm = rt.SiblingMap(c0, c1, s1)
    got = sm.intersect(int(s0[0]), int(s0[1]), 0, 0, len(walk), 0)
    fits = hi + 1 <= 2 * n
    assert (got is not None) == fits
