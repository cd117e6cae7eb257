"""Span entry points of the fused buffet/cache machines.

The batched leaves of the ported kernels hand a machine a whole span's
events in one call: :meth:`FusedBuffet.write_run` / ``write_keys`` for
the output writes of a reduction or map leaf, and, on a cache whose
every span coordinate truncates to one key, the run-of-one-key form of
:meth:`FusedCache.read_span`.  Each call must leave the machine exactly
as its per-event expansion does — the buffet's ``present``, ``dirty``,
``ever_drained`` and evict window; the cache's LRU order, dirty flags
and float ``occupied`` value; and every tally — on any prior history,
at capacity 0 and 1, on empty spans (which must not roll the window),
on keys already drained, and under truncating key depths.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.ir.codegen_runtime import FusedBuffet, FusedCache, batch_ok

LOOP_RANKS = ("P", "Q", "R")
FILL = 96.0


def contexts(min_size=0, max_size=3):
    """Loop contexts: a prefix of LOOP_RANKS with small coordinates."""
    return st.integers(min_size, max_size).flatmap(
        lambda n: st.tuples(*[st.tuples(st.just(LOOP_RANKS[i]),
                                        st.integers(0, 1))
                              for i in range(n)]))


paths = st.lists(st.integers(0, 3), min_size=1, max_size=3).map(tuple)
ranks = st.sampled_from(["K", "M"])


def history(data, machine_pair):
    """Apply one random event history to both machines."""
    for _ in range(data.draw(st.integers(0, 12), label="history")):
        kind = data.draw(st.sampled_from(["read", "write"]), label="kind")
        of = data.draw(ranks, label="of")
        path = data.draw(paths, label="path")
        cx = data.draw(contexts(), label="cx")
        for m in machine_pair:
            getattr(m, kind)(of, path, cx)


def buffet_state(b):
    return (set(b.present), set(b.dirty), set(b.ever_drained), b.window,
            b.tallies())


def cache_state(c):
    return list(c.lru.items()), c.occupied, c.tallies()


def buffets(data):
    kd = data.draw(st.sampled_from([None, 0, 1, 2]), label="key_depth")
    cut = data.draw(st.integers(0, 2), label="cut")
    return FusedBuffet(kd, cut), FusedBuffet(kd, cut)


def caches(data):
    kd = data.draw(st.sampled_from([None, 0, 1, 2]), label="key_depth")
    # Capacity 0 and 1 element, a capacity between multiples, and room.
    cap = data.draw(st.sampled_from([0.0, FILL, 1.5 * FILL, 4 * FILL]),
                    label="capacity")
    return FusedCache(kd, cap, FILL), FusedCache(kd, cap, FILL)


def window_contexts(data, cut):
    """A context whose window is fixed (``cut <= len(cx)``), and the
    per-element leaf contexts ``cx + ((rank, c),)`` of a span under it."""
    cx = data.draw(contexts(min_size=cut, max_size=2), label="span cx")
    return cx, lambda c: cx + ((LOOP_RANKS[len(cx)], c),)


def finish_both(a, b, state):
    a.finish()
    b.finish()
    assert state(a) == state(b)


# ----------------------------------------------------------------------
# FusedBuffet
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_buffet_write_run_matches_writes(data):
    single, batched = buffets(data)
    history(data, (single, batched))
    cx, leaf = window_contexts(data, single.cut)
    of = data.draw(ranks, label="of")
    path = data.draw(paths, label="path")
    n = data.draw(st.integers(0, 4), label="n")
    for c in range(n):
        single.write(of, path, leaf(c))
    batched.write_run(of, path, n, cx)
    assert buffet_state(single) == buffet_state(batched)
    finish_both(single, batched, buffet_state)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_buffet_write_keys_matches_writes(data):
    single, batched = buffets(data)
    history(data, (single, batched))
    cx, leaf = window_contexts(data, single.cut)
    of = data.draw(ranks, label="of")
    points = data.draw(st.lists(paths, max_size=6), label="points")
    for c, point in enumerate(points):
        single.write(of, point, leaf(c))
    batched.write_keys(of, points, cx)
    assert buffet_state(single) == buffet_state(batched)
    finish_both(single, batched, buffet_state)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_buffet_write_seq_matches_writes(data):
    """Fixed windows take write_run, rolling ones stay per coordinate."""
    single, batched = buffets(data)
    history(data, (single, batched))
    cx = data.draw(contexts(max_size=2), label="span cx")
    of = data.draw(ranks, label="of")
    path = data.draw(paths, label="path")
    coords = data.draw(st.lists(st.integers(0, 1), max_size=4),
                       label="coords")
    for c in coords:
        single.write(of, path, cx + (("R", c),))
    batched.write_seq(of, path, "R", coords, cx)
    assert buffet_state(single) == buffet_state(batched)
    finish_both(single, batched, buffet_state)


def test_buffet_empty_spans_do_not_roll():
    buffet = FusedBuffet(None, 1)
    buffet.write("K", (1,), (("P", 0),))
    before = buffet_state(buffet)
    other = (("P", 1),)
    buffet.write_run("K", (2,), 0, other)
    buffet.write_keys("K", [], other)
    buffet.read_span("K", (), [3, 4], 1, 1, 0, other)
    assert buffet_state(buffet) == before
    assert buffet.window == (("P", 0),)


def test_buffet_write_run_refills_a_drained_key():
    """A key drained by a roll returns as a partial-output fill."""
    buffet = FusedBuffet(None, 1)
    buffet.write("K", (1,), (("P", 0),))
    buffet.write_run("K", (1,), 3, (("P", 1),))
    assert buffet.tallies() == {"reads": 0, "writes": 4, "fills": 2,
                                "drains": 1, "partial_output_fills": 1,
                                "fill_reads": 1}


# ----------------------------------------------------------------------
# FusedCache
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cache_write_run_matches_writes(data):
    single, batched = caches(data)
    history(data, (single, batched))
    of = data.draw(ranks, label="of")
    path = data.draw(paths, label="path")
    n = data.draw(st.integers(0, 4), label="n")
    for _ in range(n):
        single.write(of, path, ())
    batched.write_run(of, path, n, ())
    assert cache_state(single) == cache_state(batched)
    finish_both(single, batched, cache_state)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cache_write_keys_matches_writes(data):
    single, batched = caches(data)
    history(data, (single, batched))
    of = data.draw(ranks, label="of")
    points = data.draw(st.lists(paths, max_size=6), label="points")
    for point in points:
        single.write(of, point, ())
    batched.write_keys(of, points, ())
    assert cache_state(single) == cache_state(batched)
    finish_both(single, batched, cache_state)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cache_write_seq_matches_writes(data):
    single, batched = caches(data)
    history(data, (single, batched))
    of = data.draw(ranks, label="of")
    path = data.draw(paths, label="path")
    coords = data.draw(st.lists(st.integers(0, 3), max_size=4),
                       label="coords")
    for _ in coords:
        single.write(of, path, ())
    batched.write_seq(of, path, "R", coords, ())
    assert cache_state(single) == cache_state(batched)
    finish_both(single, batched, cache_state)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_cache_read_span_matches_reads(data):
    """Every key depth: a truncating one (``key_depth <= len(base)``)
    takes the run-of-one-key form."""
    single, batched = caches(data)
    history(data, (single, batched))
    of = data.draw(ranks, label="of")
    base = data.draw(st.lists(st.integers(0, 3), max_size=2).map(tuple),
                     label="base")
    coords = sorted(data.draw(st.lists(st.integers(0, 5), unique=True,
                                       max_size=4), label="coords"))
    lo = data.draw(st.integers(0, len(coords)), label="lo")
    off = data.draw(st.sampled_from([0, 2]), label="off")
    for c in coords[lo:]:
        single.read(of, base + (c + off,), ())
    batched.read_span(of, base, coords, lo, len(coords), off, ())
    assert cache_state(single) == cache_state(batched)
    finish_both(single, batched, cache_state)


# ----------------------------------------------------------------------
# The batched-leaf guard
# ----------------------------------------------------------------------
def test_batch_ok_requires_one_access_per_machine():
    shared = FusedBuffet(None, 0)
    other = FusedBuffet(None, 0)
    # One driver's coord+payload pair may share a machine.
    assert batch_ok(1, ((shared, shared),), other, False)
    assert batch_ok(1, ((shared, shared), (None, None)), None, True)
    # Two drivers, or a driver and the output, may not.
    assert not batch_ok(1, ((shared, None), (shared, None)), None, True)
    assert not batch_ok(1, ((None, shared),), shared, False)


def test_batch_ok_requires_a_fixed_output_window():
    assert batch_ok(2, ((None, None),), FusedBuffet(None, 2), False)
    assert not batch_ok(2, ((None, None),), FusedBuffet(None, 3), False)
    assert batch_ok(0, ((None, None),), FusedCache(None, 0.0, FILL), False)


def test_batch_ok_refuses_a_split_payload_machine_on_a_merge():
    coord, payload = FusedBuffet(None, 0), FusedBuffet(None, 0)
    assert batch_ok(1, ((coord, payload),), None, False)
    assert not batch_ok(1, ((coord, payload), (None, None)), None, True)
    assert batch_ok(1, ((coord, None), (None, None)), None, True)
