"""Component machine logs settle exactly as the per-event models decide.

A ported kernel appends each buffet/cache touch to its machine's log —
one record per event, a ``PAIR`` record per coord+payload pair, one
``SPAN`` record per run of positions (with its count of pairs), one
``RUN`` record per run of writes to one key, leaf writes each under a
fresh context — and :meth:`FusedBuffet.settle` / :meth:`FusedCache.settle` price the
whole log once the kernel returns.  Every history here is also streamed
event by event into :class:`~repro.model.components.BuffetModel` /
:class:`~repro.model.components.CacheModel`, and the settled tallies
must price into exactly the model's counts and DRAM traffic (and, for a
buffet, the model's drained-key set) — across window rolls and repeated
windows, key depths ``None``/0/1/2, position- and path-keyed reads,
output points truncated to the key depth, reads then writes of one key,
refills after a drain, empty spans (which must not roll the window), and
capacity 0 and 1 at the float ``occupied`` edge.
"""

import functools

import hypothesis.strategies as st
from hypothesis import given, settings

from machine_logs import (
    History,
    buffet_counts,
    buffet_model,
    buffet_pair,
    cache_counts,
    cache_model,
    cache_pair,
    element,
    point,
    priced,
    walk,
)

KEY_DEPTHS = [None, 0, 1, 2]
#: Evict-window cuts: none, each loop depth, and a rank never met.
CUTS = [0, 1, 2, 3, 4]


def assert_buffet_settles(h, key_depth, cut):
    tallies = h.settle()
    h.model.finish()
    assert buffet_counts(priced(functools.partial(
        buffet_model, key_depth, cut), tallies)) == buffet_counts(h.model)
    assert h.written_keys() == h.model.ever_drained


def assert_cache_settles(h, factory):
    tallies = h.settle()
    h.model.finish()
    assert cache_counts(priced(factory, tallies)) == cache_counts(h.model)


def buffet_history(data):
    kd = data.draw(st.sampled_from(KEY_DEPTHS), label="key_depth")
    cut = data.draw(st.sampled_from(CUTS), label="cut")
    paths = data.draw(st.booleans(), label="paths")
    return History(*buffet_pair(kd, cut), paths=paths), kd, cut


def cache_history(data):
    kd = data.draw(st.sampled_from(KEY_DEPTHS), label="key_depth")
    # Capacity 0 and 1 element, and room; 0.1-bit lines make the float
    # ``occupied`` sum drift across the capacity edge.
    depth = data.draw(st.sampled_from([0, 1, 3, 64]), label="lines")
    bits = data.draw(st.sampled_from([96.0, 0.1]), label="bits")
    paths = data.draw(st.booleans(), label="paths")
    return History(*cache_pair(kd, depth, bits), paths=paths), \
        functools.partial(cache_model, kd, depth, bits)


# ----------------------------------------------------------------------
# Whole histories
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_buffet_history_settles_like_the_model(data):
    h, kd, cut = buffet_history(data)
    walk(data, h)
    assert_buffet_settles(h, kd, cut)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cache_history_settles_like_the_model(data):
    h, factory = cache_history(data)
    walk(data, h)
    assert_cache_settles(h, factory)


# ----------------------------------------------------------------------
# Buffet record forms
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_buffet_write_run_matches_writes(data):
    """Consecutive writes of one key under one window, after any
    history: one fill, one drain, refilled as a partial output when the
    key was drained before."""
    h, kd, cut = buffet_history(data)
    walk(data, h)
    h.enter(0, 9)
    at = point(data, "run")
    for _ in range(data.draw(st.integers(0, 4), label="n")):
        h.write(at, 1)
    assert_buffet_settles(h, kd, cut)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_buffet_write_keys_matches_writes(data):
    """Writes of several keys under one window, repeats included."""
    h, kd, cut = buffet_history(data)
    walk(data, h)
    h.enter(0, 9)
    for _ in range(data.draw(st.integers(0, 6), label="n")):
        h.write(point(data, "key"), 1)
    assert_buffet_settles(h, kd, cut)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_buffet_write_seq_matches_writes(data):
    """A reduction span's writes, each in its own leaf context: one run
    when the window ends above the leaf, one run per write otherwise."""
    h, kd, cut = buffet_history(data)
    walk(data, h)
    h.enter(0, 9)
    h.enter(1, 9)
    h.leaf_writes(point(data, "leaf"), 2,
                  data.draw(st.integers(0, 4), label="n"))
    assert_buffet_settles(h, kd, cut)


def test_buffet_empty_spans_do_not_roll():
    """An empty span record is no event: it neither rolls the window nor
    drains the written key."""
    h = History(*buffet_pair(None, 1))
    h.enter(0, 0)
    h.write((9, 1, 1), 1)
    h.enter(0, 1)
    h.span(2, 3, 3, 1)
    h.enter(0, 2)
    h.span(1, 0, 0, 1)
    h.write((9, 1, 1), 0)  # depth 0: a window of its own
    tallies = h.settle()
    h.model.finish()
    assert tallies["drains"] == 2 and tallies["fills"] == 2
    assert buffet_counts(priced(functools.partial(buffet_model, None, 1),
                                tallies)) == buffet_counts(h.model)


def test_buffet_write_run_refills_a_drained_key():
    """At key depth 0 every write and read names the one key ()."""
    h = History(*buffet_pair(0, 1))
    h.enter(0, 0)
    h.write((9, 0, 1), 1)
    h.enter(0, 1)
    for _ in range(3):
        h.write((10, 2, 0), 1)
    h.read(1, 0, 1)  # present and dirty: a hit
    tallies = h.settle()
    assert (tallies["fills"], tallies["drains"],
            tallies["partial_output_fills"], tallies["fill_reads"],
            tallies["writes"], tallies["reads"]) == (2, 2, 1, 1, 4, 1)


def test_buffet_read_then_write_of_one_key():
    """A key read first fills from DRAM; the write after it in the same
    run dirties it without a second fill, and drains once.  Only a
    subtree bound at the root (key depth 0) keys a read and an output
    write alike: an Einsum never reads its own output."""
    h = History(*buffet_pair(0, 2))
    h.enter(0, 0)
    h.enter(1, 0)
    h.read(2, 0, 2, pair=True)
    h.write((9, 0, 0), 2)
    h.enter(1, 1)
    h.write((11, 3, 2), 2)  # written and drained before: a partial output
    tallies = h.settle()
    h.model.finish()
    assert (tallies["fills"], tallies["drains"], tallies["fill_reads"],
            tallies["partial_output_fills"]) == (2, 2, 2, 1)
    assert buffet_counts(priced(functools.partial(buffet_model, 0, 2),
                                tallies)) == buffet_counts(h.model)


# ----------------------------------------------------------------------
# Cache record forms
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_cache_write_run_matches_writes(data):
    """Consecutive writes of one key: one touch, then hits on the dirty
    MRU line."""
    h, factory = cache_history(data)
    walk(data, h)
    at = point(data, "run")
    for _ in range(data.draw(st.integers(0, 4), label="n")):
        h.write(at, 0)
    assert_cache_settles(h, factory)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_cache_write_keys_matches_writes(data):
    h, factory = cache_history(data)
    walk(data, h)
    for _ in range(data.draw(st.integers(0, 6), label="n")):
        h.write(point(data, "key"), 0)
    assert_cache_settles(h, factory)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_cache_write_seq_matches_writes(data):
    """The cache ignores contexts: per-element leaf writes are a run."""
    h, factory = cache_history(data)
    walk(data, h)
    h.enter(0, 9)
    h.leaf_writes(point(data, "leaf"), 1,
                  data.draw(st.integers(0, 4), label="n"))
    assert_cache_settles(h, factory)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_cache_read_span_matches_reads(data):
    """A span record is its per-position reads, in order, including the
    span whose every position truncates to one key."""
    h, factory = cache_history(data)
    walk(data, h, writes=False)
    level, lo = element(data, h, "span")
    hi = h.span_end(level, lo)
    h.span(level, lo, hi, 0, data.draw(st.integers(0, hi - lo),
                                       label="pairs"))
    assert_cache_settles(h, factory)
