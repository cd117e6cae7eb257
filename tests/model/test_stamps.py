"""Property tests for :class:`repro.model.stamps.StampSet`.

A stamp set holds scalar stamp tuples plus vector span entries
``((pre, post), inner)``, ``inner`` a ``range`` of loop positions or a
column of coordinates; its length must equal the number of distinct
tuples once every span is expanded, whatever mix of scalars and spans
produced them, and :meth:`~repro.model.stamps.StampSet.tuples` must
round-trip that expansion.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from repro.model.components import ComputeModel
from repro.model.stamps import StampSet
from repro.model.traces import KernelCounters
from repro.spec.architecture import Component

#: Small coordinate domains so fixed parts and inner values collide often.
_COORD = st.one_of(st.integers(0, 3), st.tuples(st.integers(0, 1),
                                               st.integers(0, 1)))
_INNER = st.integers(-2, 12)
#: Where an op's varying-slot values sit: near zero, near +-2**62, and
#: near both ends of ``int64`` (a range's ``stop`` still fits).
_BASE = st.sampled_from([0, 2**62, -2**62, 2**63 - 24, -2**63 + 2])


@st.composite
def _fixed(draw, k):
    pre = tuple(draw(st.lists(_COORD, min_size=k, max_size=k)))
    post = tuple(draw(st.lists(_COORD, max_size=2)))
    return pre, post


@st.composite
def _span(draw, fixed, base):
    """A span entry under one of the op's fixed parts, its inner values
    offset by the op's base."""
    if draw(st.booleans()):  # pos style: a range of loop positions
        lo = base + draw(_INNER)
        inner = range(lo, lo + draw(st.integers(0, 8)))
    else:  # coord style: the matched coordinates (any int64 column)
        inner = np.asarray([base + v for v in
                            draw(st.lists(_INNER, max_size=8))],
                           dtype=np.int64)
    sel = draw(st.sampled_from(["all", "first", "rest"]))
    inner = {"all": inner, "first": inner[:1], "rest": inner[1:]}[sel]
    return draw(st.sampled_from(fixed)), inner


@st.composite
def _scalar(draw, k, fixed, base):
    if draw(st.booleans()):  # shares a fixed part with the spans
        pre, post = draw(st.sampled_from(fixed))
        return pre + (base + draw(_INNER),) + post
    length = draw(st.integers(0, k + 3))
    return tuple(draw(st.one_of(_COORD, _INNER)) for _ in range(length))


@st.composite
def _op_stamps(draw, k):
    """One op's stamps, as a kernel hands them to ``add_compute``: spans
    under a few shared fixed parts (so ranges overlap, repeat and meet
    columns and scalars under one fixed part) plus scalar tuples."""
    fixed = draw(st.lists(_fixed(k), min_size=1, max_size=3))
    base = draw(_BASE)
    scalars = set(draw(st.lists(_scalar(k, fixed, base), max_size=12)))
    spans = draw(st.lists(_span(fixed, base), max_size=6))
    return scalars, spans


def _expand(scalars, spans):
    out = set(scalars)
    for (pre, post), inner in spans:
        out.update(pre + (int(c),) + post for c in inner)
    return out


@given(k=st.integers(0, 3), data=st.data())
def test_count_equals_distinct_expanded_tuples(k, data):
    ops = data.draw(st.lists(_op_stamps(k), min_size=1, max_size=3))
    kc = KernelCounters()
    for j, (scalars, spans) in enumerate(ops):
        kc.add_compute(f"op{j}", 1, set(scalars), list(spans))
    # Several ops routed to one model: their stamps form a union.
    model = ComputeModel(Component("ALU", "Compute", {"type": "mul"}))
    expected = set()
    for j, (scalars, spans) in enumerate(ops):
        n, stamps = kc.computes[f"op{j}"]
        want = _expand(scalars, spans)
        assert len(stamps) == len(want)
        assert stamps.tuples() == want
        model.compute_bulk(n, stamps)
        expected |= want
    assert model.serial_steps() == len(expected)
    assert model.steps.tuples() == expected
    # Each op's own set is untouched by the union.
    for j, (scalars, spans) in enumerate(ops):
        assert kc.computes[f"op{j}"][1].tuples() == _expand(scalars, spans)


@given(k=st.integers(0, 2), data=st.data())
def test_scalar_events_after_spans_update_the_count(k, data):
    """Per-event adds (the interpreter's path) after span entries: the
    memoized count follows every growth of either store."""
    scalars, spans = data.draw(_op_stamps(k))
    stamps = StampSet(set(), list(spans))
    expected = _expand((), spans)
    assert len(stamps) == len(expected)
    for stamp in scalars:
        stamps.add(stamp)
        expected.add(stamp)
        assert len(stamps) == len(expected)


def test_shared_prefix_mixes_scalar_and_span_stamps():
    """A spatial rank absent from the stamp: several spans and scalar
    leaves under one prefix count each time step once, whether the spans
    hold positions (a range) or coordinates (a column)."""
    for inner in (range(5), np.arange(5, dtype=np.int64)):
        stamps = StampSet({(7, 0), (7, 4), (7, 5), (8, 0)},
                          [(((7,), ()), inner), (((7,), ()), inner[1:]),
                           (((7,), ()), inner[:1])])
        assert len(stamps) == 7  # (7, 0..5) and (8, 0)


def test_ranges_meet_columns_and_scalars_under_one_fixed_part():
    fx = ((3,), (1,))
    stamps = StampSet({(3, 9, 1), (3, 20, 1), (3, 2, 0)},
                      [(fx, range(0, 4)), (fx, range(2, 6)),  # overlap
                       (fx, range(6, 8)),  # adjacent: [0, 8) so far
                       (fx, range(0, 4)),  # duplicate
                       (fx, np.array([5, 8, 8, 12], dtype=np.int64))])
    # 0..7, 8 and 12 from the spans; 9 and 20 shared scalars; (3, 2, 0)
    # is under another fixed part.
    assert len(stamps) == len(stamps.tuples()) == 13


def test_intervals_spanning_int64_count_exactly():
    """Widths past ``2**63`` and endpoints at the ``int64`` limits: the
    count is an exact Python int (too large for ``len()``)."""
    lo, hi = -2**63, 2**63 - 1
    stamps = StampSet({(1, hi)}, [(((0,), ()), range(lo, hi)),
                                  (((1,), ()), range(lo, 0)),
                                  (((1,), ()), range(-5, hi)),
                                  (((1,), ()), np.array([lo, hi]))])
    assert stamps._count() == 2 * 2**64 - 1


def test_ranges_must_have_unit_step():
    stamps = StampSet(set(), [(((0,), ()), range(0, 6, 2))])
    with pytest.raises(ValueError, match="step 1"):
        len(stamps)


def test_count_is_memoized(monkeypatch):
    calls = []
    real = StampSet._count
    monkeypatch.setattr(StampSet, "_count",
                        lambda self: calls.append(1) or real(self))
    stamps = StampSet({(0, 1)}, [(((0,), ()), np.arange(3))])
    assert len(stamps) == len(stamps) == 3
    assert len(calls) == 1
    stamps.add((0, 9))
    assert len(stamps) == 4
    assert len(calls) == 2


def test_spans_varying_different_slots_are_rejected():
    stamps = StampSet(set(), [(((0,), ()), np.arange(2)),
                              (((), (0,)), np.arange(2))])
    with pytest.raises(ValueError, match="different slots"):
        len(stamps)
