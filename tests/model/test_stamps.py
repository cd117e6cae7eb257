"""Property tests for :class:`repro.model.stamps.StampSet`.

A stamp set holds scalar stamp tuples plus vector span entries
``((pre, post), column)``; its length must equal the number of distinct
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


@st.composite
def _span(draw, k):
    pre = tuple(draw(st.lists(_COORD, min_size=k, max_size=k)))
    post = tuple(draw(st.lists(_COORD, max_size=2)))
    if draw(st.booleans()):  # pos style: loop positions of the span
        column = np.arange(draw(st.integers(0, 8)), dtype=np.int64)
    else:  # coord style: the matched coordinates (any int64 column)
        column = np.asarray(draw(st.lists(_INNER, max_size=8)),
                            dtype=np.int64)
    sel = draw(st.sampled_from(["all", "first", "rest"]))
    column = {"all": column, "first": column[:1], "rest": column[1:]}[sel]
    return (pre, post), column


@st.composite
def _scalar(draw, k):
    length = draw(st.integers(0, k + 3))
    return tuple(draw(st.one_of(_COORD, _INNER)) for _ in range(length))


@st.composite
def _op_stamps(draw, k):
    """One op's stamps, as a kernel hands them to ``add_compute``."""
    scalars = set(draw(st.lists(_scalar(k), max_size=12)))
    spans = draw(st.lists(_span(k), max_size=6))
    return scalars, spans


def _expand(scalars, spans):
    out = set(scalars)
    for (pre, post), column in spans:
        out.update(pre + (int(c),) + post for c in column)
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
    leaves under one prefix count each time step once."""
    col = np.arange(5, dtype=np.int64)
    stamps = StampSet({(7, 0), (7, 4), (7, 5), (8, 0)},
                      [(((7,), ()), col), (((7,), ()), col[1:]),
                       (((7,), ()), col[:1])])
    assert len(stamps) == 7  # (7, 0..5) and (8, 0)


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
