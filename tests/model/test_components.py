"""Unit tests for the per-component action-count models."""

import pytest

from repro.model import (
    BuffetModel,
    CacheModel,
    ComputeModel,
    DramModel,
    IntersectModel,
    MergerModel,
    SequencerModel,
)
from repro.spec import Component
from repro.spec.binding import DataBinding


def dram():
    return DramModel(Component("HBM", "DRAM", {"bandwidth": 128}))


def buffer_component(**attrs):
    return Component("Buf", "Buffer", attrs)


class TestDram:
    def test_traffic_accumulates(self):
        d = dram()
        d.read("A", 96)
        d.read("A", 96)
        d.write("Z", 64)
        assert d.traffic.read_bits["A"] == 192
        assert d.traffic.total_bits == 256

    def test_time_is_bandwidth_limited(self):
        d = dram()
        d.read("A", 8e9 * 128)  # exactly one second of traffic
        assert d.time_seconds() == pytest.approx(1.0)


class TestBuffet:
    def binding(self, style="lazy", evict_on="M"):
        return DataBinding(tensor="B", rank="K", style=style,
                           evict_on=evict_on)

    def test_first_access_fills(self):
        d = dram()
        b = BuffetModel(buffer_component(), self.binding(), d, 96, 96)
        b.access_read(("K", (0, 1)), [("M", 0)])
        b.access_read(("K", (0, 1)), [("M", 0)])
        assert b.fills == 1
        assert d.traffic.read_bits["B"] == 96

    def test_window_change_drains_and_refills(self):
        d = dram()
        b = BuffetModel(buffer_component(), self.binding(), d, 96, 96)
        b.access_read(("K", (0, 1)), [("M", 0)])
        b.access_read(("K", (0, 1)), [("M", 1)])  # window changed
        assert b.fills == 2

    def test_dirty_drain_writes_back(self):
        d = dram()
        b = BuffetModel(buffer_component(), self.binding(), d, 64, 64)
        b.access_write(("K", (0,)), [("M", 0)])
        b.finish()
        assert d.traffic.write_bits["B"] == 64

    def test_partial_output_read_modify_write(self):
        d = dram()
        b = BuffetModel(buffer_component(), self.binding(evict_on="K2"), d,
                        64, 64)
        b.access_write(("M", (0,)), [("K2", 0)])
        b.access_write(("M", (0,)), [("K2", 1)])  # same element, new window
        b.finish()
        assert b.partial_output_fills == 1
        assert d.traffic.read_bits["B"] == 64  # RMW read
        assert d.traffic.write_bits["B"] == 128  # two drains

    def test_no_evict_on_keeps_window(self):
        d = dram()
        b = BuffetModel(buffer_component(), self.binding(evict_on=None), d,
                        64, 64)
        b.access_read(("K", (0,)), [("M", 0)])
        b.access_read(("K", (0,)), [("M", 5)])
        assert b.fills == 1

    def test_eager_fill_bits(self):
        d = dram()
        b = BuffetModel(buffer_component(), self.binding(style="eager"), d,
                        32, 480)
        b.access_read(("K", (7,)), [("M", 0)])
        assert d.traffic.read_bits["B"] == 480


class TestCache:
    def test_hit_after_fill(self):
        d = dram()
        c = CacheModel(buffer_component(width=64, depth=100), None or
                       DataBinding(tensor="B"), d, 96, 96)
        c.access_read(("K", (0,)), None)
        c.access_read(("K", (0,)), None)
        assert c.hits == 1
        assert c.misses == 1

    def test_capacity_evicts_lru(self):
        d = dram()
        # Capacity for exactly two 96-bit fills.
        comp = buffer_component(width=96, depth=2)
        c = CacheModel(comp, DataBinding(tensor="B"), d, 96, 96)
        c.access_read(("K", (0,)), None)
        c.access_read(("K", (1,)), None)
        c.access_read(("K", (2,)), None)  # evicts (0,)
        c.access_read(("K", (0,)), None)  # miss again
        assert c.misses == 4

    def test_dirty_eviction_writes_back(self):
        d = dram()
        comp = buffer_component(width=64, depth=1)
        c = CacheModel(comp, DataBinding(tensor="Z"), d, 64, 64)
        c.access_write(("M", (0,)), None)
        c.access_write(("M", (1,)), None)  # evicts dirty (0,)
        c.finish()
        assert c.writebacks == 2
        assert d.traffic.write_bits["Z"] == 128

    def test_write_miss_does_not_read(self):
        d = dram()
        c = CacheModel(buffer_component(width=64, depth=8),
                       DataBinding(tensor="Z"), d, 64, 64)
        c.access_write(("M", (0,)), None)
        assert d.traffic.read_bits["Z"] == 0


class TestIntersect:
    def test_two_finger_costs_all_visits(self):
        m = IntersectModel(Component("I", "Intersection",
                                     {"type": "two-finger"}))
        m.isect(visited=100, matched=10)
        assert m.cycles() == 100

    def test_skip_ahead_cheaper_than_two_finger(self):
        two = IntersectModel(Component("I", "Intersection",
                                       {"type": "two-finger"}))
        skip = IntersectModel(Component("I", "Intersection",
                                        {"type": "skip-ahead"}))
        two.isect(1000, 10)
        skip.isect(1000, 10)
        assert skip.cycles() < two.cycles()

    def test_leader_follower(self):
        m = IntersectModel(Component("I", "Intersection",
                                     {"type": "leader-follower"}))
        m.isect(visited=100, matched=10)
        assert m.cycles() == 50

    def test_time_scales_with_units(self):
        one = IntersectModel(Component("I", "Intersection", {}, count=1))
        many = IntersectModel(Component("I", "Intersection", {}, count=16))
        one.isect(1600, 100)
        many.isect(1600, 100)
        assert many.time_seconds(1e9) == pytest.approx(
            one.time_seconds(1e9) / 16
        )


class TestMerger:
    def test_single_pass_for_high_radix(self):
        m = MergerModel(Component("M", "Merger",
                                  {"inputs": 64, "comparator_radix": 64}))
        m.swizzle(1000)
        assert m.cycles() == 1000

    def test_low_radix_needs_more_passes(self):
        m = MergerModel(Component("M", "Merger",
                                  {"inputs": 64, "comparator_radix": 2}))
        m.swizzle(1000)
        assert m.cycles() == 6000  # log2(64) = 6 passes


class TestCompute:
    def test_serial_steps_counts_distinct_time_stamps(self):
        c = ComputeModel(Component("ALU", "Compute", {"type": "mul"},
                                   count=4))
        c.compute(1, (0, 0))
        c.compute(1, (0, 0))  # same time (another lane)
        c.compute(1, (0, 1))
        assert c.serial_steps() == 2

    def test_utilization(self):
        c = ComputeModel(Component("ALU", "Compute", {"type": "mul"},
                                   count=2))
        c.compute(1, (0,))
        c.compute(1, (0,))
        c.compute(1, (1,))
        assert c.utilization() == pytest.approx(3 / 4)

    def test_time(self):
        c = ComputeModel(Component("ALU", "Compute", {"type": "mul"}))
        c.compute(1, (0,))
        c.compute(1, (1,))
        assert c.time_seconds(1e9) == pytest.approx(2e-9)


class TestSequencer:
    def test_issues(self):
        s = SequencerModel(Component("Seq", "Sequencer", {"num_ranks": 3},
                                     count=2))
        s.compute(10)
        assert s.time_seconds(1e9) == pytest.approx(5e-9)
