"""Tests for the per-phase timeline (repro.gpu.trace)."""

import pytest

from repro.errors import ConfigurationError
from repro.gpu.device import SimulatedGPU
from repro.gpu.trace import PHASES, PhaseCounter, TimeLine
from repro.obs.spans import SpanRecorder


class TestPhaseCounter:
    def test_add_accumulates(self):
        p = PhaseCounter()
        p.add(0.5, flops=4.0, bytes_moved=16.0)
        p.add(0.25, flops=0.0, bytes_moved=0.0)
        assert p.seconds == pytest.approx(0.75)
        assert p.calls == 2
        assert (p.flops, p.bytes_moved) == (4.0, 16.0)

    def test_to_dict(self):
        p = PhaseCounter()
        p.add(1.0, flops=2.0, bytes_moved=3.0)
        assert p.to_dict() == {"seconds": 1.0, "calls": 1, "flops": 2.0,
                               "bytes_moved": 3.0}


class TestTimeLine:
    def test_empty_total_zero(self):
        assert TimeLine().total == 0.0

    def test_charge_and_total(self):
        t = TimeLine()
        t.charge("sampling", 0.1)
        t.charge("qrcp", 0.2)
        assert t.total == pytest.approx(0.3)
        assert t.seconds("sampling") == pytest.approx(0.1)

    def test_calls_counted(self):
        t = TimeLine()
        t.charge("prng", 0.01)
        t.charge("prng", 0.01)
        assert t.calls("prng") == 2

    def test_counts_flops_and_bytes(self):
        t = TimeLine()
        t.charge("sampling", 2.0, flops=4e9, bytes_moved=1e6)
        t.charge("sampling", 2.0, flops=4e9, bytes_moved=1e6)
        assert t.counters["sampling"].to_dict() == {
            "seconds": 4.0, "calls": 2, "flops": 8e9, "bytes_moved": 2e6}

    def test_counters_keep_first_charge_order(self):
        t = TimeLine()
        t.charge("qrcp", 0.2)
        t.charge("prng", 0.1)
        t.charge("qrcp", 0.2)
        assert list(t.counters) == ["qrcp", "prng"]
        assert list(t.stats()) == ["prng", "qrcp"]   # legend order
        assert t.calls("sampling") == 0 and "sampling" not in t.counters

    def test_events_logged_in_order(self):
        # Kernel by kernel, a run is read from an attached recorder.
        gpu = SimulatedGPU()
        rec = SpanRecorder()
        gpu.attach_recorder(rec)
        gpu.charge("prng", 0.01, "a")
        gpu.charge("qr", 0.02, "b")
        assert [s.name for s in rec.kernel_spans()] == ["a", "b"]

    def test_unknown_phase_raises(self):
        with pytest.raises(ConfigurationError):
            TimeLine().charge("nope", 1.0)
        with pytest.raises(ConfigurationError):
            TimeLine().seconds("nope")

    def test_negative_time_raises(self):
        with pytest.raises(ConfigurationError):
            TimeLine().charge("qr", -1.0)

    def test_breakdown_covers_all_phases(self):
        bd = TimeLine().breakdown()
        assert tuple(bd) == PHASES

    def test_fractions_sum_to_one(self):
        t = TimeLine()
        t.charge("sampling", 3.0)
        t.charge("comms", 1.0)
        fr = t.fractions()
        assert sum(fr.values()) == pytest.approx(1.0)
        assert fr["sampling"] == pytest.approx(0.75)

    def test_fractions_zero_when_empty(self):
        fr = TimeLine().fractions()
        assert all(v == 0.0 for v in fr.values())

    def test_repr_mentions_total(self):
        t = TimeLine()
        t.charge("qr", 1.0)
        assert "total" in repr(t)

