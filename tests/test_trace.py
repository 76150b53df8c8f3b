"""Tests for the phase-tagged timeline (repro.gpu.trace)."""

import pytest

from repro.errors import ConfigurationError
from repro.gpu.device import SimulatedGPU
from repro.gpu.trace import PHASES, Phase, TimeLine
from repro.obs.spans import SpanRecorder


class TestPhase:
    def test_add_accumulates(self):
        p = Phase()
        p.add(0.5)
        p.add(0.25)
        assert p.seconds == pytest.approx(0.75)
        assert p.calls == 2


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

