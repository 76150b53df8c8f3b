"""Tests of the loadtest gate behind ``repro-bench serve loadtest``
(repro.serve.loadgen): spec validation, the p99 speedup and every gate
verdict on hand-built summaries, plus one real run at tiny scale."""

import pytest

from repro.errors import ConfigurationError
from repro.obs.artifact import validate_artifact
from repro.serve.loadgen import (LoadReport, LoadSpec, modeled_sketch_costs,
                                 run_loadtest)


class TestLoadSpecValidate:
    @pytest.mark.parametrize("fields, match", [
        ({"clients": 0}, "clients must be >= 1"),
        ({"concurrency": 0}, "concurrency must be >= 1"),
        ({"rank_min": 0}, r"rank_min <= rank_max"),
        ({"rank_min": 9, "rank_max": 8}, r"rank_min <= rank_max"),
        ({"m": 11, "rank_max": 8, "oversampling": 4}, "l = 12 exceeds m = 11"),
        ({"repeats": 0}, "repeats must be >= 1"),
    ])
    def test_rejects(self, fields, match):
        with pytest.raises(ConfigurationError, match=match):
            LoadSpec(**fields).validate()

    def test_accepts_the_defaults_and_l_equal_to_m(self):
        LoadSpec().validate()
        LoadSpec(m=12, rank_max=8, oversampling=4).validate()


def _summary(completed=4, p99_s=0.1, max_occupancy=4, errors=0):
    return {"completed": completed, "latency_p99_s": p99_s,
            "max_occupancy": max_occupancy, "errors": errors}


def _report(batched=None, solo=None, batched_reps=None, solo_reps=None):
    batched = batched if batched is not None else _summary()
    solo = solo if solo is not None else _summary(p99_s=0.2,
                                                  max_occupancy=1)
    return LoadReport(
        spec=LoadSpec(clients=4, repeats=2), batched=batched, solo=solo,
        batched_reps=batched_reps if batched_reps is not None
        else [batched, batched],
        solo_reps=solo_reps if solo_reps is not None else [solo, solo])


class TestP99Speedup:
    def test_solo_over_batched(self):
        assert _report().p99_speedup == pytest.approx(2.0)

    def test_batched_p99_of_zero_reads_zero(self):
        assert _report(batched=_summary(p99_s=0.0)).p99_speedup == 0.0

    def test_missing_p99_reads_zero(self):
        assert _report(batched={"completed": 4}).p99_speedup == 0.0


class TestGate:
    def test_passes(self):
        assert _report().gate(min_occupancy=4) == []

    def test_incomplete_rep(self):
        short = _summary(completed=3, p99_s=0.2, errors=1)
        report = _report(solo_reps=[_summary(p99_s=0.2), short])
        assert report.gate(min_occupancy=4) == [
            "solo rep 1: completed 3 of 4 requests (errors: 1)"]

    def test_without_reps_the_representatives_are_checked(self):
        report = _report(batched=_summary(completed=2), batched_reps=[])
        assert report.gate(min_occupancy=4) == [
            "batched rep 0: completed 2 of 4 requests (errors: 0)"]

    def test_occupancy_below_the_minimum(self):
        assert _report().gate(min_occupancy=8) == [
            "batched: max batch occupancy 4 < required 8"]

    def test_batched_p99_above_solo(self):
        slow = _summary(p99_s=0.3)
        report = _report(batched=slow, batched_reps=[slow, slow])
        assert report.gate(min_occupancy=4) == [
            "batched p99 300.0 ms exceeds solo p99 200.0 ms"]

    def test_equal_p99_passes(self):
        even = _summary(p99_s=0.2)
        report = _report(batched=even, batched_reps=[even, even])
        assert report.gate(min_occupancy=4) == []


class TestTinyLoadtest:
    def test_both_arms_complete_every_client(self):
        spec = LoadSpec(clients=8, concurrency=4, m=600, n=120, repeats=1,
                        warmup_waves=0)
        report = run_loadtest(spec)
        for arm in (report.batched, report.solo):
            assert arm["completed"] == 8 and arm["errors"] == 0
        assert len(report.batched_reps) == len(report.solo_reps) == 1
        assert report.solo["max_occupancy"] == 1
        # The wall-clock p99 comparison is machine-dependent, so only
        # the completion and occupancy verdicts are asserted here.
        assert not [f for f in report.gate(min_occupancy=1)
                    if "p99" not in f]
        assert report.modeled == modeled_sketch_costs(spec)
        validate_artifact(report.artifact())
        assert "p99 speedup" in report.markdown()
