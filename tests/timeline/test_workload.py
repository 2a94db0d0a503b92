"""Tests for the timeline workload: identity differential, QoE, JSONL."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.orbits.shells import GEN1_SHELLS
from repro.sim.engine import SimulationClock
from repro.sim.simulation import ConstellationSimulation
from repro.timeline import (
    HandoverChurnModel,
    TimelineConfig,
    get_profile,
    read_timeline_jsonl,
    run_timeline,
    write_timeline_jsonl,
)

from tests.conftest import build_toy_dataset
from tests.oracles.assignment import ReferenceGreedyDemandFirst
from tests.oracles.simulation import reference_run

SHELLS = list(GEN1_SHELLS[:1])


@pytest.fixture()
def dataset():
    return build_toy_dataset([10, 100, 1000, 2000, 5998])


class TestConfig:
    def test_rejects_unknown_strategy(self):
        with pytest.raises(SimulationError):
            TimelineConfig(duration_s=60.0, step_s=15.0, strategy="magic")

    def test_rejects_bad_clock(self):
        with pytest.raises(SimulationError):
            TimelineConfig(duration_s=float("nan"), step_s=15.0)
        with pytest.raises(SimulationError):
            TimelineConfig(duration_s=60.0, step_s=120.0)

    def test_identity_eligibility(self):
        flat = TimelineConfig(duration_s=60.0, step_s=15.0)
        assert flat.identity_eligible
        diurnal = TimelineConfig(
            duration_s=60.0, step_s=15.0, profile=get_profile("residential")
        )
        assert not diurnal.identity_eligible
        churny = TimelineConfig(
            duration_s=60.0, step_s=15.0, churn=HandoverChurnModel()
        )
        assert not churny.identity_eligible


class TestFlatIdentity:
    @pytest.mark.parametrize("static_path", ["fast", "reference"])
    def test_flat_profile_reproduces_static_pipeline(self, dataset, static_path):
        """The differential: flat profile + no churn == static run, the
        static run made by :meth:`ConstellationSimulation.run` ("fast")
        or by the reference step (``tests/oracles/simulation.py``)."""
        config = TimelineConfig(duration_s=600.0, step_s=30.0)
        result = run_timeline(dataset, SHELLS, config)
        assert result.flat_identical is True

        static = ConstellationSimulation(
            SHELLS, dataset, oversubscription=config.oversubscription
        )
        clock = SimulationClock(duration_s=600.0, step_s=30.0)
        if static_path == "fast":
            metrics = static.run(clock)
        else:
            metrics = reference_run(static, clock, ReferenceGreedyDemandFirst())
        report = static.report(metrics)
        assert result.report == report  # field-for-field, floats exact

    def test_flat_per_step_demand_is_bitwise_static(self, dataset):
        config = TimelineConfig(duration_s=120.0, step_s=30.0)
        result = run_timeline(dataset, SHELLS, config)
        static = ConstellationSimulation(
            SHELLS, dataset, oversubscription=config.oversubscription
        )
        expected = float(static.demands_mbps.sum())
        assert all(value == expected for value in result.demand_mbps)

    def test_diurnal_run_skips_verification_by_default(self, dataset):
        config = TimelineConfig(
            duration_s=120.0,
            step_s=30.0,
            profile=get_profile("residential"),
        )
        result = run_timeline(dataset, SHELLS, config)
        assert result.flat_identical is None


class TestDiurnalEffects:
    def test_demand_varies_over_a_day(self, dataset):
        config = TimelineConfig(
            duration_s=86400.0,
            step_s=3600.0,
            profile=get_profile("residential"),
        )
        result = run_timeline(dataset, SHELLS, config)
        assert result.demand_mbps.max() > result.demand_mbps.min()

    def test_unserved_hours_follow_the_busy_hour(self, dataset):
        # The largest toy cell's provisioned demand (29990 Mbps at
        # oversubscription 20) exceeds the per-cell beam cap, so under
        # a flat profile it is unserved around the clock; the diurnal
        # trough drops its demand below the cap, so the residential
        # run is unserved only around the busy hours.
        flat = run_timeline(
            dataset,
            SHELLS,
            TimelineConfig(
                duration_s=86400.0, step_s=3600.0, oversubscription=20.0
            ),
        )
        peaked = run_timeline(
            dataset,
            SHELLS,
            TimelineConfig(
                duration_s=86400.0,
                step_s=3600.0,
                oversubscription=20.0,
                profile=get_profile("residential"),
            ),
        )
        flat_hours = flat.unserved_hours_per_day()
        peaked_hours = peaked.unserved_hours_per_day()
        assert float(flat_hours[-1]) == 24.0
        assert 0.0 < float(peaked_hours[-1]) < 24.0
        assert np.all(peaked_hours <= flat_hours)
        # The peaked run's shortfall tracks the local clock: served
        # fraction dips at the evening peak relative to the trough.
        # The toy cells sit at longitude -90 (UTC-6): local 21:00 is
        # 03:00 UTC, local 04:00 is 10:00 UTC.
        served = peaked.served_location_fraction
        hours_utc = np.mod(peaked.times_s / 3600.0, 24.0)
        at_peak = served[np.abs(hours_utc - 3.0) < 0.5]
        at_trough = served[np.abs(hours_utc - 10.0) < 0.5]
        assert at_peak.size and at_trough.size
        assert at_peak.mean() < at_trough.mean()

    def test_hourly_grid_covers_run_hours(self, dataset):
        result = run_timeline(
            dataset,
            SHELLS,
            TimelineConfig(
                duration_s=7200.0,
                step_s=600.0,
                profile=get_profile("residential"),
            ),
        )
        labels, values = result.hourly_served_fraction()
        assert labels.tolist() == list(range(24))
        assert np.isfinite(values[:2]).all()  # hours 0-1 simulated
        assert np.isnan(values[3:]).all()  # the rest untouched


class TestChurnAccounting:
    def test_outage_minutes_accumulate(self, dataset):
        result = run_timeline(
            dataset,
            SHELLS,
            TimelineConfig(
                duration_s=1800.0,
                step_s=15.0,
                churn=HandoverChurnModel(),
            ),
        )
        # The toy cells sit at 37N under one Gen1 shell: serving
        # satellites change within a half hour, so some churn cost
        # must be visible.
        assert int(result.handover_counts.sum()) > 0
        assert float(result.outage_seconds.sum()) > 0.0
        assert np.array_equal(
            result.outage_minutes(), result.outage_seconds / 60.0
        )

    def test_effective_never_exceeds_allocated(self, dataset):
        result = run_timeline(
            dataset,
            SHELLS,
            TimelineConfig(
                duration_s=1800.0, step_s=15.0, churn=HandoverChurnModel()
            ),
        )
        assert np.all(result.effective_mbps <= result.allocated_mbps + 1e-9)


class TestJsonl:
    def test_roundtrip(self, dataset, tmp_path):
        result = run_timeline(
            dataset,
            SHELLS,
            TimelineConfig(
                duration_s=300.0,
                step_s=30.0,
                profile=get_profile("residential"),
                churn=HandoverChurnModel(),
            ),
        )
        path = write_timeline_jsonl(result, tmp_path / "timeline.jsonl")
        back = read_timeline_jsonl(path)
        assert back["run"]["steps"] == result.steps
        assert back["run"]["profile"] == "residential"
        assert np.array_equal(back["steps"]["time_s"], result.times_s)
        assert np.array_equal(
            back["steps"]["served_location_fraction"],
            result.served_location_fraction,
        )
        assert np.array_equal(
            back["cells"]["unserved_hours_per_day"],
            result.unserved_hours_per_day(),
        )
        assert np.array_equal(
            back["cells"]["reconnection_counts"],
            result.reconnection_counts,
        )

    def test_missing_events_rejected(self, tmp_path):
        from repro import obs

        path = tmp_path / "empty.jsonl"
        writer = obs.TelemetryWriter(path)
        writer.emit({"type": "log"})
        writer.close()
        with pytest.raises(SimulationError):
            read_timeline_jsonl(path)
