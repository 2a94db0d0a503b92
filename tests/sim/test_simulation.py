"""Integration tests for the constellation simulation loop."""

import math

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.orbits.shells import GEN1_SHELLS
from repro.sim.assignment import ProportionalFair
from repro.sim.engine import SimulationClock
from repro.sim.simulation import ConstellationSimulation

from tests.conftest import build_toy_dataset
from tests.oracles.simulation import reference_visibility


@pytest.fixture(scope="module")
def regional_sim(regional_dataset):
    return ConstellationSimulation(
        GEN1_SHELLS[:1], regional_dataset, oversubscription=20.0
    )


class TestConstruction:
    def test_rejects_empty_shells(self, regional_dataset):
        with pytest.raises(SimulationError):
            ConstellationSimulation([], regional_dataset)

    @pytest.mark.parametrize(
        "oversubscription", [0.0, -1.0, math.nan, math.inf]
    )
    def test_rejects_nonpositive_oversubscription(
        self, regional_dataset, oversubscription
    ):
        with pytest.raises(SimulationError, match="finite and positive"):
            ConstellationSimulation(
                GEN1_SHELLS[:1],
                regional_dataset,
                oversubscription=oversubscription,
            )

    def test_demands_capped_at_cell_capacity(self, regional_dataset):
        sim = ConstellationSimulation(
            GEN1_SHELLS[:1], regional_dataset, oversubscription=1.0
        )
        assert sim.demands_mbps.max() <= sim.beam_plan.cell_capacity_mbps

    def test_satellite_count(self, regional_sim):
        assert regional_sim.satellite_count == 1584


class TestRun:
    def test_short_run_covers_region(self, regional_sim):
        metrics = regional_sim.run(SimulationClock(duration_s=300.0, step_s=60.0))
        assert metrics.steps == 5
        report = regional_sim.report(metrics)
        assert report.mean_coverage_fraction > 0.9
        assert report.demand_satisfaction > 0.9
        assert report.peak_beams_used <= 24

    def test_latitude_samples_within_inclination(self, regional_sim):
        metrics = regional_sim.run(SimulationClock(duration_s=120.0, step_s=60.0))
        lats = metrics.all_latitude_samples()
        assert np.all(np.abs(lats) <= 53.0 + 1e-6)

    def test_proportional_fair_strategy_runs(self, regional_dataset):
        sim = ConstellationSimulation(
            GEN1_SHELLS[:1],
            regional_dataset,
            oversubscription=20.0,
            strategy=ProportionalFair(),
        )
        metrics = sim.run(SimulationClock(duration_s=120.0, step_s=60.0))
        assert sim.report(metrics).mean_coverage_fraction > 0.9

    def test_sparse_constellation_leaves_gaps(self):
        """A 40-satellite shell cannot continuously cover a region."""
        from repro.orbits.shells import Shell

        tiny_shell = Shell("tiny", 40, 550.0, 53.0, 8, 5)
        dataset = build_toy_dataset(
            [100] * 4, latitudes=[36.0, 37.0, 38.0, 39.0]
        )
        sim = ConstellationSimulation([tiny_shell], dataset)
        metrics = sim.run(SimulationClock(duration_s=3000.0, step_s=100.0))
        assert sim.report(metrics).mean_coverage_fraction < 0.9


class TestStepEngine:
    """The windowed visibility mode and its configuration."""

    def test_windowed_run_reports_identical(self, regional_dataset):
        def run(window):
            sim = ConstellationSimulation(
                GEN1_SHELLS[:1],
                regional_dataset,
                oversubscription=20.0,
                visibility_window=window,
            )
            metrics = sim.run(SimulationClock(duration_s=300.0, step_s=60.0))
            return sim.report(metrics)

        assert run(3) == run(1)

    def test_bad_window_rejected_at_index_build(self, regional_dataset):
        sim = ConstellationSimulation(
            GEN1_SHELLS[:1], regional_dataset, visibility_window=0
        )
        with pytest.raises(SimulationError):
            sim.visibility_index


class TestGeometry:
    def test_cells_to_ecef_radius(self, regional_dataset):
        ecef = ConstellationSimulation._cells_to_ecef(regional_dataset)
        radii = np.linalg.norm(ecef, axis=1)
        assert np.allclose(radii, 6371.0088, atol=0.01)

    def test_visibility_counts_reasonable(self, regional_sim):
        csr, lats = regional_sim.visibility_index.query(0.0)
        counts = csr.counts()
        reference, _ = reference_visibility(regional_sim, 0.0)
        assert counts.tolist() == [v.size for v in reference]
        # Shell 1 alone gives on the order of 5-20 satellites in view.
        assert counts.mean() > 2
        assert counts.max() < 60
        assert lats.shape == (1584,)


class TestBentPipeMode:
    def test_gateway_mode_restricts_eligibility(self, regional_dataset):
        """With only a far-away gateway, bent-pipe service collapses."""
        from repro.orbits.gateways import GatewaySite
        from repro.geo.coords import LatLon

        far_gateway = [GatewaySite("far", LatLon(47.5, -122.0))]
        sim = ConstellationSimulation(
            GEN1_SHELLS[:1],
            regional_dataset,
            gateways=far_gateway,
        )
        metrics = sim.run(SimulationClock(duration_s=300.0, step_s=60.0))
        report = sim.report(metrics)
        free_sim = ConstellationSimulation(GEN1_SHELLS[:1], regional_dataset)
        free_metrics = free_sim.run(SimulationClock(duration_s=300.0, step_s=60.0))
        assert report.mean_coverage_fraction <= (
            free_sim.report(free_metrics).mean_coverage_fraction
        )

    def test_nearby_gateway_preserves_coverage(self, regional_dataset):
        from repro.orbits.gateways import GatewaySite
        from repro.geo.coords import LatLon

        near_gateway = [GatewaySite("near", LatLon(37.5, -82.0))]
        sim = ConstellationSimulation(
            GEN1_SHELLS[:1],
            regional_dataset,
            gateways=near_gateway,
        )
        metrics = sim.run(SimulationClock(duration_s=300.0, step_s=60.0))
        assert sim.report(metrics).mean_coverage_fraction > 0.9
