"""Tests for failure injection (outages, rain fade)."""

import math

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.geo.coords import LatLon
from repro.orbits.shells import GEN1_SHELLS
from repro.sim.engine import SimulationClock
from repro.sim.impairments import (
    RainFade,
    SatelliteOutages,
    apply_impairments_csr,
)
from repro.sim.simulation import ConstellationSimulation
from repro.sim.visibility_index import CSRVisibility

from tests.conftest import build_toy_dataset


class TestSatelliteOutages:
    def test_mask_size_matches_fraction(self):
        outages = SatelliteOutages(outage_fraction=0.25, seed=1)
        keep = outages.filter_satellites(1000, np.random.default_rng(0))
        assert keep.sum() == 750

    def test_zero_fraction_is_noop(self):
        outages = SatelliteOutages(outage_fraction=0.0)
        assert outages.filter_satellites(100, np.random.default_rng(0)) is None

    def test_dead_set_is_stable(self):
        outages = SatelliteOutages(outage_fraction=0.1, seed=5)
        first = outages.filter_satellites(500, np.random.default_rng(0))
        second = outages.filter_satellites(500, np.random.default_rng(99))
        assert np.array_equal(first, second)

    def test_rejects_bad_fraction(self):
        with pytest.raises(SimulationError):
            SatelliteOutages(outage_fraction=1.0)
        with pytest.raises(SimulationError):
            SatelliteOutages(outage_fraction=-0.1)


class TestRainFade:
    def test_inflates_demand_inside_radius(self):
        fade = RainFade(LatLon(37.0, -90.0), radius_km=100.0, efficiency_factor=0.5)
        demands = np.array([100.0, 100.0])
        scaled = fade.scale_demands(
            demands, np.array([37.0, 45.0]), np.array([-90.0, -70.0])
        )
        assert scaled[0] == pytest.approx(200.0)
        assert scaled[1] == pytest.approx(100.0)

    def test_factor_one_is_noop(self):
        fade = RainFade(LatLon(0.0, 0.0), radius_km=100.0, efficiency_factor=1.0)
        demands = np.array([50.0])
        assert fade.scale_demands(demands, np.zeros(1), np.zeros(1))[0] == 50.0

    def test_validation(self):
        with pytest.raises(SimulationError):
            RainFade(LatLon(0.0, 0.0), radius_km=0.0, efficiency_factor=0.5)
        with pytest.raises(SimulationError):
            RainFade(LatLon(0.0, 0.0), radius_km=10.0, efficiency_factor=0.0)

    @pytest.mark.parametrize("radius_km", [math.nan, math.inf])
    def test_non_finite_radius_refused(self, radius_km):
        with pytest.raises(SimulationError, match="radius"):
            RainFade(LatLon(0.0, 0.0), radius_km=radius_km, efficiency_factor=0.5)

    @pytest.mark.parametrize(
        "center",
        [
            LatLon(math.nan, -90.0),
            LatLon(37.0, math.nan),
            LatLon(math.inf, -90.0),
            LatLon(37.0, -math.inf),
            LatLon(90.5, -90.0),
            LatLon(-91.0, -90.0),
            LatLon(37.0, 180.5),
            LatLon(37.0, 270.0),
        ],
        ids=lambda center: f"{center[0]},{center[1]}",
    )
    def test_centre_off_the_globe_refused(self, center):
        with pytest.raises(SimulationError, match="centre"):
            RainFade(center, radius_km=100.0, efficiency_factor=0.5)

    @pytest.mark.parametrize(
        "center",
        [LatLon(90.0, 180.0), LatLon(-90.0, -180.0)],
        ids=lambda center: f"{center[0]},{center[1]}",
    )
    def test_centre_on_the_range_edges_accepted(self, center):
        RainFade(center, radius_km=100.0, efficiency_factor=0.5)


class TestComposition:
    def test_apply_filters_and_scales(self):
        impairments = [
            SatelliteOutages(outage_fraction=0.5, seed=2),
            RainFade(LatLon(0.0, 0.0), radius_km=200.0, efficiency_factor=0.5),
        ]
        visibility = CSRVisibility.from_lists([np.arange(10)], n_satellites=10)
        demands = np.array([100.0])
        filtered, scaled = apply_impairments_csr(
            impairments,
            visibility,
            demands,
            np.zeros(1),
            np.zeros(1),
            np.random.default_rng(0),
        )
        keep = impairments[0].filter_satellites(10, np.random.default_rng(0))
        np.testing.assert_array_equal(filtered.cell(0), np.flatnonzero(keep))
        assert filtered.nnz == 5 and filtered.n_satellites == 10
        assert scaled[0] == pytest.approx(200.0)
        assert demands[0] == 100.0  # the input vector is not scaled in place


class TestSimulationWithImpairments:
    @pytest.fixture(scope="class")
    def dataset(self):
        return build_toy_dataset(
            [200, 400, 800], latitudes=[36.5, 37.0, 37.5]
        )

    def test_outages_degrade_coverage_gracefully(self, dataset):
        clock = SimulationClock(duration_s=600.0, step_s=60.0)
        healthy = ConstellationSimulation(GEN1_SHELLS[:1], dataset)
        degraded = ConstellationSimulation(
            GEN1_SHELLS[:1],
            dataset,
            impairments=[SatelliteOutages(outage_fraction=0.9, seed=3)],
        )
        healthy_report = healthy.report(healthy.run(clock))
        degraded_report = degraded.report(degraded.run(clock))
        assert degraded_report.mean_coverage_fraction <= (
            healthy_report.mean_coverage_fraction
        )
        assert degraded_report.mean_satellites_in_view < (
            healthy_report.mean_satellites_in_view
        )

    def test_rain_fade_consumes_more_beams(self, dataset):
        clock = SimulationClock(duration_s=120.0, step_s=60.0)
        fade = RainFade(
            LatLon(37.0, -89.8), radius_km=300.0, efficiency_factor=0.25
        )
        clear = ConstellationSimulation(GEN1_SHELLS[:1], dataset)
        rainy = ConstellationSimulation(
            GEN1_SHELLS[:1], dataset, impairments=[fade]
        )
        clear_metrics = clear.run(clock)
        rainy_metrics = rainy.run(clock)
        # Same coverage, but the faded cells demand (and get) more capacity.
        assert rainy_metrics.mean_allocated_mbps().sum() >= (
            clear_metrics.mean_allocated_mbps().sum()
        )
