"""Tests for handover tracking and the sticky assignment strategy."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.orbits.shells import GEN1_SHELLS
from repro.sim.assignment import GreedyDemandFirst, StickyGreedy
from repro.sim.engine import SimulationClock
from repro.sim.metrics import CoverageMetrics
from repro.sim.simulation import ConstellationSimulation
from repro.spectrum.beams import BeamPlan

from tests.conftest import assign_lists

PLAN = BeamPlan(
    beams_per_satellite=4,
    max_beams_per_cell=2,
    ut_spectrum_mhz=2000.0,
    spectral_efficiency_bps_hz=4.0,
)


class TestHandoverMetrics:
    def _step(self, metrics, serving):
        n = metrics.cell_count
        metrics.record_step(
            covered=np.array(serving) >= 0,
            allocated_mbps=np.ones(n),
            in_view_counts=np.ones(n, dtype=int),
            satellite_latitudes=np.array([0.0]),
            serving_satellite=np.array(serving, dtype=int),
        )

    def test_counts_changes_between_covered_steps(self):
        metrics = CoverageMetrics(cell_count=2)
        self._step(metrics, [3, 5])
        self._step(metrics, [3, 6])  # cell 1 hands over
        self._step(metrics, [4, 6])  # cell 0 hands over
        assert metrics.handover_counts.tolist() == [1, 1]
        assert metrics.mean_handovers_per_step() == pytest.approx(1.0 / 2.0)

    def test_uncovered_transitions_not_counted(self):
        metrics = CoverageMetrics(cell_count=1)
        self._step(metrics, [3])
        self._step(metrics, [-1])  # outage, not a handover
        self._step(metrics, [4])  # re-acquisition, not a handover
        assert metrics.handover_counts.tolist() == [0]

    def test_single_step_rate_zero(self):
        metrics = CoverageMetrics(cell_count=1)
        self._step(metrics, [3])
        assert metrics.mean_handovers_per_step() == 0.0

    def test_misaligned_serving_rejected(self):
        metrics = CoverageMetrics(cell_count=2)
        with pytest.raises(SimulationError):
            metrics.record_step(
                covered=np.array([True, True]),
                allocated_mbps=np.ones(2),
                in_view_counts=np.ones(2, dtype=int),
                satellite_latitudes=np.array([0.0]),
                serving_satellite=np.array([1]),
            )


class TestReconnectionMetrics:
    """Regression: post-gap reacquisitions used to vanish entirely —
    not handovers (correct) but not counted anywhere else either."""

    def _step(self, metrics, serving):
        n = metrics.cell_count
        metrics.record_step(
            covered=np.array(serving) >= 0,
            allocated_mbps=np.ones(n),
            in_view_counts=np.ones(n, dtype=int),
            satellite_latitudes=np.array([0.0]),
            serving_satellite=np.array(serving, dtype=int),
        )

    def test_gap_reacquisition_of_new_satellite_counted(self):
        metrics = CoverageMetrics(cell_count=1)
        self._step(metrics, [3])
        self._step(metrics, [-1])
        self._step(metrics, [4])
        assert metrics.handover_counts.tolist() == [0]
        assert metrics.reconnection_counts.tolist() == [1]

    def test_gap_reacquisition_of_same_satellite_not_counted(self):
        metrics = CoverageMetrics(cell_count=1)
        self._step(metrics, [3])
        self._step(metrics, [-1])
        self._step(metrics, [3])
        assert metrics.reconnection_counts.tolist() == [0]

    def test_first_acquisition_not_counted(self):
        metrics = CoverageMetrics(cell_count=1)
        self._step(metrics, [-1])
        self._step(metrics, [7])
        assert metrics.reconnection_counts.tolist() == [0]

    def test_pre_gap_satellite_remembered_across_long_gap(self):
        metrics = CoverageMetrics(cell_count=1)
        self._step(metrics, [2])
        self._step(metrics, [-1])
        self._step(metrics, [-1])
        self._step(metrics, [9])
        assert metrics.reconnection_counts.tolist() == [1]

    def test_mean_reconnections_per_step(self):
        metrics = CoverageMetrics(cell_count=2)
        self._step(metrics, [3, 3])
        self._step(metrics, [-1, 3])
        self._step(metrics, [4, 3])
        assert metrics.mean_reconnections_per_step() == pytest.approx(
            0.5 / 2.0
        )

    def test_report_surfaces_reconnections(self, regional_dataset):
        clock = SimulationClock(duration_s=300.0, step_s=60.0)
        simulation = ConstellationSimulation(
            GEN1_SHELLS[:1], regional_dataset
        )
        report = simulation.report(simulation.run(clock))
        assert "reconnections/cell/step:" in report.text()
        assert report.mean_reconnections_per_step >= 0.0


class TestStickyGreedy:
    def test_keeps_previous_satellite(self):
        strategy = StickyGreedy()
        visible = [np.array([0, 1])]
        demands = np.array([1.0])
        first = assign_lists(strategy, visible, demands, 2, PLAN)
        second = assign_lists(strategy, visible, demands, 2, PLAN)
        assert second.serving_satellite[0] == first.serving_satellite[0]

    def test_hands_over_when_previous_disappears(self):
        strategy = StickyGreedy()
        first = assign_lists(
            strategy, [np.array([0, 1])], np.array([1.0]), 2, PLAN
        )
        keeper = first.serving_satellite[0]
        other = 1 - keeper
        second = assign_lists(
            strategy, [np.array([other])], np.array([1.0]), 2, PLAN
        )
        assert second.serving_satellite[0] == other

    def test_state_misalignment_rejected(self):
        strategy = StickyGreedy()
        assign_lists(strategy, [np.array([0])], np.array([1.0]), 1, PLAN)
        with pytest.raises(SimulationError):
            assign_lists(
                strategy,
                [np.array([0]), np.array([0])],
                np.array([1.0, 1.0]),
                1,
                PLAN,
            )

    def test_reduces_handovers_in_simulation(self, regional_dataset):
        clock = SimulationClock(duration_s=1200.0, step_s=60.0)
        churny = ConstellationSimulation(
            GEN1_SHELLS[:1], regional_dataset, strategy=GreedyDemandFirst()
        )
        sticky = ConstellationSimulation(
            GEN1_SHELLS[:1], regional_dataset, strategy=StickyGreedy()
        )
        churny_report = churny.report(churny.run(clock))
        sticky_report = sticky.report(sticky.run(clock))
        assert sticky_report.mean_handovers_per_step < (
            churny_report.mean_handovers_per_step
        )
        # Stickiness must not sacrifice coverage.
        assert sticky_report.mean_coverage_fraction >= (
            churny_report.mean_coverage_fraction - 0.02
        )
