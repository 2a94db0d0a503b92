"""Parity suite: trace-derived statistics agree with CoverageMetrics.

:class:`SimulationTrace` recomputes handovers and reconnections from
its recorded serving matrix; :class:`CoverageMetrics` accumulates them
step by step during the run. Both must implement the same event
definition (:func:`serving_transition_events`) — these tests pin the
agreement on crafted sequences and on real runs of every strategy,
with and without impairments. The run cases also pin
:meth:`ConstellationSimulation.run` to the reference step and loops
(``tests/oracles/simulation.py`` and ``tests/oracles/assignment.py``),
report for report.
"""

import numpy as np
import pytest

from repro.geo.coords import LatLon
from repro.orbits.shells import GEN1_SHELLS
from repro.sim.assignment import (
    GreedyDemandFirst,
    ProportionalFair,
    StickyGreedy,
)
from repro.sim.engine import SimulationClock
from repro.sim.impairments import RainFade, SatelliteOutages
from repro.sim.metrics import CoverageMetrics
from repro.sim.simulation import ConstellationSimulation

from tests.conftest import build_toy_dataset
from tests.oracles.assignment import (
    ReferenceGreedyDemandFirst,
    ReferenceProportionalFair,
    ReferenceStickyGreedy,
)
from tests.oracles.simulation import reference_run
from tests.oracles.trace import SimulationTrace, record_trace


def trace_from_serving(serving_matrix) -> SimulationTrace:
    serving = np.array(serving_matrix, dtype=np.int64)
    return SimulationTrace(
        times_s=np.arange(serving.shape[0], dtype=float),
        covered=serving >= 0,
        allocated_mbps=np.where(serving >= 0, 1.0, 0.0),
        serving_satellite=serving,
    )


def metrics_from_serving(serving_matrix) -> CoverageMetrics:
    serving = np.array(serving_matrix, dtype=np.int64)
    metrics = CoverageMetrics(cell_count=serving.shape[1])
    for row in serving:
        metrics.record_step(
            covered=row >= 0,
            allocated_mbps=np.where(row >= 0, 1.0, 0.0),
            in_view_counts=(row >= 0).astype(int),
            satellite_latitudes=np.array([0.0]),
            serving_satellite=row,
        )
    return metrics


CRAFTED_SEQUENCES = [
    # Plain handovers between covered steps.
    [[3, 5], [3, 6], [4, 6]],
    # Gap then reacquisition of a different satellite (reconnection),
    # and of the same satellite (neither event).
    [[3, 3], [-1, -1], [4, 3]],
    # First acquisition after starting uncovered: no events.
    [[-1], [7], [7]],
    # Multi-step gap: the pre-gap satellite is remembered across it.
    [[2], [-1], [-1], [2], [-1], [9]],
    # Alternating churn.
    [[1], [2], [-1], [1], [2], [-1], [-1], [5]],
]


class TestCraftedParity:
    @pytest.mark.parametrize("sequence", CRAFTED_SEQUENCES)
    def test_handovers_agree(self, sequence):
        trace = trace_from_serving(sequence)
        metrics = metrics_from_serving(sequence)
        assert np.array_equal(
            trace.handovers_per_cell(), metrics.handover_counts
        )

    @pytest.mark.parametrize("sequence", CRAFTED_SEQUENCES)
    def test_reconnections_agree(self, sequence):
        trace = trace_from_serving(sequence)
        metrics = metrics_from_serving(sequence)
        assert np.array_equal(
            trace.reconnections_per_cell(), metrics.reconnection_counts
        )

    def test_multi_step_gap_is_one_reconnection(self):
        trace = trace_from_serving([[2], [-1], [-1], [9]])
        assert trace.reconnections_per_cell().tolist() == [1]
        assert trace.handovers_per_cell().tolist() == [0]


#: Centres of the regional fixture and of the toy cells.
REGIONAL_CENTRE = LatLon(37.5, -82.5)
TOY_CENTRE = LatLon(37.0, -89.6)


def impairments(centre=REGIONAL_CENTRE):
    """Dead satellites plus a rain fade around ``centre``."""
    return [
        SatelliteOutages(0.1, seed=1),
        RainFade(centre, radius_km=60.0, efficiency_factor=0.5),
    ]


#: Library strategy and its list-form oracle, by name.
STRATEGY_PAIRS = {
    "greedy": (GreedyDemandFirst, ReferenceGreedyDemandFirst),
    "fair": (ProportionalFair, ReferenceProportionalFair),
    "sticky": (StickyGreedy, ReferenceStickyGreedy),
}


class TestRunParity:
    @pytest.mark.parametrize(
        "fast_cls, reference_cls",
        [
            (GreedyDemandFirst, ReferenceGreedyDemandFirst),
            (ProportionalFair, ReferenceProportionalFair),
        ],
    )
    def test_engines_produce_equal_reports(
        self, regional_dataset, fast_cls, reference_cls
    ):
        """:meth:`run` and its kernel against the reference step and
        loop: whole-run :class:`SimulationReport`s compare equal."""
        shells = list(GEN1_SHELLS[:1])
        clock = SimulationClock(duration_s=600.0, step_s=60.0)
        simulation = ConstellationSimulation(
            shells, regional_dataset, strategy=fast_cls()
        )
        report = simulation.report(simulation.run(clock))
        reference = simulation.report(
            reference_run(simulation, clock, reference_cls())
        )
        assert report == reference
        assert report.steps == 10

    @pytest.mark.parametrize("name", sorted(STRATEGY_PAIRS))
    def test_run_matches_reference_run_under_impairments(
        self, regional_dataset, name
    ):
        """The CSR satellite filter and demand scaling against the list
        form: with outages and a rain fade, :meth:`run` and
        :func:`reference_run` report and accumulate alike."""
        fast_cls, reference_cls = STRATEGY_PAIRS[name]
        shells = list(GEN1_SHELLS[:1])
        clock = SimulationClock(duration_s=600.0, step_s=60.0)
        runs = []
        for run in (
            lambda sim: sim.run(clock),
            lambda sim: reference_run(sim, clock, reference_cls()),
        ):
            # A simulation per side: each draws from its own
            # impairment generator.
            simulation = ConstellationSimulation(
                shells,
                regional_dataset,
                strategy=fast_cls(),
                impairments=impairments(),
            )
            metrics = run(simulation)
            runs.append((simulation.report(metrics), metrics))
        (report, metrics), (reference_report, reference_metrics) = runs
        assert report == reference_report
        for field in ("allocated_sum_mbps", "in_view_sum", "covered_steps"):
            np.testing.assert_array_equal(
                getattr(metrics, field), getattr(reference_metrics, field)
            )
        healthy = ConstellationSimulation(
            shells, regional_dataset, strategy=fast_cls()
        )
        healthy_metrics = healthy.run(clock)
        # The impairments bite: the outages thin the sky, and the fade
        # raises the capacity the faded cells are given.
        assert report.mean_satellites_in_view < (
            healthy.report(healthy_metrics).mean_satellites_in_view
        )
        assert metrics.allocated_sum_mbps.sum() > (
            healthy_metrics.allocated_sum_mbps.sum()
        )

    @pytest.mark.parametrize("impaired", [False, True], ids=["clear", "impaired"])
    @pytest.mark.parametrize("name", sorted(STRATEGY_PAIRS))
    def test_trace_and_metrics_agree_on_real_run(self, name, impaired):
        dataset = build_toy_dataset([10, 100, 1000, 2000, 5998])
        shells = list(GEN1_SHELLS[:1])
        clock = SimulationClock(duration_s=900.0, step_s=60.0)
        fast_cls = STRATEGY_PAIRS[name][0]

        def simulation():
            return ConstellationSimulation(
                shells,
                dataset,
                strategy=fast_cls(),
                impairments=impairments(TOY_CENTRE) if impaired else None,
            )

        metrics = simulation().run(clock)
        trace = record_trace(simulation(), clock)

        assert np.array_equal(
            trace.handovers_per_cell(), metrics.handover_counts
        )
        assert np.array_equal(
            trace.reconnections_per_cell(), metrics.reconnection_counts
        )
        assert np.array_equal(
            trace.coverage_timeline() * trace.cells,
            [row.sum() for row in trace.covered],
        )
        assert trace.covered.sum(axis=0).tolist() == (
            metrics.covered_steps.tolist()
        )
        np.testing.assert_array_equal(
            trace.allocated_mbps.sum(axis=0), metrics.allocated_sum_mbps
        )
