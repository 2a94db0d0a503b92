"""Parity suite: trace-derived statistics agree with CoverageMetrics.

:class:`SimulationTrace` recomputes handovers and reconnections from
its recorded serving matrix; :class:`CoverageMetrics` accumulates them
step by step during the run. Both must implement the same event
definition (:func:`serving_transition_events`) — these tests pin the
agreement on crafted sequences and on real runs of both engines. The
run cases also pin the fast engine and kernels to the reference engine
and loops (``tests/oracles/assignment.py``), report for report.
"""

import numpy as np
import pytest

from repro.orbits.shells import GEN1_SHELLS
from repro.sim.assignment import GreedyDemandFirst, ProportionalFair
from repro.sim.engine import SimulationClock
from repro.sim.metrics import CoverageMetrics
from repro.sim.simulation import ConstellationSimulation
from repro.sim.trace import SimulationTrace, record_trace

from tests.conftest import build_toy_dataset
from tests.oracles.assignment import (
    ReferenceGreedyDemandFirst,
    ReferenceProportionalFair,
)


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
        """The fast engine and kernel against the reference engine and
        loop: whole-run :class:`SimulationReport`s compare equal."""
        shells = list(GEN1_SHELLS[:1])
        clock = SimulationClock(duration_s=600.0, step_s=60.0)
        reports = []
        for engine, strategy in (
            ("fast", fast_cls()),
            ("reference", reference_cls()),
        ):
            simulation = ConstellationSimulation(
                shells, regional_dataset, strategy=strategy, engine=engine
            )
            reports.append(simulation.report(simulation.run(clock)))
        assert reports[0] == reports[1]
        assert reports[0].steps == 10

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_trace_and_metrics_agree_on_real_run(self, engine):
        dataset = build_toy_dataset([10, 100, 1000, 2000, 5998])
        shells = list(GEN1_SHELLS[:1])
        clock = SimulationClock(duration_s=900.0, step_s=60.0)

        run_sim = ConstellationSimulation(shells, dataset, engine=engine)
        metrics = run_sim.run(clock)

        trace_sim = ConstellationSimulation(shells, dataset, engine=engine)
        trace = record_trace(trace_sim, clock)

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
