"""Tests for the trace recorder the parity suite compares against."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.orbits.shells import GEN1_SHELLS
from repro.sim.engine import SimulationClock
from repro.sim.simulation import ConstellationSimulation

from tests.conftest import build_toy_dataset
from tests.oracles.trace import SimulationTrace, record_trace


@pytest.fixture(scope="module")
def recorded():
    dataset = build_toy_dataset([100, 500, 900], latitudes=[36.5, 37.0, 37.5])
    simulation = ConstellationSimulation(GEN1_SHELLS[:1], dataset)
    trace = record_trace(simulation, SimulationClock(300.0, 60.0))
    return trace


class TestRecording:
    def test_shape(self, recorded):
        assert recorded.steps == 5
        assert recorded.cells == 3

    def test_coverage_timeline(self, recorded):
        timeline = recorded.coverage_timeline()
        assert timeline.shape == (5,)
        assert np.all((0.0 <= timeline) & (timeline <= 1.0))

    def test_worst_cell_valid(self, recorded):
        assert 0 <= recorded.worst_cell() < 3

    def test_handover_counts_nonnegative(self, recorded):
        handovers = recorded.handovers_per_cell()
        assert handovers.shape == (3,)
        assert np.all(handovers >= 0)

    def test_allocation_only_when_covered(self, recorded):
        uncovered = ~recorded.covered
        assert np.all(recorded.allocated_mbps[uncovered] == 0.0)


class TestValidation:
    def test_misshapen_arrays_rejected(self):
        with pytest.raises(SimulationError):
            SimulationTrace(
                times_s=np.zeros(2),
                covered=np.zeros((2, 3), dtype=bool),
                allocated_mbps=np.zeros((2, 4)),
                serving_satellite=np.zeros((2, 3), dtype=int),
            )

    def test_step_count_mismatch_rejected(self):
        with pytest.raises(SimulationError):
            SimulationTrace(
                times_s=np.zeros(3),
                covered=np.zeros((2, 3), dtype=bool),
                allocated_mbps=np.zeros((2, 3)),
                serving_satellite=np.zeros((2, 3), dtype=int),
            )

    def test_single_step_handovers_zero(self):
        trace = SimulationTrace(
            times_s=np.zeros(1),
            covered=np.ones((1, 2), dtype=bool),
            allocated_mbps=np.ones((1, 2)),
            serving_satellite=np.zeros((1, 2), dtype=int),
        )
        assert trace.handovers_per_cell().tolist() == [0, 0]
