"""Tests for beam assignment strategies on hand-built visibility graphs."""

import math

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.orbits.shells import GEN1_SHELLS
from repro.sim.assignment import (
    BeamAssignmentStrategy,
    GreedyDemandFirst,
    ProportionalFair,
    StickyGreedy,
)
from repro.sim.simulation import ConstellationSimulation
from repro.spectrum.beams import BeamPlan

from tests.conftest import assign_lists, build_toy_dataset

PLAN = BeamPlan(
    beams_per_satellite=4,
    max_beams_per_cell=2,
    ut_spectrum_mhz=2000.0,
    spectral_efficiency_bps_hz=4.0,
)
BEAM = PLAN.beam_capacity_mbps  # 4000 Mbps


@pytest.fixture(params=[GreedyDemandFirst, ProportionalFair])
def strategy(request):
    return request.param()


def test_strategy_interface_is_assign_csr_alone():
    assert BeamAssignmentStrategy.__abstractmethods__ == {"assign_csr"}
    for strategy_cls in (
        GreedyDemandFirst,
        ProportionalFair,
        StickyGreedy,
    ):
        assert not hasattr(strategy_cls, "assign")


class TestCommonBehaviour:
    def test_no_visibility_means_no_coverage(self, strategy):
        outcome = assign_lists(
            strategy, [np.array([], dtype=int)], np.array([1000.0]), 1, PLAN
        )
        assert not outcome.covered[0]
        assert outcome.allocated_mbps[0] == 0.0

    def test_single_cell_single_sat(self, strategy):
        outcome = assign_lists(
            strategy, [np.array([0])], np.array([1000.0]), 1, PLAN
        )
        assert outcome.covered[0]
        assert outcome.allocated_mbps[0] >= 1000.0
        assert outcome.beams_used[0] >= 1

    def test_beams_never_exceed_satellite_budget(self, strategy):
        visible = [np.array([0]) for _ in range(10)]
        demands = np.full(10, BEAM)
        outcome = assign_lists(strategy, visible, demands, 1, PLAN)
        assert outcome.beams_used[0] <= PLAN.beams_per_satellite
        assert outcome.cells_covered == 4  # one satellite, four beams

    def test_misaligned_inputs_rejected(self, strategy):
        with pytest.raises(SimulationError):
            assign_lists(strategy, [np.array([0])], np.array([1.0, 2.0]), 1, PLAN)

    def test_negative_demand_rejected(self, strategy):
        with pytest.raises(SimulationError):
            assign_lists(strategy, [np.array([0])], np.array([-1.0]), 1, PLAN)

    def test_two_sats_cover_more(self, strategy):
        visible = [np.array([0, 1]) for _ in range(8)]
        demands = np.full(8, BEAM)
        outcome = assign_lists(strategy, visible, demands, 2, PLAN)
        assert outcome.cells_covered == 8


class TestGreedyDemandFirst:
    def test_hungriest_cell_wins_scarce_beams(self):
        strategy = GreedyDemandFirst()
        # One satellite with 4 beams; the hungry cell needs 2 (cap).
        visible = [np.array([0]), np.array([0]), np.array([0])]
        demands = np.array([2 * BEAM, 2 * BEAM, 2 * BEAM])
        outcome = assign_lists(strategy, visible, demands, 1, PLAN)
        assert outcome.cells_covered == 2  # 4 beams / 2 each
        assert outcome.beams_used[0] == 4

    def test_multibeam_cell_prefers_one_satellite(self):
        strategy = GreedyDemandFirst()
        visible = [np.array([0, 1])]
        demands = np.array([2 * BEAM])
        outcome = assign_lists(strategy, visible, demands, 2, PLAN)
        # Both beams should come from the same satellite.
        assert sorted(outcome.beams_used.tolist()) == [0, 2]


class TestProportionalFair:
    def test_coverage_before_capacity(self):
        strategy = ProportionalFair()
        # One satellite, 4 beams, 4 cells: everyone gets exactly one.
        visible = [np.array([0]) for _ in range(4)]
        demands = np.array([10 * BEAM, 1.0, 1.0, 1.0])
        outcome = assign_lists(strategy, visible, demands, 1, PLAN)
        assert outcome.cells_covered == 4

    def test_scarce_cells_first(self):
        strategy = ProportionalFair()
        # Cell 0 sees only sat 0; cells 1-4 see both. Sat 0 has 4 beams.
        visible = [np.array([0])] + [np.array([0, 1]) for _ in range(4)]
        demands = np.full(5, 1.0)
        outcome = assign_lists(strategy, visible, demands, 2, PLAN)
        assert outcome.covered[0]
        assert outcome.cells_covered == 5

    def test_leftover_beams_go_to_unmet_demand(self):
        strategy = ProportionalFair()
        visible = [np.array([0]), np.array([0])]
        demands = np.array([2 * BEAM, 0.5 * BEAM])
        outcome = assign_lists(strategy, visible, demands, 1, PLAN)
        assert outcome.allocated_mbps[0] >= 2 * BEAM

    def test_blocked_cell_does_not_stall(self):
        strategy = ProportionalFair()
        # Sat 0 has 4 beams; cell 0 wants 2 but only sees sat 0 along with
        # three other cells — after coverage, remaining beam goes somewhere
        # and the loop terminates.
        visible = [np.array([0]) for _ in range(4)]
        demands = np.array([2 * BEAM, 2 * BEAM, 2 * BEAM, 2 * BEAM])
        outcome = assign_lists(strategy, visible, demands, 1, PLAN)
        assert outcome.beams_used[0] == 4


@pytest.mark.parametrize(
    "strategy_cls", [GreedyDemandFirst, ProportionalFair, StickyGreedy]
)
@pytest.mark.parametrize("bad", [math.nan, math.inf])
class TestNonFiniteDemand:
    """A NaN or infinite demand is refused, never turned into beams."""

    def test_assign_csr_rejects(self, strategy_cls, bad):
        demands = np.array([1000.0, bad])
        with pytest.raises(SimulationError, match="non-finite"):
            assign_lists(
                strategy_cls(), [np.array([0]), np.array([0, 1])], demands, 2, PLAN
            )

    def test_step_rejects(self, strategy_cls, bad):
        sim = ConstellationSimulation(
            GEN1_SHELLS[:1],
            build_toy_dataset([10, 100, 1000, 2000, 5998]),
            strategy=strategy_cls(),
        )
        demands = sim.demands_mbps.copy()
        demands[2] = bad
        with pytest.raises(SimulationError, match="non-finite"):
            sim.step(0.0, demands)
