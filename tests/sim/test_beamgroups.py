"""Tests for beamspread groups and the spread assignment strategy."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim.beamgroups import SpreadAssignment, build_beam_groups
from repro.sim.engine import SimulationClock
from repro.sim.simulation import ConstellationSimulation
from repro.orbits.shells import GEN1_SHELLS
from repro.spectrum.beams import BeamPlan

from tests.conftest import assign_lists

PLAN = BeamPlan(
    beams_per_satellite=4,
    max_beams_per_cell=2,
    ut_spectrum_mhz=2000.0,
    spectral_efficiency_bps_hz=4.0,
)
BEAM = PLAN.beam_capacity_mbps


class TestBuildGroups:
    def test_partition_is_exact(self, regional_dataset):
        groups = build_beam_groups(regional_dataset, 5)
        members = [i for g in groups for i in g]
        assert sorted(members) == list(range(len(regional_dataset.cells)))

    def test_group_size_bounded(self, regional_dataset):
        groups = build_beam_groups(regional_dataset, 5)
        assert max(len(g) for g in groups) <= 5

    def test_groups_shrink_count(self, regional_dataset):
        one = build_beam_groups(regional_dataset, 1)
        five = build_beam_groups(regional_dataset, 5)
        assert len(one) == len(regional_dataset.cells)
        assert len(five) < len(one)
        # Contiguous clustering over a dense region approaches n/s groups.
        assert len(five) <= len(one) / 2

    def test_groups_are_contiguous(self, regional_dataset):
        from repro.geo.hexgrid import HexGrid

        grid = HexGrid(regional_dataset.grid_resolution)
        groups = build_beam_groups(regional_dataset, 4)
        for group in groups:
            if len(group) == 1:
                continue
            cells = [regional_dataset.cells[i].cell for i in group]
            # Every member is within hex distance s of the seed.
            for cell in cells[1:]:
                assert grid.distance(cells[0], cell) <= 4

    def test_rejects_bad_beamspread(self, regional_dataset):
        with pytest.raises(SimulationError):
            build_beam_groups(regional_dataset, 0)


class TestSpreadAssignment:
    def test_one_beam_covers_whole_group(self):
        strategy = SpreadAssignment([[0, 1, 2]])
        visible = [np.array([0]) for _ in range(3)]
        demands = np.array([BEAM / 4, BEAM / 4, BEAM / 4])
        outcome = assign_lists(strategy, visible, demands, 1, PLAN)
        assert outcome.covered.all()
        assert outcome.beams_used[0] == 1
        assert np.allclose(outcome.allocated_mbps, demands)

    def test_capacity_split_by_demand(self):
        strategy = SpreadAssignment([[0, 1]])
        visible = [np.array([0]), np.array([0])]
        demands = np.array([3 * BEAM, BEAM])  # over one beam's capacity
        outcome = assign_lists(strategy, visible, demands, 1, PLAN)
        # Two beams granted (group needs 4 but per-cell cap is 2).
        capacity = 2 * BEAM
        assert outcome.allocated_mbps[0] == pytest.approx(capacity * 0.75)
        assert outcome.allocated_mbps[1] == pytest.approx(capacity * 0.25)

    def test_group_blocked_without_common_satellite(self):
        strategy = SpreadAssignment([[0, 1]])
        visible = [np.array([0]), np.array([1])]  # no common satellite
        demands = np.array([1.0, 1.0])
        outcome = assign_lists(strategy, visible, demands, 2, PLAN)
        assert not outcome.covered.any()

    def test_rejects_overlapping_groups(self):
        with pytest.raises(SimulationError):
            SpreadAssignment([[0, 1], [1, 2]])

    def test_rejects_empty(self):
        with pytest.raises(SimulationError):
            SpreadAssignment([])
        with pytest.raises(SimulationError):
            SpreadAssignment([[]])


class TestSimulatedBeamspread:
    def test_spread_reduces_beams_used(self, regional_dataset):
        """Serving via groups consumes fewer beams than cell-by-cell."""
        clock = SimulationClock(duration_s=120.0, step_s=60.0)
        narrow = ConstellationSimulation(
            GEN1_SHELLS[:1], regional_dataset, oversubscription=20.0
        )
        narrow_metrics = narrow.run(clock)
        groups = build_beam_groups(regional_dataset, 5)
        spread = ConstellationSimulation(
            GEN1_SHELLS[:1],
            regional_dataset,
            oversubscription=20.0,
            strategy=SpreadAssignment(groups),
        )
        spread_metrics = spread.run(clock)
        # Both cover well, but the spread strategy touches fewer beams in
        # total (sum over satellites).
        assert spread_metrics.coverage_fraction().mean() > 0.9
        # Re-run one step of each for beam totals.
        narrow_total = narrow.step(0.0)[0].beams_used.sum()
        spread_total = spread.step(0.0)[0].beams_used.sum()
        assert spread_total < narrow_total
