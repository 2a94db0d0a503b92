"""Property-based invariants for all beam-assignment strategies.

Random visibility graphs and demand vectors; every strategy must conserve
beams, respect per-satellite budgets, and never allocate capacity to an
uncovered cell.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.assignment import (
    GreedyDemandFirst,
    ProportionalFair,
    StickyGreedy,
)
from repro.spectrum.beams import BeamPlan

from tests.conftest import assign_lists

PLAN = BeamPlan(
    beams_per_satellite=6,
    max_beams_per_cell=3,
    ut_spectrum_mhz=3000.0,
    spectral_efficiency_bps_hz=4.0,
)


@st.composite
def scenario(draw):
    """A random (visibility, demands, satellite_count) instance."""
    n_cells = draw(st.integers(min_value=1, max_value=12))
    n_sats = draw(st.integers(min_value=1, max_value=8))
    visible = []
    for _ in range(n_cells):
        count = draw(st.integers(min_value=0, max_value=n_sats))
        sats = draw(
            st.lists(
                st.integers(min_value=0, max_value=n_sats - 1),
                min_size=count,
                max_size=count,
                unique=True,
            )
        )
        visible.append(np.array(sorted(sats), dtype=int))
    demands = np.array(
        draw(
            st.lists(
                st.floats(min_value=0.0, max_value=4.0 * PLAN.beam_capacity_mbps),
                min_size=n_cells,
                max_size=n_cells,
            )
        )
    )
    return visible, demands, n_sats


STRATEGIES = [GreedyDemandFirst, ProportionalFair, StickyGreedy]


@pytest.mark.parametrize("strategy_cls", STRATEGIES)
class TestAssignmentInvariants:
    @given(scenario())
    @settings(max_examples=60, deadline=None)
    def test_beam_budget_respected(self, strategy_cls, instance):
        visible, demands, n_sats = instance
        outcome = assign_lists(strategy_cls(), visible, demands, n_sats, PLAN)
        assert np.all(outcome.beams_used >= 0)
        assert np.all(outcome.beams_used <= PLAN.beams_per_satellite)

    @given(scenario())
    @settings(max_examples=60, deadline=None)
    def test_no_capacity_without_coverage(self, strategy_cls, instance):
        visible, demands, n_sats = instance
        outcome = assign_lists(strategy_cls(), visible, demands, n_sats, PLAN)
        uncovered = ~outcome.covered
        assert np.all(outcome.allocated_mbps[uncovered] == 0.0)
        assert np.all(outcome.serving_satellite[uncovered] == -1)

    @given(scenario())
    @settings(max_examples=60, deadline=None)
    def test_serving_satellite_is_visible(self, strategy_cls, instance):
        visible, demands, n_sats = instance
        outcome = assign_lists(strategy_cls(), visible, demands, n_sats, PLAN)
        for cell, sat in enumerate(outcome.serving_satellite):
            if sat >= 0:
                assert sat in visible[cell]

    @given(scenario())
    @settings(max_examples=60, deadline=None)
    def test_blind_cells_never_covered(self, strategy_cls, instance):
        visible, demands, n_sats = instance
        outcome = assign_lists(strategy_cls(), visible, demands, n_sats, PLAN)
        for cell, sats in enumerate(visible):
            if sats.size == 0:
                assert not outcome.covered[cell]

    @given(scenario())
    @settings(max_examples=60, deadline=None)
    def test_total_beams_spent_bounded_by_supply(self, strategy_cls, instance):
        visible, demands, n_sats = instance
        outcome = assign_lists(strategy_cls(), visible, demands, n_sats, PLAN)
        assert outcome.beams_used.sum() <= n_sats * PLAN.beams_per_satellite
