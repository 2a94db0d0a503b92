"""Differential tests: the CSR kernels vs the slow reference loops.

The CSR kernels in :mod:`repro.sim.assignment` must be
outcome-identical — every field, including tie-breaks — to the retained
list loops in ``tests/oracles/assignment.py`` on arbitrary visibility
relations: one call at a time for the stateless strategies, and over
sequences of steps, one stateful instance on each side, for
:class:`~repro.sim.assignment.StickyGreedy`.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.assignment import (
    AssignmentOutcome,
    BeamAssignmentStrategy,
    GreedyDemandFirst,
    ProportionalFair,
    StickyGreedy,
)
from repro.sim.visibility_index import CSRVisibility
from repro.spectrum.beams import BeamPlan

from tests.conftest import assign_lists
from tests.oracles.assignment import (
    ReferenceGreedyDemandFirst,
    ReferenceProportionalFair,
    ReferenceStickyGreedy,
)

PLAN = BeamPlan(
    beams_per_satellite=6,
    max_beams_per_cell=3,
    ut_spectrum_mhz=3000.0,
    spectral_efficiency_bps_hz=4.0,
)

#: Starved supply: satellites drain after one or two grants, so the
#: death-tracking skip lists and the fair strategy's lazy heap (which
#: only matter once satellites run dry mid-pass) are exercised hard.
SCARCE_PLANS = [
    BeamPlan(
        beams_per_satellite=1,
        max_beams_per_cell=1,
        ut_spectrum_mhz=3000.0,
        spectral_efficiency_bps_hz=4.0,
    ),
    BeamPlan(
        beams_per_satellite=2,
        max_beams_per_cell=2,
        ut_spectrum_mhz=3000.0,
        spectral_efficiency_bps_hz=4.0,
    ),
    BeamPlan(
        beams_per_satellite=3,
        max_beams_per_cell=3,
        ut_spectrum_mhz=3000.0,
        spectral_efficiency_bps_hz=4.0,
    ),
]

PAIRS = [
    (GreedyDemandFirst, ReferenceGreedyDemandFirst),
    (ProportionalFair, ReferenceProportionalFair),
]

#: The two-step drain and satellite-filter cases also run sticky, whose
#: single-step cases are covered by :class:`TestStickyMatchesReference`.
MULTI_STEP_PAIRS = [*PAIRS, (StickyGreedy, ReferenceStickyGreedy)]


def _relation(draw, n_cells, n_sats):
    """Random per-cell arrays of distinct, ascending satellite ids."""
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
    return visible


def _demands(draw, n_cells):
    return np.array(
        draw(
            st.lists(
                st.floats(min_value=0.0, max_value=4.0 * PLAN.beam_capacity_mbps),
                min_size=n_cells,
                max_size=n_cells,
            )
        )
    )


@st.composite
def scenario(draw):
    """A random (visibility, demands, satellite_count) instance."""
    n_cells = draw(st.integers(min_value=1, max_value=14))
    n_sats = draw(st.integers(min_value=1, max_value=9))
    return _relation(draw, n_cells, n_sats), _demands(draw, n_cells), n_sats


@st.composite
def step_sequence(draw):
    """2-3 steps of (visibility, demands) over fixed cells and satellites."""
    n_cells = draw(st.integers(min_value=1, max_value=14))
    n_sats = draw(st.integers(min_value=1, max_value=9))
    steps = [
        (_relation(draw, n_cells, n_sats), _demands(draw, n_cells))
        for _ in range(draw(st.integers(min_value=2, max_value=3)))
    ]
    return steps, n_sats


def run_strategy(strategy, visible, demands, n_sats, plan) -> AssignmentOutcome:
    """A library strategy through ``assign_csr``, an oracle through ``assign``."""
    if isinstance(strategy, BeamAssignmentStrategy):
        return assign_lists(strategy, visible, demands, n_sats, plan)
    return strategy.assign(visible, demands, n_sats, plan)


def assert_outcomes_identical(actual: AssignmentOutcome, expected: AssignmentOutcome):
    np.testing.assert_array_equal(actual.covered, expected.covered)
    np.testing.assert_array_equal(actual.beams_used, expected.beams_used)
    np.testing.assert_array_equal(
        actual.serving_satellite, expected.serving_satellite
    )
    np.testing.assert_array_equal(actual.allocated_mbps, expected.allocated_mbps)
    np.testing.assert_array_equal(
        actual.capacity_pointed_mbps, expected.capacity_pointed_mbps
    )


class TestFastMatchesReference:
    @pytest.mark.parametrize("fast_cls,reference_cls", PAIRS)
    @given(scenario())
    @settings(max_examples=150, deadline=None)
    def test_identical_outcomes(self, fast_cls, reference_cls, instance):
        visible, demands, n_sats = instance
        fast = assign_lists(fast_cls(), visible, demands, n_sats, PLAN)
        reference = reference_cls().assign(visible, demands, n_sats, PLAN)
        assert_outcomes_identical(fast, reference)

    @pytest.mark.parametrize("fast_cls,reference_cls", MULTI_STEP_PAIRS)
    @given(scenario(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_assign_csr_matches_assign(
        self, fast_cls, reference_cls, instance, data
    ):
        """``assign_csr`` after the CSR satellite filter equals the
        reference ``assign`` after the per-cell list filter, over two
        steps with one instance a side (sticky's second step keeps
        satellites the new filter may have removed)."""
        visible, demands, n_sats = instance
        csr = CSRVisibility.from_lists(visible, n_satellites=n_sats)
        fast, reference = fast_cls(), reference_cls()
        for _ in range(2):
            keep = np.array(
                data.draw(
                    st.lists(st.booleans(), min_size=n_sats, max_size=n_sats)
                )
            )
            via_csr = fast.assign_csr(csr.filter_satellites(keep), demands, PLAN)
            via_lists = reference.assign(
                [sats[keep[sats]] for sats in visible], demands, n_sats, PLAN
            )
            assert_outcomes_identical(via_csr, via_lists)

    @pytest.mark.parametrize("fast_cls,reference_cls", PAIRS)
    @pytest.mark.parametrize("plan_index", range(len(SCARCE_PLANS)))
    @given(scenario())
    @settings(max_examples=80, deadline=None)
    def test_identical_outcomes_under_beam_scarcity(
        self, fast_cls, reference_cls, plan_index, instance
    ):
        visible, demands, n_sats = instance
        plan = SCARCE_PLANS[plan_index]
        fast = assign_lists(fast_cls(), visible, demands, n_sats, plan)
        reference = reference_cls().assign(visible, demands, n_sats, plan)
        assert_outcomes_identical(fast, reference)

    @pytest.mark.parametrize("fast_cls,reference_cls", MULTI_STEP_PAIRS)
    def test_every_satellite_drains(self, fast_cls, reference_cls):
        # Demand dwarfs supply on a dense relation: with one beam per
        # satellite every satellite dies mid-scan, so every later cell
        # visit must consult the drained-satellite skip machinery. The
        # second step reverses the demand order, so sticky cells find
        # the satellite they kept drained by a hungrier cell.
        plan = SCARCE_PLANS[0]
        n_cells, n_sats = 12, 5
        visible = [
            np.arange(n_sats, dtype=int) for _ in range(n_cells)
        ]
        demands = np.full(n_cells, 4.0 * plan.beam_capacity_mbps)
        demands[::3] *= 0.5  # break symmetry in the scarcest-first order
        fast, reference = fast_cls(), reference_cls()
        for step_demands in (demands, demands[::-1].copy()):
            via_csr = assign_lists(fast, visible, step_demands, n_sats, plan)
            assert_outcomes_identical(
                via_csr, reference.assign(visible, step_demands, n_sats, plan)
            )
            assert via_csr.beams_used.sum() == n_sats  # all supply consumed


class TestStickyMatchesReference:
    """One stateful instance a side: step k's choices steer step k+1."""

    @pytest.mark.parametrize("plan", [PLAN, *SCARCE_PLANS])
    @given(step_sequence())
    @settings(max_examples=80, deadline=None)
    def test_identical_outcomes_over_steps(self, plan, instance):
        steps, n_sats = instance
        sticky, reference = StickyGreedy(), ReferenceStickyGreedy()
        for visible, demands in steps:
            assert_outcomes_identical(
                assign_lists(sticky, visible, demands, n_sats, plan),
                reference.assign(visible, demands, n_sats, plan),
            )


class TestOutcomeAccounting:
    """The allocated/pointed split introduced with the fast path."""

    STRATEGIES = [
        GreedyDemandFirst,
        ProportionalFair,
        StickyGreedy,
        ReferenceGreedyDemandFirst,
        ReferenceProportionalFair,
        ReferenceStickyGreedy,
    ]

    @pytest.mark.parametrize("strategy_cls", STRATEGIES)
    @given(scenario())
    @settings(max_examples=60, deadline=None)
    def test_total_allocated_never_exceeds_total_demand(
        self, strategy_cls, instance
    ):
        visible, demands, n_sats = instance
        outcome = run_strategy(strategy_cls(), visible, demands, n_sats, PLAN)
        assert outcome.allocated_mbps.sum() <= demands.sum() + 1e-9
        assert np.all(outcome.allocated_mbps <= demands + 1e-12)

    @pytest.mark.parametrize("strategy_cls", STRATEGIES)
    @given(scenario())
    @settings(max_examples=60, deadline=None)
    def test_allocated_is_demand_clamped_pointed_capacity(
        self, strategy_cls, instance
    ):
        visible, demands, n_sats = instance
        outcome = run_strategy(strategy_cls(), visible, demands, n_sats, PLAN)
        np.testing.assert_array_equal(
            outcome.allocated_mbps,
            np.minimum(outcome.capacity_pointed_mbps, demands),
        )
        # Pointed capacity is whole beams.
        remainder = outcome.capacity_pointed_mbps % PLAN.beam_capacity_mbps
        np.testing.assert_allclose(remainder, 0.0, atol=1e-6)

    def test_outcome_defaults(self):
        outcome = AssignmentOutcome(
            allocated_mbps=np.array([10.0, 0.0]),
            beams_used=np.zeros(3, dtype=int),
            covered=np.array([True, False]),
        )
        np.testing.assert_array_equal(outcome.serving_satellite, [-1, -1])
        np.testing.assert_array_equal(
            outcome.capacity_pointed_mbps, outcome.allocated_mbps
        )
