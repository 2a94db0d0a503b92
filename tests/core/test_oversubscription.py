"""Tests for the servability analysis (Fig 2, F1)."""

import math

import numpy as np
import pytest

from repro.core.oversubscription import OversubscriptionAnalysis, cell_location_cap
from repro.errors import CapacityModelError

from tests.conftest import build_toy_dataset


@pytest.fixture()
def toy_analysis():
    return OversubscriptionAnalysis(build_toy_dataset([10, 100, 1000, 2000, 5998]))


class TestCellCap:
    def test_20_to_1_cap(self, toy_analysis):
        assert toy_analysis.cell_location_cap(20.0) == 3465

    def test_beamspread_divides_cap(self, toy_analysis):
        assert toy_analysis.cell_location_cap(20.0, 5.0) == 693

    def test_rejects_bad_inputs(self, toy_analysis):
        with pytest.raises(CapacityModelError):
            toy_analysis.cell_location_cap(0.0)
        with pytest.raises(CapacityModelError):
            toy_analysis.cell_location_cap(20.0, 0.5)

    @pytest.mark.parametrize(
        "oversubscription, beamspread",
        [(math.nan, 1.0), (math.inf, 1.0), (20.0, math.nan), (20.0, math.inf)],
    )
    def test_rejects_non_finite_inputs(
        self, toy_analysis, oversubscription, beamspread
    ):
        with pytest.raises(CapacityModelError):
            cell_location_cap(toy_analysis.capacity, oversubscription, beamspread)


class TestStats:
    def test_everything_served_at_35(self, toy_analysis):
        stats = toy_analysis.stats(35.0)
        assert stats.cell_service_fraction == 1.0
        assert stats.location_service_fraction == 1.0
        assert stats.locations_unserved == 0

    def test_peak_cell_capped_at_20(self, toy_analysis):
        stats = toy_analysis.stats(20.0)
        assert stats.cells_fully_served == 4
        assert stats.locations_unserved == 5998 - 3465

    def test_fraction_monotone_in_oversubscription(self, toy_analysis):
        fractions = [
            toy_analysis.stats(r).location_service_fraction for r in (5, 10, 20, 35)
        ]
        assert fractions == sorted(fractions)

    def test_fraction_monotone_in_beamspread(self, toy_analysis):
        fractions = [
            toy_analysis.stats(20.0, s).location_service_fraction
            for s in (1, 2, 5, 10)
        ]
        assert fractions == sorted(fractions, reverse=True)


class TestGrid:
    def test_grid_shape_and_monotonicity(self, toy_analysis):
        ratios = (5, 10, 20, 30)
        spreads = (1, 2, 5)
        grid = toy_analysis.fraction_served_grid(ratios, spreads)
        assert grid.shape == (3, 4)
        # Non-decreasing along oversubscription, non-increasing along spread.
        assert np.all(np.diff(grid, axis=1) >= 0.0)
        assert np.all(np.diff(grid, axis=0) <= 0.0)

    def test_empty_axes_rejected(self, toy_analysis):
        with pytest.raises(CapacityModelError):
            toy_analysis.fraction_served_grid([], [1])

    def test_national_grid_matches_paper_range(self, national_model):
        """Fig 2's color scale runs ~0.36 (s=14, r=5) to ~0.99+ (s=2, r=30)."""
        analysis = national_model.oversubscription
        grid = analysis.fraction_served_grid(range(5, 31), range(2, 15))
        assert grid.min() == pytest.approx(0.36, abs=0.02)
        assert grid.max() >= 0.99


class TestFinding1:
    def test_toy_f1(self, toy_analysis):
        f1 = toy_analysis.finding1()
        assert f1["peak_cell_locations"] == 5998
        assert f1["per_cell_cap"] == 3465
        assert f1["locations_unservable_at_acceptable"] == 5998 - 3465

    def test_national_f1_matches_paper(self, national_model):
        f1 = national_model.oversubscription.finding1()
        # Paper: ~35:1 peak, 99.89% servable at 20:1, 22,428 locations
        # (0.48%) in cells above the cap.
        assert round(f1["required_oversubscription"]) == 35
        assert f1["service_fraction_at_acceptable"] == pytest.approx(0.9989, abs=2e-4)
        assert f1["locations_in_cells_above_cap"] == 22428
        assert f1["share_in_cells_above_cap"] == pytest.approx(0.0048, abs=2e-4)
