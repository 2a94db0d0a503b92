"""Tests for the calibrated synthetic national map.

These assert the generator hits the statistics the paper publishes — the
heart of the substitution argument in DESIGN.md section 2.
"""

import numpy as np
import pytest

from repro.demand.census import IncomeModel
from repro.demand.synthetic import (
    DEFAULT_PLANTED_PEAKS,
    SyntheticMapConfig,
    generate_national_map,
)
from repro.errors import CalibrationError


class TestPaperCalibration:
    def test_total_locations(self, national_dataset):
        assert national_dataset.total_locations == 4_660_000

    def test_percentiles_match_figure1(self, national_dataset):
        assert national_dataset.percentile(90) == pytest.approx(552, abs=3)
        assert national_dataset.percentile(99) == pytest.approx(1437, rel=0.01)

    def test_max_cell_is_5998(self, national_dataset):
        assert national_dataset.max_cell().total_locations == 5998

    def test_figure2_color_anchor(self, national_dataset):
        """~36% of cells hold <= ~62 locations (Fig 2's lowest shade)."""
        counts = national_dataset.counts()
        fraction = np.count_nonzero(counts <= 62) / counts.size
        assert fraction == pytest.approx(0.36, abs=0.02)

    def test_f1_cells_above_cap(self, national_dataset):
        """22,428 locations live in cells above the 20:1 cap (F1)."""
        assert national_dataset.locations_in_cells_above(3460) == 22428

    def test_f1_excess_above_cap(self, national_dataset):
        """5,128 locations beyond the 20:1 cap at the paper's 3460."""
        assert national_dataset.excess_locations_above(3460) == 5128

    def test_peak_cell_latitude(self, national_dataset):
        """The peak cell sits near 37 N (Table 2's implied latitude)."""
        assert national_dataset.max_cell().latitude_deg == pytest.approx(37.0, abs=0.2)

    def test_affordability_anchors(self, national_dataset):
        share_72k = national_dataset.location_weighted_income_share_below(72000.0)
        assert share_72k == pytest.approx(0.745, abs=0.005)
        share_lifeline = national_dataset.location_weighted_income_share_below(66450.0)
        assert share_lifeline == pytest.approx(0.644, abs=0.005)

    def test_spectrum_plan_nearly_universal(self, national_dataset):
        """<0.01% of locations in counties below the $30k Spectrum floor."""
        share = national_dataset.location_weighted_income_share_below(30000.0)
        assert share <= 1e-4

    def test_cell_count_plausible(self, national_dataset):
        assert 15000 <= len(national_dataset.cells) <= 30000

    def test_county_count(self, national_dataset):
        assert len(national_dataset.counties) == 3108

    def test_unserved_underserved_split(self, national_dataset):
        cell = national_dataset.max_cell()
        assert cell.unserved_locations > 0
        assert cell.underserved_locations > 0
        assert cell.unserved_locations + cell.underserved_locations == 5998


class TestPlantedPeaks:
    def test_peaks_satisfy_f1_aggregates(self):
        counts = [n for n, _, _ in DEFAULT_PLANTED_PEAKS]
        assert sum(counts) == 22428
        assert sum(n - 3460 for n in counts) == 5128
        assert max(counts) == 5998

    def test_all_peaks_above_cap(self):
        for n, _, _ in DEFAULT_PLANTED_PEAKS:
            assert n > 3460


class TestDeterminism:
    def test_same_seed_same_dataset(self, national_dataset):
        regenerated = generate_national_map()
        assert regenerated.total_locations == national_dataset.total_locations
        assert np.array_equal(regenerated.counts(), national_dataset.counts())
        assert regenerated.cells[0].cell == national_dataset.cells[0].cell

    def test_different_seed_different_layout(self, national_dataset):
        other = generate_national_map(SyntheticMapConfig(seed=1))
        assert not np.array_equal(other.counts(), national_dataset.counts())
        # Calibration targets still hold under any seed.
        assert other.total_locations == national_dataset.total_locations
        assert other.max_cell().total_locations == 5998


class TestConfigValidation:
    def test_rejects_nonpositive_total(self):
        with pytest.raises(CalibrationError):
            SyntheticMapConfig(total_locations=0)

    def test_rejects_negative_seed(self):
        with pytest.raises(CalibrationError, match="map seed"):
            SyntheticMapConfig(seed=-1)
        with pytest.raises(CalibrationError, match="map seed"):
            SyntheticMapConfig.at_resolution(6, seed=-3)

    def test_rejects_bad_unserved_fraction(self):
        with pytest.raises(CalibrationError):
            SyntheticMapConfig(unserved_fraction=1.5)

    def test_rejects_peaks_exceeding_total(self):
        with pytest.raises(CalibrationError):
            SyntheticMapConfig(total_locations=10000)

    def test_small_custom_map(self):
        config = SyntheticMapConfig(
            seed=5,
            total_locations=200_000,
            income_model=IncomeModel(),
        )
        dataset = generate_national_map(config)
        assert dataset.total_locations == 200_000
        assert dataset.max_cell().total_locations == 5998


class TestAtResolution:
    def test_res5_keeps_paper_calibration(self):
        config = SyntheticMapConfig.at_resolution(5)
        assert config.resolution == 5
        assert config.planted_peaks == DEFAULT_PLANTED_PEAKS
        assert config.total_locations == SyntheticMapConfig().total_locations

    def test_res6_scales_by_cell_area(self):
        from repro.geo.hexgrid import H3_MEAN_HEX_AREA_KM2

        config = SyntheticMapConfig.at_resolution(6)
        factor = H3_MEAN_HEX_AREA_KM2[5] / H3_MEAN_HEX_AREA_KM2[6]
        assert config.resolution == 6
        # National total unchanged; per-cell calibration divided by the
        # mean-hex-area ratio (~7x per resolution step).
        assert config.total_locations == SyntheticMapConfig().total_locations
        for (n6, _, _), (n5, _, _) in zip(
            config.planted_peaks, DEFAULT_PLANTED_PEAKS
        ):
            assert n6 == max(1, round(n5 / factor))
        # Peaks must remain the densest cells after scaling.
        max_anchor = max(c for _, c in config.cell_count_anchors)
        assert max_anchor < min(n for n, _, _ in config.planted_peaks)

    def test_seed_and_overrides_pass_through(self):
        config = SyntheticMapConfig.at_resolution(
            6, seed=99, unserved_fraction=0.5
        )
        assert config.seed == 99
        assert config.unserved_fraction == 0.5

    def test_rejects_unknown_resolution(self):
        with pytest.raises(CalibrationError):
            SyntheticMapConfig.at_resolution(42)
