"""Tests for DemandDataset invariants and aggregates."""

import numpy as np
import pytest

from repro.demand.bsl import County, ServiceCell
from repro.demand.dataset import DemandDataset
from repro.errors import DatasetError
from repro.geo.coords import LatLon
from repro.geo.hexgrid import CellId

from tests.conftest import build_toy_dataset


class TestValidation:
    def test_empty_rejected(self):
        with pytest.raises(DatasetError):
            DemandDataset(cells=[], counties={}, grid_resolution=5)

    def test_duplicate_cell_rejected(self):
        county = County(0, "C", LatLon(37.0, -90.0), 60000.0)
        cell = ServiceCell(CellId(5, 0, 0), LatLon(37.0, -90.0), 0, 1, 0)
        with pytest.raises(DatasetError):
            DemandDataset(
                cells=[cell, cell], counties={0: county}, grid_resolution=5
            )

    def test_unknown_county_rejected(self):
        cell = ServiceCell(CellId(5, 0, 0), LatLon(37.0, -90.0), 99, 1, 0)
        with pytest.raises(DatasetError):
            DemandDataset(cells=[cell], counties={}, grid_resolution=5)

    def test_resolution_mismatch_rejected(self):
        county = County(0, "C", LatLon(37.0, -90.0), 60000.0)
        cell = ServiceCell(CellId(4, 0, 0), LatLon(37.0, -90.0), 0, 1, 0)
        with pytest.raises(DatasetError):
            DemandDataset(cells=[cell], counties={0: county}, grid_resolution=5)


class TestAggregates:
    def test_total_locations(self, toy_dataset):
        assert toy_dataset.total_locations == 10 + 100 + 1000 + 2000 + 5998

    def test_occupied_cell_count(self, toy_dataset):
        assert toy_dataset.occupied_cell_count == 5

    def test_max_cell(self, toy_dataset):
        assert toy_dataset.max_cell().total_locations == 5998

    def test_counts_returns_copy(self, toy_dataset):
        counts = toy_dataset.counts()
        counts[0] = 999999
        assert toy_dataset.counts()[0] == 10

    def test_percentile_bounds(self, toy_dataset):
        assert toy_dataset.percentile(0) == 10
        assert toy_dataset.percentile(100) == 5998
        with pytest.raises(DatasetError):
            toy_dataset.percentile(101)

    def test_sorted_by_demand(self, toy_dataset):
        ordered = toy_dataset.cells_sorted_by_demand()
        counts = [c.total_locations for c in ordered]
        assert counts == sorted(counts, reverse=True)

    def test_locations_in_cells_above(self, toy_dataset):
        assert toy_dataset.locations_in_cells_above(1500) == 2000 + 5998
        assert toy_dataset.locations_in_cells_above(6000) == 0

    def test_excess_locations_above(self, toy_dataset):
        assert toy_dataset.excess_locations_above(1000) == 1000 + 4998
        with pytest.raises(DatasetError):
            toy_dataset.excess_locations_above(-1)

    def test_income_share_below(self):
        ds = build_toy_dataset(
            [100, 300], incomes=[40000.0, 80000.0]
        )
        assert ds.location_weighted_income_share_below(50000.0) == pytest.approx(0.25)
        assert ds.location_weighted_income_share_below(100000.0) == 1.0

    def test_summary_mentions_key_stats(self, toy_dataset):
        text = toy_dataset.summary()
        assert "9,108" in text
        assert "5998" in text


class TestSubset:
    def test_bbox_subset(self):
        ds = build_toy_dataset([10, 20, 30], latitudes=[30.0, 35.0, 40.0])
        subset = ds.subset_bbox(33.0, 41.0, -180.0, 180.0)
        assert subset.total_locations == 50
        assert len(subset.cells) == 2

    def test_empty_bbox_rejected(self):
        ds = build_toy_dataset([10])
        with pytest.raises(DatasetError):
            ds.subset_bbox(80.0, 85.0, 0.0, 1.0)

    def test_subset_keeps_referenced_counties_only(self):
        ds = build_toy_dataset([10, 20], latitudes=[30.0, 45.0])
        subset = ds.subset_bbox(40.0, 50.0, -180.0, 180.0)
        assert len(subset.counties) == 1

    def test_national_subset_consistency(self, national_dataset):
        subset = national_dataset.subset_bbox(36.0, 39.0, -90.0, -80.0)
        assert 0 < subset.total_locations < national_dataset.total_locations
        assert subset.max_cell().total_locations == 5998  # planted peak inside

    def test_subset_matches_a_filter_over_the_cells(self, national_dataset):
        lat_min, lat_max, lon_min, lon_max = 36.0, 39.0, -90.0, -80.0
        subset = national_dataset.subset_bbox(
            lat_min, lat_max, lon_min, lon_max, "box"
        )
        kept = [
            c
            for c in national_dataset.cells
            if lat_min <= c.center.lat_deg <= lat_max
            and lon_min <= c.center.lon_deg <= lon_max
        ]
        county_ids = {c.county_id for c in kept}
        assert subset.cells == kept
        assert list(subset.counties) == list(county_ids)
        assert subset.description == "box"
        reference = DemandDataset(
            cells=kept,
            counties={i: national_dataset.counties[i] for i in county_ids},
            grid_resolution=national_dataset.grid_resolution,
        )
        assert subset.fingerprint() == reference.fingerprint()


class TestColumns:
    def test_round_trip_preserves_everything(self, toy_dataset):
        rebuilt = DemandDataset.from_columns(
            toy_dataset.to_columns(),
            toy_dataset.counties,
            toy_dataset.grid_resolution,
            toy_dataset.description,
        )
        assert rebuilt.fingerprint() == toy_dataset.fingerprint()
        assert rebuilt.total_locations == toy_dataset.total_locations
        assert np.array_equal(rebuilt.counts(), toy_dataset.counts())
        # The cell-object view materializes lazily and matches.
        assert rebuilt.cells == toy_dataset.cells

    def test_columns_are_adopted_not_copied(self, toy_dataset):
        columns = {
            name: np.array(col)
            for name, col in toy_dataset.to_columns().items()
        }
        rebuilt = DemandDataset.from_columns(
            columns, toy_dataset.counties, toy_dataset.grid_resolution
        )
        assert rebuilt.to_columns()["cell_key"] is columns["cell_key"]

    def test_missing_column_rejected(self, toy_dataset):
        columns = dict(toy_dataset.to_columns())
        del columns["unserved"]
        with pytest.raises(DatasetError, match="missing dataset columns"):
            DemandDataset.from_columns(
                columns, toy_dataset.counties, toy_dataset.grid_resolution
            )

    def test_column_validation_still_runs(self, toy_dataset):
        columns = dict(toy_dataset.to_columns())
        columns["county_id"] = np.full_like(columns["county_id"], 9999)
        with pytest.raises(DatasetError):
            DemandDataset.from_columns(
                columns, toy_dataset.counties, toy_dataset.grid_resolution
            )

    def test_county_columns_align(self, toy_dataset):
        counties = toy_dataset.county_columns()
        ids = counties["county_id"]
        assert list(ids) == sorted(toy_dataset.counties)
        for i, county_id in enumerate(ids):
            county = toy_dataset.counties[int(county_id)]
            assert counties["income"][i] == (
                county.median_household_income_usd
            )
            assert counties["seat_lat"][i] == county.seat.lat_deg
