"""Tests for per-location record explode/bin round trips.

The record-at-a-time explode and bin are the differential oracles in
``tests/oracles/explode.py``; the record type and its CSV I/O are library
code.
"""

import numpy as np
import pytest

from repro.demand.locations import (
    LocationRecord,
    TechnologyCode,
    read_locations_csv,
    write_locations_csv,
)
from repro.errors import DatasetError
from repro.geo.coords import LatLon
from repro.geo.hexgrid import CellId, HexGrid

from tests.conftest import build_toy_dataset
from tests.oracles.explode import bin_locations, explode_cells


@pytest.fixture(scope="module")
def small_records():
    dataset = build_toy_dataset([50, 120, 300])
    return dataset, explode_cells(dataset, seed=7)


class TestExplode:
    def test_record_count_matches_totals(self, small_records):
        dataset, records = small_records
        assert len(records) == dataset.total_locations

    def test_unserved_underserved_split(self, small_records):
        dataset, records = small_records
        unserved = sum(1 for r in records if r.is_unserved)
        expected = sum(c.unserved_locations for c in dataset.cells)
        assert unserved == expected

    def test_none_are_served(self, small_records):
        _, records = small_records
        assert not any(r.is_served for r in records)

    def test_points_fall_in_their_cell(self, small_records):
        dataset, records = small_records
        grid = HexGrid(dataset.grid_resolution)
        mismatches = sum(
            1 for r in records if grid.cell_for(r.position) != r.cell
        )
        # Boundary rounding can flip a point across a hex edge rarely.
        assert mismatches / len(records) < 0.01

    def test_deterministic(self, small_records):
        dataset, records = small_records
        again = explode_cells(dataset, seed=7)
        assert [r.position for r in again[:20]] == [
            r.position for r in records[:20]
        ]

    def test_different_seed_moves_points(self, small_records):
        dataset, records = small_records
        other = explode_cells(dataset, seed=8)
        assert other[0].position != records[0].position

    def test_technology_mix_present(self, small_records):
        _, records = small_records
        technologies = {r.technology for r in records}
        assert TechnologyCode.NONE in technologies
        assert TechnologyCode.COPPER_DSL in technologies


class TestBin:
    def test_roundtrip_counts(self, small_records):
        dataset, records = small_records
        binned = bin_locations(records, dataset.grid_resolution)
        total = sum(u + d for u, d in binned.values())
        assert total == dataset.total_locations

    def test_served_records_dropped(self):
        record = LocationRecord(
            location_id=0,
            position=LatLon(37.0, -90.0),
            cell=CellId(5, 0, 0),
            county_id=0,
            technology=TechnologyCode.FIBER,
            max_download_mbps=1000.0,
            max_upload_mbps=100.0,
        )
        assert bin_locations([record], 5) == {}

    def test_underserved_classified(self):
        record = LocationRecord(
            location_id=0,
            position=LatLon(37.0, -90.0),
            cell=CellId(5, 0, 0),
            county_id=0,
            technology=TechnologyCode.CABLE,
            max_download_mbps=75.0,
            max_upload_mbps=10.0,
        )
        binned = bin_locations([record], 5)
        ((unserved, underserved),) = binned.values()
        assert (unserved, underserved) == (0, 1)


class TestCsv:
    def test_roundtrip(self, small_records, tmp_path):
        _, records = small_records
        path = write_locations_csv(records[:100], tmp_path / "locs.csv")
        loaded = read_locations_csv(path)
        assert len(loaded) == 100
        assert loaded[0].cell == records[0].cell
        assert loaded[0].technology == records[0].technology
        assert loaded[0].position.lat_deg == pytest.approx(
            records[0].position.lat_deg, abs=1e-5
        )

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError):
            read_locations_csv(tmp_path / "nope.csv")

    def test_bad_headers(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        with pytest.raises(DatasetError):
            read_locations_csv(bad)

    def test_unknown_technology_code(self, small_records, tmp_path):
        """A malformed technology column is a dataset error, not a bare
        ValueError escaping from the enum constructor."""
        _, records = small_records
        path = write_locations_csv(records[:3], tmp_path / "locs.csv")
        lines = path.read_text().splitlines()
        fields = lines[1].split(",")
        fields[5] = "999"
        lines[1] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError, match="unknown technology code"):
            read_locations_csv(path)

    def test_non_integer_technology_code(self, small_records, tmp_path):
        _, records = small_records
        path = write_locations_csv(records[:1], tmp_path / "locs.csv")
        lines = path.read_text().splitlines()
        fields = lines[1].split(",")
        fields[5] = "fiber"
        lines[1] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError, match="unknown technology code"):
            read_locations_csv(path)


class TestRecordValidation:
    def test_negative_speed_rejected(self):
        with pytest.raises(DatasetError):
            LocationRecord(
                location_id=0,
                position=LatLon(0.0, 0.0),
                cell=CellId(5, 0, 0),
                county_id=0,
                technology=TechnologyCode.NONE,
                max_download_mbps=-1.0,
                max_upload_mbps=0.0,
            )
