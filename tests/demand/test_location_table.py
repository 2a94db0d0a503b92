"""Differential tests: columnar location pipeline vs the scalar reference.

The fast path (:class:`LocationTable`, :func:`explode_cells_table`,
:func:`bin_table`, the chunked CSV I/O) must be outcome-identical — to the
bit, including RNG draws — to the record-at-a-time reference
(``explode_cells``, ``bin_locations`` and the record CSV I/O in
``tests/oracles/explode.py``) on arbitrary datasets, and the binary NPZ
format must round-trip losslessly.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.demand.bsl import County, ServiceCell
from repro.demand.dataset import DemandDataset
from repro.demand.locations import (
    _TABLE_COLUMNS,
    LocationTable,
    TechnologyCode,
    bin_table,
    explode_cells_table,
    read_table_csv,
    write_table_csv,
)
from repro.errors import DatasetError
from repro.geo.coords import LatLon
from repro.geo.hexgrid import CellId, HexGrid

from tests.conftest import build_toy_dataset
from tests.oracles.explode import (
    bin_locations,
    explode_cells,
    read_locations_csv,
    table_from_records,
    table_to_records,
    write_locations_csv,
)


def _dataset_from_counts(counts):
    """A dataset with explicit (unserved, underserved) per cell."""
    grid = HexGrid(5)
    cells = []
    counties = {}
    for index, (unserved, underserved) in enumerate(counts):
        cell = CellId(5, 3 * index - 4, -index)
        counties[index] = County(
            county_id=index,
            name=f"Toy {index}",
            seat=LatLon(37.0, -90.0),
            median_household_income_usd=60000.0,
        )
        cells.append(
            ServiceCell(
                cell=cell,
                center=grid.center(cell),
                county_id=index,
                unserved_locations=unserved,
                underserved_locations=underserved,
            )
        )
    return DemandDataset(
        cells=cells, counties=counties, grid_resolution=5, description="toy"
    )


count_pairs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=60),
        st.integers(min_value=0, max_value=60),
    ),
    min_size=1,
    max_size=6,
)


class TestExplodeDifferential:
    @given(count_pairs, st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=25, deadline=None)
    def test_table_matches_records(self, counts, seed):
        dataset = _dataset_from_counts(counts)
        table = explode_cells_table(dataset, seed=seed)
        reference = table_from_records(explode_cells(dataset, seed=seed))
        assert table.equals(reference)

    def test_empty_dataset_cells(self):
        table = explode_cells_table(_dataset_from_counts([(0, 0), (0, 0)]))
        assert len(table) == 0

    def test_negative_seed_rejected(self, toy_dataset):
        with pytest.raises(DatasetError, match="explode seed"):
            explode_cells_table(toy_dataset, seed=-1)

    def test_fixture_dataset(self, toy_dataset):
        table = explode_cells_table(toy_dataset, seed=3)
        reference = table_from_records(
            explode_cells(toy_dataset, seed=3)
        )
        assert table.equals(reference)


class TestBinDifferential:
    @given(count_pairs, st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=25, deadline=None)
    def test_bin_table_matches_bin_locations(self, counts, seed):
        dataset = _dataset_from_counts(counts)
        table = explode_cells_table(dataset, seed=seed)
        records = explode_cells(dataset, seed=seed)
        assert bin_table(table, 5) == bin_locations(records, 5)

    @given(count_pairs, st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=25, deadline=None)
    def test_bin_of_explode_reproduces_source_counts(self, counts, seed):
        """Explode then bin is the exact identity on per-cell counts."""
        dataset = _dataset_from_counts(counts)
        binned = bin_table(explode_cells_table(dataset, seed=seed), 5)
        expected = {
            cell.cell: (cell.unserved_locations, cell.underserved_locations)
            for cell in dataset.cells
            if cell.unserved_locations + cell.underserved_locations > 0
        }
        assert binned == expected

    def test_served_rows_dropped(self):
        table = LocationTable(
            location_id=np.array([0, 1]),
            lat_deg=np.array([37.0, 37.0]),
            lon_deg=np.array([-90.0, -90.0]),
            cell_key=np.array([CellId(5, 0, 0).key] * 2, dtype=np.uint64),
            county_id=np.array([0, 0]),
            technology=np.array(
                [int(TechnologyCode.FIBER), int(TechnologyCode.CABLE)]
            ),
            max_download_mbps=np.array([1000.0, 75.0]),
            max_upload_mbps=np.array([100.0, 10.0]),
        )
        binned = bin_table(table, 5)
        ((unserved, underserved),) = binned.values()
        assert (unserved, underserved) == (0, 1)


class TestCsvDifferential:
    @given(count_pairs, st.integers(min_value=1, max_value=97))
    @settings(max_examples=10, deadline=None)
    def test_bytes_and_chunked_read(self, counts, chunk_size):
        import tempfile
        from pathlib import Path

        dataset = _dataset_from_counts(counts)
        records = explode_cells(dataset, seed=5)
        table = explode_cells_table(dataset, seed=5)
        with tempfile.TemporaryDirectory() as tmp:
            reference_path = Path(tmp) / "reference.csv"
            fast_path = Path(tmp) / "fast.csv"
            write_locations_csv(records, reference_path)
            write_table_csv(table, fast_path, chunk_size=chunk_size)
            assert (
                fast_path.read_bytes() == reference_path.read_bytes()
            )
            loaded = read_table_csv(fast_path, chunk_size=chunk_size)
            reference = table_from_records(
                read_locations_csv(reference_path)
            )
            assert loaded.equals(reference)

    def test_read_missing_file(self, tmp_path):
        with pytest.raises(DatasetError):
            read_table_csv(tmp_path / "nope.csv")

    def test_read_bad_headers(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        with pytest.raises(DatasetError):
            read_table_csv(bad)

    def test_read_empty_body(self, tmp_path):
        empty = tmp_path / "empty.csv"
        write_locations_csv([], empty)
        assert len(read_table_csv(empty)) == 0

    def test_read_unknown_technology_code(self, tmp_path):
        dataset = build_toy_dataset([3])
        path = write_locations_csv(explode_cells(dataset, seed=1), tmp_path / "t.csv")
        text = path.read_text()
        lines = text.splitlines()
        fields = lines[1].split(",")
        fields[5] = "999"
        lines[1] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError, match="unknown technology code"):
            read_table_csv(path)

    def test_read_malformed_token(self, tmp_path):
        dataset = build_toy_dataset([3])
        path = write_locations_csv(explode_cells(dataset, seed=1), tmp_path / "t.csv")
        text = path.read_text()
        lines = text.splitlines()
        fields = lines[1].split(",")
        fields[3] = "zz-not-hex"
        lines[1] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError, match="malformed cell token"):
            read_table_csv(path)

    def test_written_files_round_trip_byte_identically(self, tmp_path):
        table = explode_cells_table(build_toy_dataset([40, 7, 300]), seed=4)
        first = write_table_csv(table, tmp_path / "first.csv", chunk_size=64)
        loaded = read_table_csv(first, chunk_size=50)
        # Coordinates are written to 6 decimals, so the first write is
        # lossy; from then on a read and a write change no byte.
        assert loaded.location_id.tolist() == table.location_id.tolist()
        second = write_table_csv(loaded, tmp_path / "second.csv")
        assert second.read_bytes() == first.read_bytes()

    def test_rejects_nonpositive_chunk_size(self, tmp_path):
        table = explode_cells_table(build_toy_dataset([3]))
        with pytest.raises(DatasetError):
            write_table_csv(table, tmp_path / "t.csv", chunk_size=0)
        with pytest.raises(DatasetError):
            read_table_csv(tmp_path / "t.csv", chunk_size=-1)


class TestNpz:
    def test_roundtrip(self, tmp_path):
        table = explode_cells_table(build_toy_dataset([40, 7]), seed=2)
        path = table.to_npz(tmp_path / "table")
        assert path.suffix == ".npz"
        assert LocationTable.from_npz(path).equals(table)

    def test_explicit_npz_suffix(self, tmp_path):
        table = explode_cells_table(build_toy_dataset([4]), seed=2)
        path = table.to_npz(tmp_path / "table.npz")
        assert path == tmp_path / "table.npz"
        assert LocationTable.from_npz(path).equals(table)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError):
            LocationTable.from_npz(tmp_path / "nope.npz")

    def test_missing_columns(self, tmp_path):
        target = tmp_path / "partial.npz"
        np.savez(target, location_id=np.array([0]))
        with pytest.raises(DatasetError, match="missing location table columns"):
            LocationTable.from_npz(target)

    @pytest.mark.parametrize("mmap_mode", [None, "r"])
    def test_empty_table_roundtrip(self, tmp_path, mmap_mode):
        """A dataset with zero demand persists and reloads on both paths."""
        table = explode_cells_table(build_toy_dataset([0]), seed=0)
        assert len(table) == 0
        path = table.to_npz(tmp_path / "empty")
        loaded = LocationTable.from_npz(path, mmap_mode=mmap_mode)
        assert len(loaded) == 0
        assert loaded.equals(table)
        assert loaded.cell_key.dtype == np.uint64

    @pytest.mark.parametrize("mmap_mode", [None, "r"])
    def test_single_location_roundtrip(self, tmp_path, mmap_mode):
        table = explode_cells_table(build_toy_dataset([1]), seed=5)
        assert len(table) == 1
        path = table.to_npz(tmp_path / "one")
        loaded = LocationTable.from_npz(path, mmap_mode=mmap_mode)
        assert loaded.equals(table)

    def test_mmap_matches_eager_load(self, tmp_path):
        table = explode_cells_table(build_toy_dataset([40, 7]), seed=2)
        path = table.to_npz(tmp_path / "table")
        eager = LocationTable.from_npz(path)
        mapped = LocationTable.from_npz(path, mmap_mode="r")
        assert mapped.equals(eager)
        # __post_init__'s asarray turns the memmap into a plain ndarray
        # view, but the column still windows the file: read-only, backed
        # by the original np.memmap.
        assert not mapped.location_id.flags.writeable
        assert isinstance(mapped.location_id.base, np.memmap)
        assert eager.location_id.flags.writeable

    def test_compressed_archive_rejected_for_mmap(self, tmp_path):
        table = explode_cells_table(build_toy_dataset([4]), seed=2)
        target = tmp_path / "packed.npz"
        np.savez_compressed(
            target,
            **{
                name: getattr(table, name)
                for name in (
                    "location_id",
                    "lat_deg",
                    "lon_deg",
                    "cell_key",
                    "county_id",
                    "technology",
                    "max_download_mbps",
                    "max_upload_mbps",
                )
            },
        )
        # The eager path handles compression fine; only mmap refuses.
        assert LocationTable.from_npz(target).equals(table)
        with pytest.raises(DatasetError, match="compressed"):
            LocationTable.from_npz(target, mmap_mode="r")

    def test_unsupported_mmap_mode(self, tmp_path):
        table = explode_cells_table(build_toy_dataset([4]), seed=2)
        path = table.to_npz(tmp_path / "table")
        with pytest.raises(DatasetError, match="unsupported mmap mode"):
            LocationTable.from_npz(path, mmap_mode="r+")

    def test_mmap_missing_columns(self, tmp_path):
        target = tmp_path / "partial.npz"
        np.savez(target, location_id=np.array([0]))
        with pytest.raises(DatasetError, match="missing location table columns"):
            LocationTable.from_npz(target, mmap_mode="r")

    def test_mmap_rejects_non_archive(self, tmp_path):
        target = tmp_path / "garbage.npz"
        target.write_bytes(b"not a zip archive at all")
        with pytest.raises(DatasetError, match="not an NPZ archive"):
            LocationTable.from_npz(target, mmap_mode="r")


class TestNpzBoundary:
    """Bad archives and mistyped columns are a DatasetError on both paths."""

    def _columns(self, table, **overrides):
        columns = {name: getattr(table, name) for name in _TABLE_COLUMNS}
        columns.update(overrides)
        return columns

    @pytest.mark.parametrize("mmap_mode", [None, "r"])
    @pytest.mark.parametrize(
        "content",
        [b"not a zip archive at all", b"", b"PK\x03\x04truncated"],
        ids=["garbage", "empty", "zip-magic"],
    )
    def test_non_archive(self, tmp_path, mmap_mode, content):
        target = tmp_path / "bad.npz"
        target.write_bytes(content)
        with pytest.raises(DatasetError, match="not an NPZ archive"):
            LocationTable.from_npz(target, mmap_mode=mmap_mode)

    @pytest.mark.parametrize("mmap_mode", [None, "r"])
    def test_truncated_archive(self, tmp_path, mmap_mode):
        table = explode_cells_table(build_toy_dataset([40, 7]), seed=2)
        path = table.to_npz(tmp_path / "table")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(DatasetError, match="not an NPZ archive"):
            LocationTable.from_npz(path, mmap_mode=mmap_mode)

    def test_plain_npy_file(self, tmp_path):
        target = tmp_path / "ids.npz"
        with target.open("wb") as handle:
            np.save(handle, np.arange(3))
        with pytest.raises(DatasetError, match="not an NPZ archive"):
            LocationTable.from_npz(target)

    @pytest.mark.parametrize("mmap_mode", [None, "r"])
    @pytest.mark.parametrize(
        "name, column",
        [
            ("location_id", np.array([1.5, 2.7])),
            ("technology", np.array([10.6, 50.0])),
            ("county_id", np.array([0, 1], dtype=np.int32)),
            ("lat_deg", np.array([37.0, 37.1], dtype=np.float32)),
            ("cell_key", np.array([1, 2], dtype=">u8")),
        ],
        ids=["float-ids", "float-tech", "int32", "float32", "big-endian"],
    )
    def test_mistyped_column_is_refused_not_cast(
        self, tmp_path, mmap_mode, name, column
    ):
        table = explode_cells_table(build_toy_dataset([2]), seed=2)
        target = tmp_path / "typed.npz"
        np.savez(target, **self._columns(table, **{name: column}))
        with pytest.raises(DatasetError, match=f"column '{name}' is stored"):
            LocationTable.from_npz(target, mmap_mode=mmap_mode)

    @pytest.mark.parametrize("mmap_mode", [None, "r"])
    def test_two_dimensional_column(self, tmp_path, mmap_mode):
        table = explode_cells_table(build_toy_dataset([2]), seed=2)
        target = tmp_path / "shaped.npz"
        lat = np.stack([table.lat_deg, table.lat_deg], axis=1)
        np.savez(target, **self._columns(table, lat_deg=lat))
        with pytest.raises(DatasetError, match="'lat_deg' is not flat"):
            LocationTable.from_npz(target, mmap_mode=mmap_mode)

    def test_compressed_archive_checks_dtypes_too(self, tmp_path):
        table = explode_cells_table(build_toy_dataset([2]), seed=2)
        target = tmp_path / "packed.npz"
        np.savez_compressed(
            target,
            **self._columns(table, location_id=np.array([1.5, 2.7])),
        )
        with pytest.raises(DatasetError, match="'location_id' is stored"):
            LocationTable.from_npz(target)


class TestClose:
    def _mapped(self, tmp_path):
        table = explode_cells_table(build_toy_dataset([40, 7]), seed=2)
        path = table.to_npz(tmp_path / "table")
        return LocationTable.from_npz(path, mmap_mode="r")

    def test_close_releases_the_mapping(self, tmp_path):
        mapped = self._mapped(tmp_path)
        buffer = mapped.location_id.base._mmap
        assert not buffer.closed
        mapped.close()
        assert buffer.closed
        assert len(mapped) == 0
        # Dtypes survive so any stale consumer fails on length, not type.
        assert mapped.cell_key.dtype == np.uint64

    def test_close_is_idempotent(self, tmp_path):
        mapped = self._mapped(tmp_path)
        mapped.close()
        mapped.close()
        assert len(mapped) == 0

    def test_close_in_memory_table_is_safe(self):
        table = explode_cells_table(build_toy_dataset([4]), seed=2)
        table.close()
        assert len(table) == 0

    def test_context_manager_closes(self, tmp_path):
        with self._mapped(tmp_path) as mapped:
            buffer = mapped.location_id.base._mmap
            assert len(mapped) == 47
        assert buffer.closed
        assert len(mapped) == 0

    def test_live_view_does_not_block_the_close(self, tmp_path):
        """NumPy views hold no buffer export on the mmap, so close()
        releases the mapping even while a view object survives (the
        contract: such views must not be read afterwards)."""
        mapped = self._mapped(tmp_path)
        view = mapped.lat_deg
        buffer = mapped.lat_deg.base._mmap
        mapped.close()
        assert buffer.closed
        assert view is not None  # the object survives; its pages do not

    def test_direct_buffer_export_defers_the_close(self, tmp_path):
        """A raw memoryview over the mmap *does* pin it; close() must
        tolerate the BufferError and leave the export usable."""
        mapped = self._mapped(tmp_path)
        buffer = mapped.lat_deg.base._mmap
        export = memoryview(buffer)
        mapped.close()
        assert not buffer.closed
        assert len(mapped) == 0
        export.release()
        buffer.close()
        assert buffer.closed


class TestTableValidation:
    def _columns(self, **overrides):
        base = dict(
            location_id=np.array([0]),
            lat_deg=np.array([37.0]),
            lon_deg=np.array([-90.0]),
            cell_key=np.array([CellId(5, 0, 0).key], dtype=np.uint64),
            county_id=np.array([0]),
            technology=np.array([int(TechnologyCode.CABLE)]),
            max_download_mbps=np.array([75.0]),
            max_upload_mbps=np.array([10.0]),
        )
        base.update(overrides)
        return base

    def test_unequal_lengths_rejected(self):
        with pytest.raises(DatasetError, match="unequal lengths"):
            LocationTable(**self._columns(county_id=np.array([0, 1])))

    def test_negative_speed_rejected(self):
        with pytest.raises(DatasetError, match="negative speeds"):
            LocationTable(
                **self._columns(max_download_mbps=np.array([-1.0]))
            )

    def test_unknown_technology_rejected(self):
        with pytest.raises(DatasetError, match="unknown technology code"):
            LocationTable(**self._columns(technology=np.array([999])))

    def test_masks_match_record_properties(self):
        records = explode_cells(build_toy_dataset([30, 30]), seed=9)
        table = table_from_records(records)
        assert table.is_served().tolist() == [r.is_served for r in records]
        assert table.is_unserved().tolist() == [
            r.is_unserved for r in records
        ]

    def test_to_records_roundtrip(self):
        records = explode_cells(build_toy_dataset([25]), seed=4)
        table = table_from_records(records)
        assert table_to_records(table) == records
        assert len(table) == len(records)


def _edited_csv(tmp_path, edit, rows=12):
    """A written table CSV with ``edit(lines)`` applied to its lines."""
    table = explode_cells_table(build_toy_dataset([rows]), seed=3)
    path = write_table_csv(table, tmp_path / "edited.csv")
    lines = path.read_text().splitlines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n")
    return path


def _set_field(line_index, field, value):
    def edit(lines):
        fields = lines[line_index].split(",")
        fields[field] = value
        lines[line_index] = ",".join(fields)

    return edit


class TestCsvBoundary:
    """A malformed CSV is refused with the file and the line, never loaded."""

    def test_short_row(self, tmp_path):
        def drop_field(lines):
            lines[3] = lines[3].rsplit(",", 1)[0]

        path = _edited_csv(tmp_path, drop_field)
        with pytest.raises(DatasetError, match=r"line 4: expected 8 fields, got 7"):
            read_table_csv(path)

    def test_truncated_last_row(self, tmp_path):
        def truncate(lines):
            lines[-1] = lines[-1][: len(lines[-1]) // 2]

        path = _edited_csv(tmp_path, truncate)
        with pytest.raises(DatasetError, match=r"edited\.csv: line 13: expected 8"):
            read_table_csv(path)

    def test_extra_field(self, tmp_path):
        def append_field(lines):
            lines[2] += ",7"

        path = _edited_csv(tmp_path, append_field)
        with pytest.raises(DatasetError, match=r"line 3: expected 8 fields, got 9"):
            read_table_csv(path)

    def test_blank_line(self, tmp_path):
        path = _edited_csv(tmp_path, lambda lines: lines.insert(5, ""))
        with pytest.raises(DatasetError, match=r"line 6: expected 8 fields, got 0"):
            read_table_csv(path)

    @pytest.mark.parametrize(
        "field, value, name",
        [
            (0, "x17", "location_id"),
            (1, "north", "lat_deg"),
            (2, "", "lon_deg"),
            (4, "4.5", "county_id"),
            (5, "70000", "technology"),
            (5, "fiber", "technology"),
            (6, "fast", "max_download_mbps"),
        ],
    )
    def test_non_numeric_field(self, tmp_path, field, value, name):
        path = _edited_csv(tmp_path, _set_field(7, field, value))
        with pytest.raises(DatasetError, match=rf"line 8: {name} '{value}' is not"):
            read_table_csv(path)

    def test_malformed_token_names_the_line(self, tmp_path):
        for token in ("zz", "-1f", "1" * 17):
            path = _edited_csv(tmp_path, _set_field(2, 3, token))
            with pytest.raises(
                DatasetError, match=rf"line 3: malformed cell token '{token}'"
            ):
                read_table_csv(path)

    @pytest.mark.parametrize(
        "field, value, name",
        [
            (1, "nan", "lat_deg"),
            (1, "inf", "lat_deg"),
            (1, "95.0", "lat_deg"),
            (1, "-90.5", "lat_deg"),
            (2, "-inf", "lon_deg"),
            (2, "180.25", "lon_deg"),
            (6, "nan", "max_download_mbps"),
            (7, "inf", "max_upload_mbps"),
            (7, "-2.0", "max_upload_mbps"),
        ],
    )
    def test_value_out_of_range(self, tmp_path, field, value, name):
        path = _edited_csv(tmp_path, _set_field(5, field, value))
        with pytest.raises(
            DatasetError, match=rf"line 6: {name} '{value}' is not finite in"
        ):
            read_table_csv(path)

    def test_range_edges_load(self, tmp_path):
        def edges(lines):
            for line_index, (lat, lon) in enumerate(
                [("90.000000", "180.000000"), ("-90.000000", "-180.000000")],
                start=1,
            ):
                _set_field(line_index, 1, lat)(lines)
                _set_field(line_index, 2, lon)(lines)

        table = read_table_csv(_edited_csv(tmp_path, edges))
        assert table.lat_deg[:2].tolist() == [90.0, -90.0]
        assert table.lon_deg[:2].tolist() == [180.0, -180.0]

    def test_bad_row_line_counts_across_chunks(self, tmp_path):
        path = _edited_csv(tmp_path, _set_field(9, 1, "nan"))
        for chunk_size in (1, 2, 4, 100):
            with pytest.raises(DatasetError, match=r"line 10: lat_deg 'nan'"):
                read_table_csv(path, chunk_size=chunk_size)
