"""Per-location tables: the FCC Broadband Data Collection's granularity.

The library's canonical demand representation is per-cell counts (all the
paper's math consumes), but the FCC's raw data is one row per broadband
serviceable location (BSL) with per-provider technology and speed claims.
This module bridges the two on :class:`LocationTable`, a
structure-of-arrays with one NumPy column per attribute:

* :func:`explode_cells_table` scatters a dataset's counts into individual
  location points inside each cell's hexagon (seeded, deterministic) with
  BDC-style attributes — unserved locations get either no offer or a slow
  legacy one, underserved locations an offer below the 100/20 bar;
* :func:`bin_table` re-aggregates points into cells on a grid — the
  inverse, used both for round-trip validation and for ingesting
  location-level data from elsewhere;
* :func:`write_table_csv` / :func:`read_table_csv` stream a BDC-like CSV
  schema in chunks;
* :meth:`LocationTable.to_npz` / :meth:`LocationTable.from_npz` persist
  the columns directly for fast reload.

The record-at-a-time versions the columnar path replaced (one frozen
record per location, its explode and bin, and its CSV reader and writer)
live on as differential oracles in ``tests/oracles/explode.py``;
``perfbench/`` measures the columnar path at national scale (see
docs/PERFORMANCE.md).
"""

from __future__ import annotations

import csv
import enum
import functools
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro import obs
from repro.demand.dataset import DemandDataset
from repro.errors import DatasetError
from repro.geo.hexgrid import CellId, HexGrid
from repro.spectrum.regulatory import (
    RELIABLE_BROADBAND_DOWNLINK_MBPS,
    RELIABLE_BROADBAND_UPLINK_MBPS,
)


class TechnologyCode(enum.IntEnum):
    """FCC BDC technology codes (subset)."""

    NONE = 0
    COPPER_DSL = 10
    CABLE = 40
    FIBER = 50
    FIXED_WIRELESS_UNLICENSED = 70
    GEO_SATELLITE = 60


def _served_mask(downlink_mbps, uplink_mbps):
    """The 100/20 reliable-broadband bar, per scalar or array element."""
    return (downlink_mbps >= RELIABLE_BROADBAND_DOWNLINK_MBPS) & (
        uplink_mbps >= RELIABLE_BROADBAND_UPLINK_MBPS
    )


def _unserved_mask(downlink_mbps, uplink_mbps):
    """The FCC 25/3 'unserved' bar, per scalar or array element."""
    return (downlink_mbps < 25.0) | (uplink_mbps < 3.0)


#: Offer profiles drawn for unserved locations: (tech, dl, ul, weight).
_UNSERVED_OFFERS: Tuple[Tuple[TechnologyCode, float, float, float], ...] = (
    (TechnologyCode.NONE, 0.0, 0.0, 0.45),
    (TechnologyCode.COPPER_DSL, 10.0, 1.0, 0.35),
    (TechnologyCode.GEO_SATELLITE, 20.0, 3.0, 0.20),
)

#: Offer profiles for underserved locations (above 25/3, below 100/20).
_UNDERSERVED_OFFERS: Tuple[Tuple[TechnologyCode, float, float, float], ...] = (
    (TechnologyCode.COPPER_DSL, 50.0, 5.0, 0.40),
    (TechnologyCode.FIXED_WIRELESS_UNLICENSED, 80.0, 10.0, 0.40),
    (TechnologyCode.CABLE, 75.0, 10.0, 0.20),
)


def _offer_columns(
    offers: Tuple[Tuple[TechnologyCode, float, float, float], ...]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Offer profiles as (technology, downlink, uplink, cdf) lookup columns.

    The cdf replicates ``Generator.choice(len(offers), p=weights)``
    internals (cumsum normalized by its last entry, searched with
    ``side="right"``), so drawing via ``cdf.searchsorted(rng.random(n))``
    consumes the same stream and returns the same indices as ``choice`` —
    without per-call weight validation overhead.
    """
    cdf = np.cumsum(np.asarray([w for _, _, _, w in offers], dtype=float))
    cdf /= cdf[-1]
    return (
        np.array([int(t) for t, _, _, _ in offers], dtype=np.int16),
        np.array([dl for _, dl, _, _ in offers], dtype=float),
        np.array([ul for _, _, ul, _ in offers], dtype=float),
        cdf,
    )


_UNSERVED_COLUMNS = _offer_columns(_UNSERVED_OFFERS)
_UNDERSERVED_COLUMNS = _offer_columns(_UNDERSERVED_OFFERS)

#: Validity of every int16 technology code, indexed by the code's uint16
#: view (negative codes land above 32767): a check costs one bool per row.
_VALID_TECHNOLOGY = np.zeros(1 << 16, dtype=bool)
_VALID_TECHNOLOGY[
    np.array([int(t) for t in TechnologyCode], dtype=np.int16).view(np.uint16)
] = True


def _unknown_technology(codes: np.ndarray) -> int:
    """Index of the first invalid code in an int16 array, or -1."""
    valid = _VALID_TECHNOLOGY[codes.view(np.uint16)]
    return -1 if valid.all() else int(np.argmin(valid))


_ROOT3 = float(np.sqrt(3.0))


def _uniform_hexagon_points(
    rng: np.random.Generator, count: int, cx: float, cy: float, size_km: float
) -> np.ndarray:
    """``count`` points uniform in a flat-top hexagon centered at (cx, cy)."""
    points = np.empty((count, 2))
    filled = 0
    apothem = size_km * _ROOT3 / 2.0
    while filled < count:
        need = count - filled
        xs = rng.uniform(-size_km, size_km, size=2 * need + 8)
        ys = rng.uniform(-apothem, apothem, size=2 * need + 8)
        # Flat-top hexagon: flat edges at |y| = apothem, sloped edges run
        # from (s, 0) to (s/2, apothem), i.e. |y| <= sqrt(3) * (s - |x|).
        abs_ys = np.abs(ys)
        inside = (abs_ys <= apothem) & (
            abs_ys <= _ROOT3 * (size_km - np.abs(xs))
        )
        good = np.flatnonzero(inside)[:need]
        points[filled : filled + good.size, 0] = xs[good] + cx
        points[filled : filled + good.size, 1] = ys[good] + cy
        filled += good.size
    return points


_LOCATION_HEADERS = [
    "location_id",
    "lat_deg",
    "lon_deg",
    "cell_token",
    "county_id",
    "technology",
    "max_download_mbps",
    "max_upload_mbps",
]


#: NPZ column names and dtypes, in schema order (mirrors
#: ``_LOCATION_HEADERS``): what a table holds and :meth:`to_npz` writes.
_TABLE_DTYPES = {
    "location_id": np.dtype(np.int64),
    "lat_deg": np.dtype(np.float64),
    "lon_deg": np.dtype(np.float64),
    "cell_key": np.dtype(np.uint64),
    "county_id": np.dtype(np.int64),
    "technology": np.dtype(np.int16),
    "max_download_mbps": np.dtype(np.float64),
    "max_upload_mbps": np.dtype(np.float64),
}
_TABLE_COLUMNS = tuple(_TABLE_DTYPES)

#: Rows per :func:`bin_table` chunk: its mask, key and run temporaries
#: stay ~1 MB each instead of growing with the table.
_BIN_CHUNK_ROWS = 131_072


@dataclass(eq=False)
class LocationTable:
    """Structure-of-arrays over broadband serviceable locations.

    One NumPy column per field of the CSV schema (:data:`_TABLE_DTYPES`);
    cells are the packed uint64 keys of
    :attr:`~repro.geo.hexgrid.CellId.key`.
    """

    location_id: np.ndarray
    lat_deg: np.ndarray
    lon_deg: np.ndarray
    cell_key: np.ndarray
    county_id: np.ndarray
    technology: np.ndarray
    max_download_mbps: np.ndarray
    max_upload_mbps: np.ndarray

    def __post_init__(self) -> None:
        for name, dtype in _TABLE_DTYPES.items():
            setattr(self, name, np.asarray(self._column(name), dtype=dtype))
        lengths = {len(self._column(name)) for name in _TABLE_COLUMNS}
        if len(lengths) > 1:
            raise DatasetError(
                f"location table columns have unequal lengths: {sorted(lengths)}"
            )
        if len(self) and (
            (self.max_download_mbps < 0.0).any()
            or (self.max_upload_mbps < 0.0).any()
        ):
            negative = np.flatnonzero(
                (self.max_download_mbps < 0.0) | (self.max_upload_mbps < 0.0)
            )[0]
            raise DatasetError(
                f"location {int(self.location_id[negative])}: negative speeds"
            )
        unknown = _unknown_technology(self.technology)
        if unknown >= 0:
            bad = int(self.technology[unknown])
            raise DatasetError(f"unknown technology code {bad!r}")

    def _column(self, name: str) -> np.ndarray:
        return getattr(self, name)

    def __len__(self) -> int:
        return len(self.location_id)

    # -- masks --------------------------------------------------------------

    def is_served(self) -> np.ndarray:
        """Per row: the best offer meets the 100/20 reliable-broadband bar."""
        return _served_mask(self.max_download_mbps, self.max_upload_mbps)

    def is_unserved(self) -> np.ndarray:
        """Per row: no offer, or one below 25/3 (the FCC 'unserved' bar)."""
        return _unserved_mask(self.max_download_mbps, self.max_upload_mbps)

    def equals(self, other: "LocationTable") -> bool:
        """Exact column-wise equality with another table."""
        return all(
            np.array_equal(self._column(name), other._column(name))
            for name in _TABLE_COLUMNS
        )

    # -- resource management -------------------------------------------------

    def close(self) -> None:
        """Release memory-mapped column file handles, if any.

        Tables loaded with ``from_npz(..., mmap_mode="r")`` keep the NPZ
        file open through each column's underlying :class:`mmap.mmap`;
        long-lived processes (the serving layer) must release them on
        shutdown or the table file stays pinned until process exit. All
        columns are replaced with empty arrays first, so later access
        *through the table* fails loudly on a length check. Views a
        caller copied out beforehand do not keep the mapping alive —
        NumPy memmap arrays hold no buffer export on the mmap, so the
        pages really are unmapped; don't read such views after close.
        That includes a :class:`~repro.serve.shards.ShardStore` (and so
        any serving index) built over the table: it adopts sorted
        columns as views, so close the table only once nothing queries
        the index any more. Idempotent; a no-op for in-memory tables.
        """
        mmaps = []
        for name in _TABLE_COLUMNS:
            column = self._column(name)
            # __post_init__'s asarray wraps each memmap in a plain
            # ndarray view, so the mapping hides behind .base.
            node, buffer = column, None
            while node is not None and buffer is None:
                buffer = getattr(node, "_mmap", None)
                node = getattr(node, "base", None)
            if buffer is not None and not any(
                buffer is seen for seen in mmaps
            ):
                mmaps.append(buffer)
            setattr(self, name, np.empty(0, dtype=column.dtype))
            # Drop the loop's own references so the mapping's buffer
            # export count reaches zero before the close below.
            del column, node
        for buffer in mmaps:
            try:
                buffer.close()
            except BufferError:
                # Something exported the mmap's buffer directly (a
                # caller-made memoryview); the mapping is freed when
                # that export is released instead.
                pass

    def __enter__(self) -> "LocationTable":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- NPZ persistence -----------------------------------------------------

    def to_npz(self, path: Union[str, Path]) -> Path:
        """Persist all columns to an uncompressed ``.npz`` archive."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        with obs.span("locations.npz.write", rows=len(self)):
            np.savez(
                target,
                **{name: self._column(name) for name in _TABLE_COLUMNS},
            )
        # np.savez appends .npz when the name lacks it; report the real path.
        return target if target.suffix == ".npz" else Path(f"{target}.npz")

    @classmethod
    def from_npz(
        cls, path: Union[str, Path], mmap_mode: Optional[str] = None
    ) -> "LocationTable":
        """Load a table written by :meth:`to_npz`.

        With ``mmap_mode`` (``"r"`` is the only supported mode) the
        columns are memory-mapped straight out of the uncompressed NPZ
        archive instead of being read into RAM: ``np.savez`` stores each
        column as a contiguous ``ZIP_STORED`` ``.npy`` member, so every
        column becomes a read-only :class:`numpy.memmap` window onto the
        file. A national 4.66 M-location table opens in milliseconds and
        pages in lazily — this is what lets the serving layer
        (:mod:`repro.serve`) hold the full table "in memory" without
        paying for it up front. Zero-length columns (an empty table)
        cannot be mmapped and fall back to ordinary empty arrays.
        Compressed archives (``np.savez_compressed``) load eagerly only.

        Both paths raise :class:`DatasetError` for a file that is not an
        NPZ archive and for a column stored as anything but the flat
        array of the dtype :meth:`to_npz` writes: a mistyped column is
        refused, never cast, so a mapped column is used as stored.
        """
        file_path = Path(path)
        if not file_path.exists():
            raise DatasetError(f"no such file: {file_path}")
        if mmap_mode is not None:
            if mmap_mode != "r":
                raise DatasetError(
                    f"unsupported mmap mode {mmap_mode!r} (only 'r')"
                )
            with obs.span("locations.npz.mmap"):
                return cls(**_mmap_npz_columns(file_path))
        with obs.span("locations.npz.read"):
            return cls(**_read_npz_columns(file_path))


def _check_npz_column(
    file_path: Path, name: str, dtype: np.dtype, shape: Tuple[int, ...]
) -> None:
    """Refuse a stored column that :meth:`LocationTable.to_npz` would not
    have written: another dtype (or byte order), or not one-dimensional."""
    expected = _TABLE_DTYPES[name]
    if dtype != expected:
        raise DatasetError(
            f"{file_path}: column {name!r} is stored as {dtype}, "
            f"expected {expected}"
        )
    if len(shape) != 1:
        raise DatasetError(f"{file_path}: column {name!r} is not flat")


def _read_npz_columns(file_path: Path) -> Dict[str, np.ndarray]:
    """Read every table column of an NPZ archive into memory."""
    import zipfile
    import zlib

    unreadable = (
        OSError,
        ValueError,
        EOFError,
        zipfile.BadZipFile,
        zlib.error,
    )
    try:
        archive = np.load(file_path, allow_pickle=False)
    except unreadable as exc:
        raise DatasetError(f"{file_path}: not an NPZ archive") from exc
    if not isinstance(archive, np.lib.npyio.NpzFile):
        raise DatasetError(f"{file_path}: not an NPZ archive")
    with archive:
        missing = [
            name for name in _TABLE_COLUMNS if name not in archive.files
        ]
        if missing:
            raise DatasetError(
                f"{file_path}: missing location table columns {missing}"
            )
        columns: Dict[str, np.ndarray] = {}
        for name in _TABLE_COLUMNS:
            try:
                column = archive[name]
            except unreadable as exc:
                raise DatasetError(
                    f"{file_path}: column {name!r} is unreadable"
                ) from exc
            _check_npz_column(file_path, name, column.dtype, column.shape)
            columns[name] = column
    return columns


def _mmap_npz_columns(file_path: Path) -> Dict[str, np.ndarray]:
    """Memory-map every table column out of an uncompressed NPZ archive.

    ``np.load`` ignores ``mmap_mode`` for ``.npz`` files, so this walks
    the zip directory by hand: each member ``np.savez`` wrote is a
    ``ZIP_STORED`` (uncompressed) ``.npy`` file at a known offset, whose
    array payload can be mapped directly with :class:`numpy.memmap`.
    Zero-length columns fall back to ordinary empty arrays (an empty
    file region cannot be mmapped).
    """
    import zipfile

    columns: Dict[str, np.ndarray] = {}
    try:
        archive = zipfile.ZipFile(file_path)
    except zipfile.BadZipFile as exc:
        raise DatasetError(f"{file_path}: not an NPZ archive") from exc
    with archive:
        members = {name: f"{name}.npy" for name in _TABLE_COLUMNS}
        missing = [
            name
            for name, member in members.items()
            if member not in archive.namelist()
        ]
        if missing:
            raise DatasetError(
                f"{file_path}: missing location table columns {missing}"
            )
        with file_path.open("rb") as handle:
            for name, member in members.items():
                info = archive.getinfo(member)
                if info.compress_type != zipfile.ZIP_STORED:
                    raise DatasetError(
                        f"{file_path}: column {name!r} is compressed; "
                        "only uncompressed archives (np.savez) can be "
                        "memory-mapped"
                    )
                # Local file header: 30 fixed bytes, then the file name
                # and the extra field, then the stored .npy payload.
                handle.seek(info.header_offset)
                local_header = handle.read(30)
                if local_header[:4] != b"PK\x03\x04":
                    raise DatasetError(
                        f"{file_path}: corrupt zip member {member!r}"
                    )
                name_len = int.from_bytes(local_header[26:28], "little")
                extra_len = int.from_bytes(local_header[28:30], "little")
                handle.seek(info.header_offset + 30 + name_len + extra_len)
                version = np.lib.format.read_magic(handle)
                if version == (1, 0):
                    header = np.lib.format.read_array_header_1_0(handle)
                elif version == (2, 0):
                    header = np.lib.format.read_array_header_2_0(handle)
                else:
                    raise DatasetError(
                        f"{file_path}: column {name!r} uses unsupported "
                        f"npy format version {version}"
                    )
                shape, fortran_order, dtype = header
                _check_npz_column(file_path, name, dtype, shape)
                if fortran_order:
                    raise DatasetError(
                        f"{file_path}: column {name!r} is not a flat "
                        "C-ordered array"
                    )
                if shape[0] == 0:
                    columns[name] = np.empty(shape, dtype=dtype)
                else:
                    columns[name] = np.memmap(
                        file_path,
                        dtype=dtype,
                        mode="r",
                        offset=handle.tell(),
                        shape=shape,
                    )
    return columns


def explode_cells_table(
    dataset: DemandDataset, seed: int = 0
) -> LocationTable:
    """Scatter each cell's counts into one table of location rows.

    Points are placed uniformly inside each cell's hexagon in the
    projected plane (so uniformly by area on the sphere); offers are drawn
    from BDC-like profiles. Deterministic in ``seed``. The fused
    batched-RNG kernel in :mod:`repro.demand.fused` draws the raw doubles
    for thousands of (cell, class) groups per call instead of three tiny
    ``Generator`` dispatches per group, yet replays the same stream: the
    table is bit-identical to the record-at-a-time and per-group loops in
    ``tests/oracles/explode.py``, the differential references. Positions
    are unprojected chunk by chunk, so the pass allocates the table plus
    a few MB.
    """
    from repro.demand.fused import fused_explode_columns

    if seed < 0:
        raise DatasetError(f"explode seed must be non-negative: {seed!r}")
    span = obs.span(
        "locations.explode", cells=dataset.n_cells, seed=seed
    )
    with span:
        return fused_explode_columns(dataset, seed, span)


def bin_table(
    table: LocationTable, resolution: int
) -> Dict[CellId, Tuple[int, int]]:
    """Aggregate rows into (unserved, underserved) counts per cell.

    Cells are re-derived from each row's position on a grid of the given
    resolution; 'unserved' follows the FCC 25/3 bar, locations at or
    above 100/20 are dropped (served). The counts equal the
    record-at-a-time ``bin_locations`` in ``tests/oracles/explode.py``.

    Walks the table in fixed row chunks. Per chunk it drops served rows,
    re-derives cells from positions with
    :meth:`~repro.geo.hexgrid.HexGrid.cell_for_many` (bit-identical to
    the scalar ``cell_for``), and compresses runs of equal keys
    (:func:`~repro.demand.fused.key_runs`). The runs of every chunk are
    merged once (:func:`~repro.demand.fused.merge_runs`), so the unique
    sort touches one entry per run — for exploded tables (grouped by
    cell) about the cell count — and no temporary grows with the table.
    """
    from repro.demand.fused import key_runs, merge_runs

    with obs.span("locations.bin", rows=len(table)) as span:
        grid = HexGrid(resolution)
        runs = []
        for start in range(0, len(table), _BIN_CHUNK_ROWS):
            rows = slice(start, start + _BIN_CHUNK_ROWS)
            downlink = table.max_download_mbps[rows]
            uplink = table.max_upload_mbps[rows]
            keep = ~_served_mask(downlink, uplink)
            keys = grid.cell_for_many(
                table.lat_deg[rows][keep], table.lon_deg[rows][keep]
            )
            unserved = _unserved_mask(downlink[keep], uplink[keep])
            runs.append(key_runs(keys, unserved))
        unique_keys, unserved_counts, underserved_counts = merge_runs(runs)
        span.set(cells_out=len(unique_keys))
        registry = obs.registry()
        registry.counter("locations.bin.rows").inc(len(table))
        registry.counter("locations.bin.cells_out").inc(len(unique_keys))
        return {
            CellId.from_key(int(key)): (int(u), int(d))
            for key, u, d in zip(
                unique_keys, unserved_counts, underserved_counts
            )
        }


def write_table_csv(
    table: LocationTable,
    path: Union[str, Path],
    chunk_size: int = 200_000,
) -> Path:
    """Write a table in the BDC-like CSV schema, in chunks.

    Streams ``chunk_size`` rows at a time (bounded memory at national
    scale) and formats from columns — no intermediate record objects.
    Coordinates are written to 6 decimals and speeds to 1.
    """
    if chunk_size <= 0:
        raise DatasetError(f"chunk size must be positive: {chunk_size!r}")
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with obs.span("locations.csv.write", rows=len(table)):
        obs.registry().counter("locations.csv.rows_written").inc(len(table))
        _write_table_csv_body(table, target, chunk_size)
    return target


def _write_table_csv_body(
    table: LocationTable, target: Path, chunk_size: int
) -> None:
    """The :func:`write_table_csv` body, under its telemetry span."""
    unique_keys, inverse = np.unique(table.cell_key, return_inverse=True)
    tokens = np.array([f"{int(key):015x}" for key in unique_keys])
    with target.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_LOCATION_HEADERS)
        for start in range(0, len(table), chunk_size):
            stop = start + chunk_size
            rows = zip(
                table.location_id[start:stop].tolist(),
                table.lat_deg[start:stop].tolist(),
                table.lon_deg[start:stop].tolist(),
                tokens[inverse[start:stop]].tolist(),
                table.county_id[start:stop].tolist(),
                table.technology[start:stop].tolist(),
                table.max_download_mbps[start:stop].tolist(),
                table.max_upload_mbps[start:stop].tolist(),
            )
            writer.writerows(
                (
                    location_id,
                    "%.6f" % lat,
                    "%.6f" % lon,
                    token,
                    county_id,
                    technology,
                    "%.1f" % downlink,
                    "%.1f" % uplink,
                )
                for (
                    location_id,
                    lat,
                    lon,
                    token,
                    county_id,
                    technology,
                    downlink,
                    uplink,
                ) in rows
            )


def _csv_chunks(
    reader, chunk_size: int, file_path: Path
) -> Iterator[Tuple[List[List[str]], List[int]]]:
    """Yield ``(rows, line numbers)`` in lists of at most ``chunk_size``.

    Every row must have exactly the header's fields: a short, truncated
    or overlong row is a :class:`DatasetError` naming its line.
    """
    width = len(_LOCATION_HEADERS)
    chunk: List[List[str]] = []
    lines: List[int] = []
    for row in reader:
        if len(row) != width:
            raise DatasetError(
                f"{file_path}: line {reader.line_num}: expected {width} "
                f"fields, got {len(row)}"
            )
        chunk.append(row)
        lines.append(reader.line_num)
        if len(chunk) == chunk_size:
            yield chunk, lines
            chunk, lines = [], []
    if chunk:
        yield chunk, lines


def _first_unparsable(values: Tuple[str, ...], parse) -> int:
    """Index of the first value ``parse`` refuses (a column failed)."""
    for index, value in enumerate(values):
        try:
            parse((value,))
        except (ValueError, OverflowError):
            return index
    raise AssertionError("column failed to parse, but every value parses")


def _cell_keys(tokens: Tuple[str, ...]) -> np.ndarray:
    """Packed cell keys of hex tokens, each distinct token parsed once."""
    unique, inverse = np.unique(tokens, return_inverse=True)
    keys = np.array([int(token, 16) for token in unique], dtype=np.uint64)
    return keys[inverse]


#: Finite range of each checked CSV column; NaN fails every comparison,
#: so a range test refuses it too.
_CSV_RANGES = {
    "lat_deg": (-90.0, 90.0),
    "lon_deg": (-180.0, 180.0),
    "max_download_mbps": (0.0, np.inf),
    "max_upload_mbps": (0.0, np.inf),
}


def _parse_csv_chunk(
    chunk: List[List[str]], lines: List[int], file_path: Path
) -> Tuple[np.ndarray, ...]:
    """One chunk of CSV rows as table columns, in schema order.

    A field that does not parse as its column's dtype, a value outside
    its column's finite range and an unknown technology code are each a
    :class:`DatasetError` naming the line of the first such row.
    """

    def refuse(row: int, message: str) -> DatasetError:
        return DatasetError(f"{file_path}: line {lines[row]}: {message}")

    raw = dict(zip(_TABLE_COLUMNS, zip(*chunk)))
    columns: Dict[str, np.ndarray] = {}
    for name, dtype in _TABLE_DTYPES.items():
        values = raw[name]
        if name == "cell_key":
            parse = _cell_keys
        else:
            parse = functools.partial(np.array, dtype=dtype)
        try:
            columns[name] = parse(values)
        except (ValueError, OverflowError):
            row = _first_unparsable(values, parse)
            if name == "cell_key":
                message = f"malformed cell token {values[row]!r}"
            else:
                message = f"{name} {values[row]!r} is not a {dtype} value"
            raise refuse(row, message) from None
    for name, (low, high) in _CSV_RANGES.items():
        values = columns[name]
        bad = ~((values >= low) & (values <= high) & np.isfinite(values))
        if bad.any():
            row = int(np.argmax(bad))
            raise refuse(
                row, f"{name} {raw[name][row]!r} is not finite in "
                f"[{low:g}, {high:g}]"
            )
    unknown = _unknown_technology(columns["technology"])
    if unknown >= 0:
        raise refuse(
            unknown,
            f"location {raw['location_id'][unknown]}: unknown technology "
            f"code {raw['technology'][unknown]!r}",
        )
    return tuple(columns[name] for name in _TABLE_COLUMNS)


def read_table_csv(
    path: Union[str, Path], chunk_size: int = 500_000
) -> LocationTable:
    """Chunked CSV reader for the BDC-like schema, returning a table.

    Accepts exactly the files :func:`write_table_csv` produces; parses
    ``chunk_size`` rows at a time into columns so the peak overhead is
    one chunk of strings, not a full record list. Anything else is a :class:`DatasetError` naming the file
    (and the line, for a bad row): headers other than the schema's, a row
    without exactly its eight fields, a field that does not parse, a
    latitude outside [-90, 90] or longitude outside [-180, 180] (NaN and
    infinity included), a speed that is not finite and >= 0, and an
    unknown technology code.
    """
    if chunk_size <= 0:
        raise DatasetError(f"chunk size must be positive: {chunk_size!r}")
    file_path = Path(path)
    if not file_path.exists():
        raise DatasetError(f"no such file: {file_path}")
    with obs.span("locations.csv.read") as span:
        table = _read_table_csv_body(file_path, chunk_size)
        span.set(rows=len(table))
        obs.registry().counter("locations.csv.rows_read").inc(len(table))
        return table


def _read_table_csv_body(file_path: Path, chunk_size: int) -> LocationTable:
    """The :func:`read_table_csv` body, under its telemetry span."""
    parts: List[Tuple[np.ndarray, ...]] = []
    with file_path.open(newline="") as handle:
        reader = csv.reader(handle)
        headers = next(reader, None)
        if headers != _LOCATION_HEADERS:
            raise DatasetError(
                f"{file_path}: unexpected headers {headers}"
            )
        for chunk, lines in _csv_chunks(reader, chunk_size, file_path):
            parts.append(_parse_csv_chunk(chunk, lines, file_path))
    if not parts:
        empty = np.zeros(0)
        return LocationTable(empty, empty, empty, empty, empty, empty, empty, empty)
    return LocationTable(
        *(np.concatenate(column) for column in zip(*parts))
    )
