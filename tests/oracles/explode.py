"""Reference locations: one record per location, explode, bin and CSV.

Straightforward versions of what :mod:`repro.demand.fused` and
:mod:`repro.demand.locations` compute in columns and batches:

* :class:`LocationRecord` is one location as a frozen object, and
  :func:`table_from_records` / :func:`table_to_records` convert record
  lists to and from a :class:`~repro.demand.locations.LocationTable`;
* :func:`explode_cells` builds one record per location, drawing offers
  with ``Generator.choice`` and unprojecting point by point;
* :func:`reference_explode_table` is the per-group loop: for each dataset
  cell it draws the unserved group's points and offers, then the
  underserved group's, straight from the generator, and unprojects every
  position at the end. At national scale that is ~290 k tiny RNG calls,
  but each step is easy to check by eye;
* :func:`bin_locations` re-derives each record's cell with the scalar
  ``HexGrid.cell_for`` and counts unserved and underserved locations;
* :func:`write_locations_csv` / :func:`read_locations_csv` write and read
  the BDC-like CSV schema one record per row.

Both explode paths replay the RNG stream of
:func:`~repro.demand.locations.explode_cells_table`, so all three must
agree bit for bit, :func:`~repro.demand.locations.bin_table` must equal
:func:`bin_locations` count for count, and
:func:`~repro.demand.locations.write_table_csv` must write the same bytes
as :func:`write_locations_csv`.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Tuple, Union

import numpy as np

from repro.demand.dataset import DemandDataset
from repro.demand.locations import (
    _LOCATION_HEADERS,
    _UNDERSERVED_COLUMNS,
    _UNDERSERVED_OFFERS,
    _UNSERVED_COLUMNS,
    _UNSERVED_OFFERS,
    LocationTable,
    TechnologyCode,
    _uniform_hexagon_points,
    _unserved_mask,
)
from repro.geo.coords import LatLon
from repro.geo.hexgrid import CellId, HexGrid
from repro.geo.projection import EqualAreaProjection
from repro.spectrum.regulatory import is_reliable_broadband


@dataclass(frozen=True)
class LocationRecord:
    """One broadband serviceable location with its best reported offer."""

    location_id: int
    position: LatLon
    cell: CellId
    county_id: int
    technology: TechnologyCode
    max_download_mbps: float
    max_upload_mbps: float

    @property
    def is_served(self) -> bool:
        """Whether the best offer meets the reliable-broadband bar."""
        return is_reliable_broadband(self.max_download_mbps, self.max_upload_mbps)

    @property
    def is_unserved(self) -> bool:
        """No offer at all, or one below 25/3 (the FCC 'unserved' bar)."""
        return bool(
            _unserved_mask(self.max_download_mbps, self.max_upload_mbps)
        )


def table_from_records(records: Iterable[LocationRecord]) -> LocationTable:
    """Columnarize a record list (lossless)."""
    records = list(records)
    return LocationTable(
        location_id=np.array([r.location_id for r in records], dtype=np.int64),
        lat_deg=np.array([r.position.lat_deg for r in records], dtype=float),
        lon_deg=np.array([r.position.lon_deg for r in records], dtype=float),
        cell_key=np.array([r.cell.key for r in records], dtype=np.uint64),
        county_id=np.array([r.county_id for r in records], dtype=np.int64),
        technology=np.array(
            [int(r.technology) for r in records], dtype=np.int16
        ),
        max_download_mbps=np.array(
            [r.max_download_mbps for r in records], dtype=float
        ),
        max_upload_mbps=np.array(
            [r.max_upload_mbps for r in records], dtype=float
        ),
    )


def table_to_records(table: LocationTable) -> List[LocationRecord]:
    """Materialize one :class:`LocationRecord` per row (lossless)."""
    cells: Dict[int, CellId] = {}
    records = []
    for i in range(len(table)):
        key = int(table.cell_key[i])
        cell = cells.get(key)
        if cell is None:
            cell = cells[key] = CellId.from_key(key)
        records.append(
            LocationRecord(
                location_id=int(table.location_id[i]),
                position=LatLon(
                    float(table.lat_deg[i]), float(table.lon_deg[i])
                ),
                cell=cell,
                county_id=int(table.county_id[i]),
                technology=TechnologyCode(int(table.technology[i])),
                max_download_mbps=float(table.max_download_mbps[i]),
                max_upload_mbps=float(table.max_upload_mbps[i]),
            )
        )
    return records


def write_locations_csv(
    records: Iterable[LocationRecord], path: Union[str, Path]
) -> Path:
    """Write records in the BDC-like CSV schema, one row at a time."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_LOCATION_HEADERS)
        for record in records:
            writer.writerow(
                [
                    record.location_id,
                    f"{record.position.lat_deg:.6f}",
                    f"{record.position.lon_deg:.6f}",
                    record.cell.token,
                    record.county_id,
                    int(record.technology),
                    f"{record.max_download_mbps:.1f}",
                    f"{record.max_upload_mbps:.1f}",
                ]
            )
    return target


def read_locations_csv(path: Union[str, Path]) -> List[LocationRecord]:
    """Read records written by :func:`write_locations_csv`."""
    with Path(path).open(newline="") as handle:
        return [
            LocationRecord(
                location_id=int(row["location_id"]),
                position=LatLon(float(row["lat_deg"]), float(row["lon_deg"])),
                cell=CellId.from_token(row["cell_token"]),
                county_id=int(row["county_id"]),
                technology=TechnologyCode(int(row["technology"])),
                max_download_mbps=float(row["max_download_mbps"]),
                max_upload_mbps=float(row["max_upload_mbps"]),
            )
            for row in csv.DictReader(handle)
        ]


def explode_cells(
    dataset: DemandDataset, seed: int = 0
) -> List[LocationRecord]:
    """Scatter each cell's counts into individual location records.

    Points are placed uniformly inside each cell's hexagon in the
    projected plane (so uniformly by area on the sphere); offers are drawn
    from BDC-like profiles. Deterministic in ``seed``.
    """
    rng = np.random.default_rng(seed)
    grid = HexGrid(dataset.grid_resolution)
    projection = EqualAreaProjection()
    records: List[LocationRecord] = []
    location_id = 0
    for cell in dataset.cells:
        cx, cy = projection.forward(grid.center(cell.cell))
        for count, offers in (
            (cell.unserved_locations, _UNSERVED_OFFERS),
            (cell.underserved_locations, _UNDERSERVED_OFFERS),
        ):
            if count == 0:
                continue
            points = _uniform_hexagon_points(
                rng, count, cx, cy, grid.hex_size_km
            )
            choices = rng.choice(
                len(offers), size=count, p=[w for _, _, _, w in offers]
            )
            for (px, py), choice in zip(points, choices):
                technology, downlink, uplink, _ = offers[int(choice)]
                records.append(
                    LocationRecord(
                        location_id=location_id,
                        position=projection.inverse(px, py),
                        cell=cell.cell,
                        county_id=cell.county_id,
                        technology=technology,
                        max_download_mbps=downlink,
                        max_upload_mbps=uplink,
                    )
                )
                location_id += 1
    return records


def bin_locations(
    records: Iterable[LocationRecord], resolution: int
) -> Dict[CellId, Tuple[int, int]]:
    """Aggregate records into (unserved, underserved) counts per cell.

    Cells are re-derived from each record's position on a grid of the
    given resolution; 'unserved' follows the FCC 25/3 bar, locations at or
    above 100/20 are dropped (served).
    """
    grid = HexGrid(resolution)
    counts: Dict[CellId, List[int]] = {}
    for record in records:
        if record.is_served:
            continue
        cell = grid.cell_for(record.position)
        bucket = counts.setdefault(cell, [0, 0])
        if record.is_unserved:
            bucket[0] += 1
        else:
            bucket[1] += 1
    return {cell: (u, d) for cell, (u, d) in counts.items()}


def reference_explode_table(
    dataset: DemandDataset, seed: int
) -> LocationTable:
    """Per-group loop equal to :func:`explode_cells_table` bit for bit."""
    rng = np.random.default_rng(seed)
    grid = HexGrid(dataset.grid_resolution)
    projection = EqualAreaProjection()
    size_km = grid.hex_size_km
    cell_keys = np.array([c.cell.key for c in dataset.cells], dtype=np.uint64)
    center_lat, center_lon = grid.centers_many(cell_keys)
    center_x, center_y = projection.forward_many(center_lat, center_lon)
    total = sum(
        c.unserved_locations + c.underserved_locations for c in dataset.cells
    )
    x = np.empty(total)
    y = np.empty(total)
    keys = np.empty(total, dtype=np.uint64)
    counties = np.empty(total, dtype=np.int64)
    technology = np.empty(total, dtype=np.int16)
    downlink = np.empty(total)
    uplink = np.empty(total)
    offset = 0
    for index, cell in enumerate(dataset.cells):
        cx = center_x[index]
        cy = center_y[index]
        for count, (tech_col, dl_col, ul_col, cdf) in (
            (cell.unserved_locations, _UNSERVED_COLUMNS),
            (cell.underserved_locations, _UNDERSERVED_COLUMNS),
        ):
            if count == 0:
                continue
            points = _uniform_hexagon_points(rng, count, cx, cy, size_km)
            choices = cdf.searchsorted(rng.random(count), side="right")
            rows = slice(offset, offset + count)
            x[rows] = points[:, 0]
            y[rows] = points[:, 1]
            keys[rows] = cell_keys[index]
            counties[rows] = cell.county_id
            technology[rows] = tech_col[choices]
            downlink[rows] = dl_col[choices]
            uplink[rows] = ul_col[choices]
            offset += count
    lat, lon = projection.inverse_many(x, y)
    return LocationTable(
        location_id=np.arange(total, dtype=np.int64),
        lat_deg=lat,
        lon_deg=lon,
        cell_key=keys,
        county_id=counties,
        technology=technology,
        max_download_mbps=downlink,
        max_upload_mbps=uplink,
    )
