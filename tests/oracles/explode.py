"""Reference explode and bin: the record-at-a-time and per-group paths.

Three straightforward versions of what :mod:`repro.demand.fused` and
:func:`~repro.demand.locations.bin_table` compute in batches:

* :func:`explode_cells` builds one frozen
  :class:`~repro.demand.locations.LocationRecord` per location, drawing
  offers with ``Generator.choice`` and unprojecting point by point;
* :func:`reference_explode_table` is the per-group loop: for each dataset
  cell it draws the unserved group's points and offers, then the
  underserved group's, straight from the generator, and unprojects every
  position at the end. At national scale that is ~290 k tiny RNG calls,
  but each step is easy to check by eye;
* :func:`bin_locations` re-derives each record's cell with the scalar
  ``HexGrid.cell_for`` and counts unserved and underserved locations.

Both explode paths replay the RNG stream of
:func:`~repro.demand.locations.explode_cells_table`, so all three must
agree bit for bit, and :func:`~repro.demand.locations.bin_table` must
equal :func:`bin_locations` count for count.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.demand.dataset import DemandDataset
from repro.demand.locations import (
    _UNDERSERVED_COLUMNS,
    _UNDERSERVED_OFFERS,
    _UNSERVED_COLUMNS,
    _UNSERVED_OFFERS,
    LocationRecord,
    LocationTable,
    _uniform_hexagon_points,
)
from repro.geo.hexgrid import CellId, HexGrid
from repro.geo.projection import EqualAreaProjection


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
