"""Reference explode: one RNG dispatch per (cell, service class) group.

The straightforward loop the fused kernel (:mod:`repro.demand.fused`)
replays in batches. For each dataset cell it draws the unserved group's
points and offers, then the underserved group's, straight from the
generator, and unprojects every position at the end. At national scale
that is ~290 k tiny RNG calls, but each step is easy to check by eye.
"""

from __future__ import annotations

import numpy as np

from repro.demand.dataset import DemandDataset
from repro.demand.locations import (
    _UNDERSERVED_COLUMNS,
    _UNSERVED_COLUMNS,
    LocationTable,
    _uniform_hexagon_points,
)
from repro.geo.hexgrid import HexGrid
from repro.geo.projection import EqualAreaProjection


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
