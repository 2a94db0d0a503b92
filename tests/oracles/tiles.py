"""Reference tile aggregates: one scan of every cell per tile.

The straightforward rollup the tile layout replaced. Every call maps the
cells to tiles again, takes each tile's maximum required
oversubscription through an ``inverse == t`` mask over all cells, and
builds each tile's polygon vertex by vertex with the scalar
:meth:`HexGrid.cell_polygon`. That is O(cells x tiles) per call, but
each step is easy to check by eye.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.errors import ServeError
from repro.geo.hexgrid import CellId, HexGrid
from repro.serve.index import ServeIndex
from repro.serve.tiles import DEFAULT_TILE_RESOLUTION
from repro.viz.geojson import _collection, _feature


def reference_tile_aggregates(
    index: ServeIndex, tile_resolution: int = DEFAULT_TILE_RESOLUTION
) -> List[Dict]:
    """Per-tile aggregate rows, sorted by tile token."""
    if tile_resolution >= index.grid_resolution:
        raise ServeError(
            f"tile resolution {tile_resolution} must be coarser than the "
            f"grid resolution {index.grid_resolution}"
        )
    fine = HexGrid(index.grid_resolution)
    coarse = HexGrid(tile_resolution)
    if index.n_cells == 0:
        return []
    lat, lon = fine.centers_many(index.store.unique_keys)
    tile_keys = coarse.cell_for_many(lat, lon)
    unique_tiles, inverse = np.unique(tile_keys, return_inverse=True)
    n_tiles = len(unique_tiles)
    locations = np.bincount(
        inverse, weights=index.cell_counts, minlength=n_tiles
    ).astype(np.int64)
    served = np.bincount(
        inverse, weights=index.served_count, minlength=n_tiles
    ).astype(np.int64)
    cells = np.bincount(inverse, minlength=n_tiles)
    fully = np.bincount(
        inverse, weights=index.fully_served, minlength=n_tiles
    ).astype(np.int64)
    rows = []
    for t in range(n_tiles):
        in_tile = inverse == t
        rows.append(
            {
                "tile": f"{int(unique_tiles[t]):015x}",
                "cells": int(cells[t]),
                "cells_fully_served": int(fully[t]),
                "locations": int(locations[t]),
                "locations_served": int(served[t]),
                "served_fraction": (
                    int(served[t]) / int(locations[t])
                    if locations[t]
                    else 1.0
                ),
                "max_required_oversubscription": float(
                    index.required_oversub[in_tile].max()
                ),
            }
        )
    return rows


def reference_tiles_to_geojson(
    index: ServeIndex, tile_resolution: int = DEFAULT_TILE_RESOLUTION
) -> Dict:
    """Reference aggregates as a FeatureCollection of scalar polygons."""
    coarse = HexGrid(tile_resolution)
    features = []
    for row in reference_tile_aggregates(index, tile_resolution):
        cell = CellId.from_token(row["tile"])
        ring = [
            [vertex.lon_deg, vertex.lat_deg]
            for vertex in coarse.cell_polygon(cell)
        ]
        ring.append(ring[0])  # close the ring per the GeoJSON spec
        properties = dict(row)
        properties["epoch"] = index.epoch
        properties["scenario_id"] = index.scenario_id
        features.append(
            _feature({"type": "Polygon", "coordinates": [ring]}, properties)
        )
    return _collection(features)
