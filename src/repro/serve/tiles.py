"""Choropleth tile aggregates: serving answers rolled up to coarse hexes.

A frontend map cannot draw 145k resolution-6 cells per viewport; it
wants a few hundred coarser tiles with served fractions. Tiles are the
cells of a coarser :class:`HexGrid` resolution; each fine cell is
assigned to the tile containing its center, and the per-cell arrays of
a :class:`~repro.serve.index.ServeIndex` are summed per tile — so tile
numbers are exact aggregates of batch-pipeline answers, not estimates.

Which cell lands in which tile, and each tile's polygon, depend on the
cells alone. A :class:`TileLayout` holds that part of the answer. It is
built on first use, once per (:class:`~repro.serve.shards.ShardStore`,
tile resolution), and shared by every epoch, so a call makes one
O(cells) pass over the scenario arrays and rebuilds no geometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro import obs
from repro.errors import ServeError
from repro.geo.hexgrid import HexGrid
from repro.serve.index import ServeIndex
from repro.serve.shards import ShardStore
from repro.viz.geojson import _collection, _feature

#: Resolution-3 tiles are ~12.4x the area of the resolution-5 service
#: cells — the national map lands on 724 tiles at grid resolution 5 and
#: 734 at resolution 6.
DEFAULT_TILE_RESOLUTION = 3


@dataclass(frozen=True, eq=False)
class TileLayout:
    """The scenario-independent part of one resolution's tiles answer.

    Tiles are in ascending key order. Every array and ring is shared by
    the answers of every epoch and must be treated as read-only.
    """

    #: Tile index of each store cell.
    inverse: np.ndarray
    #: Store cells ordered by tile (stable, so ascending within a tile).
    order: np.ndarray
    #: Each tile's first position in :attr:`order`.
    starts: np.ndarray
    tokens: List[str]
    cells: List[int]
    #: Each tile's closed GeoJSON ring of ``[lon, lat]`` vertices.
    rings: List[List[List[float]]]

    @classmethod
    def build(
        cls, store: ShardStore, grid_resolution: int, tile_resolution: int
    ) -> "TileLayout":
        """Assign each store cell to the tile holding its center."""
        lat, lon = HexGrid(grid_resolution).centers_many(store.unique_keys)
        coarse = HexGrid(tile_resolution)
        tile_keys, inverse = np.unique(
            coarse.cell_for_many(lat, lon), return_inverse=True
        )
        cells = np.bincount(inverse, minlength=len(tile_keys))
        lat, lon = coarse.polygons_many(tile_keys)
        rings = []
        for lat_row, lon_row in zip(lat.tolist(), lon.tolist()):
            ring = [list(vertex) for vertex in zip(lon_row, lat_row)]
            ring.append(ring[0])  # close the ring per the GeoJSON spec
            rings.append(ring)
        return cls(
            inverse=inverse,
            order=np.argsort(inverse, kind="stable"),
            starts=np.cumsum(cells) - cells,
            tokens=[f"{key:015x}" for key in tile_keys.tolist()],
            cells=cells.tolist(),
            rings=rings,
        )


def _aggregate(
    index: ServeIndex, tile_resolution: int
) -> Tuple[List[Dict], TileLayout]:
    """The aggregate rows and the layout they were computed over."""
    if not 0 <= tile_resolution < index.grid_resolution:
        raise ServeError(
            f"tile resolution {tile_resolution} must lie in "
            f"[0, {index.grid_resolution}), coarser than the grid"
        )
    with obs.span(
        "serve.tiles", cells=index.n_cells, resolution=tile_resolution
    ) as span:
        layouts = index.store.tile_layouts
        layout = layouts.get(tile_resolution)
        if layout is None:
            layout = layouts[tile_resolution] = TileLayout.build(
                index.store, index.grid_resolution, tile_resolution
            )
        n_tiles = len(layout.tokens)
        span.set(tiles=n_tiles)
        inverse = layout.inverse
        locations = np.bincount(
            inverse, weights=index.cell_counts, minlength=n_tiles
        ).astype(np.int64)
        served = np.bincount(
            inverse, weights=index.served_count, minlength=n_tiles
        ).astype(np.int64)
        fully = np.bincount(
            inverse, weights=index.fully_served, minlength=n_tiles
        ).astype(np.int64)
        peak = np.maximum.reduceat(
            index.required_oversub[layout.order], layout.starts
        )
        rows = [
            {
                "tile": token,
                "cells": cells,
                "cells_fully_served": fully_t,
                "locations": locations_t,
                "locations_served": served_t,
                "served_fraction": (
                    served_t / locations_t if locations_t else 1.0
                ),
                "max_required_oversubscription": peak_t,
            }
            for token, cells, fully_t, locations_t, served_t, peak_t in zip(
                layout.tokens,
                layout.cells,
                fully.tolist(),
                locations.tolist(),
                served.tolist(),
                peak.tolist(),
            )
        ]
        return rows, layout


def tile_aggregates(
    index: ServeIndex, tile_resolution: int = DEFAULT_TILE_RESOLUTION
) -> List[Dict]:
    """Per-tile aggregate rows, sorted by tile token.

    Each row sums the index's per-cell layers over the fine cells whose
    centers fall in the tile: total and served locations, fully served
    cell counts, and the tile's maximum required oversubscription.
    """
    return _aggregate(index, tile_resolution)[0]


def tiles_to_geojson(
    index: ServeIndex, tile_resolution: int = DEFAULT_TILE_RESOLUTION
) -> Dict:
    """Tile aggregates as a GeoJSON FeatureCollection of hex polygons.

    The polygons are the layout's cached rings, shared between calls.
    """
    rows, layout = _aggregate(index, tile_resolution)
    epoch = index.epoch
    scenario_id = index.scenario_id  # a hash: compute it once, not per tile
    features = []
    for properties, ring in zip(rows, layout.rings):
        properties["epoch"] = epoch
        properties["scenario_id"] = scenario_id
        features.append(
            _feature({"type": "Polygon", "coordinates": [ring]}, properties)
        )
    return _collection(features)
