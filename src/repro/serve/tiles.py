"""Choropleth tile aggregates: serving answers rolled up to coarse hexes.

A frontend map cannot draw 145k resolution-6 cells per viewport; it
wants a few hundred coarser tiles with served fractions. Tiles are the
cells of a coarser :class:`HexGrid` resolution; each fine cell is
assigned to the tile containing its center, and the per-cell arrays of
a :class:`~repro.serve.index.ServeIndex` are summed per tile — so tile
numbers are exact aggregates of batch-pipeline answers, not estimates.

Which cell lands in which tile, and each tile's polygon, depend on the
cells alone. A :class:`TileLayout` holds that part of the answer, down
to its JSON text. It is built on first use, once per
(:class:`~repro.serve.shards.ShardStore`, tile resolution), and shared
by every epoch, so a call makes one O(cells) pass over the scenario
arrays, encodes only the scenario values and splices them between the
layout's encoded fragments. The text is what ``json.dumps`` writes for
the same answer, byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro import obs
from repro.errors import ServeError
from repro.geo.hexgrid import HexGrid
from repro.serve.index import ServeIndex
from repro.serve.shards import ShardStore
from repro.viz.geojson import _feature

#: Resolution-3 tiles are ~12.4x the area of the resolution-5 service
#: cells — the national map lands on 724 tiles at grid resolution 5 and
#: 734 at resolution 6.
DEFAULT_TILE_RESOLUTION = 3

#: A tile's scenario-dependent properties, in answer order, after its
#: ``tile`` token and ``cells`` count and before ``epoch``.
_SCENARIO_FIELDS = (
    "cells_fully_served",
    "locations",
    "locations_served",
    "served_fraction",
    "max_required_oversubscription",
)
#: The scenario values of one feature, spliced after its layout head.
_VALUES = ", ".join(f'"{name}": %s' for name in _SCENARIO_FIELDS)


@dataclass(frozen=True, eq=False)
class TileLayout:
    """The scenario-independent part of one resolution's tiles answer.

    Tiles are in ascending key order. Every array and fragment is shared
    by the answers of every epoch and must be treated as read-only.
    """

    #: Tile index of each store cell.
    inverse: np.ndarray
    #: Store cells ordered by tile (stable, so ascending within a tile).
    order: np.ndarray
    #: Each tile's first position in :attr:`order`.
    starts: np.ndarray
    tokens: List[str]
    cells: List[int]
    #: Each tile's feature text up to its first scenario value, as
    #: ``json.dumps`` writes it: the ``Feature`` header, the closed
    #: polygon ring of ``[lon, lat]`` vertices, the ``tile`` token and
    #: the ``cells`` count.
    heads: List[str]

    @classmethod
    def build(
        cls, store: ShardStore, grid_resolution: int, tile_resolution: int
    ) -> "TileLayout":
        """Assign cells to the tiles holding their centers; encode heads."""
        lat, lon = HexGrid(grid_resolution).centers_many(store.unique_keys)
        coarse = HexGrid(tile_resolution)
        tile_keys, inverse = np.unique(
            coarse.cell_for_many(lat, lon), return_inverse=True
        )
        cells = np.bincount(inverse, minlength=len(tile_keys))
        tokens = [f"{key:015x}" for key in tile_keys.tolist()]
        lat, lon = coarse.polygons_many(tile_keys)
        heads = []
        for token, count, lat_row, lon_row in zip(
            tokens, cells.tolist(), lat.tolist(), lon.tolist()
        ):
            ring = [list(vertex) for vertex in zip(lon_row, lat_row)]
            ring.append(ring[0])  # close the ring per the GeoJSON spec
            feature = _feature(
                {"type": "Polygon", "coordinates": [ring]},
                {"tile": token, "cells": count},
            )
            # Open the properties again: drop the closing "}}".
            heads.append(json.dumps(feature)[:-2] + ", ")
        return cls(
            inverse=inverse,
            order=np.argsort(inverse, kind="stable"),
            starts=np.cumsum(cells) - cells,
            tokens=tokens,
            cells=cells.tolist(),
            heads=heads,
        )


def _aggregate(
    index: ServeIndex, tile_resolution: int
) -> Tuple[TileLayout, Tuple[list, ...]]:
    """The layout and its per-tile :data:`_SCENARIO_FIELDS` columns.

    The columns are Python lists (from ``.tolist()``), never NumPy
    scalars, so they encode exactly as ``json.dumps`` writes them.
    """
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
        ).astype(np.int64).tolist()
        served = np.bincount(
            inverse, weights=index.served_count, minlength=n_tiles
        ).astype(np.int64).tolist()
        fully = np.bincount(
            inverse, weights=index.fully_served, minlength=n_tiles
        ).astype(np.int64).tolist()
        fraction = [
            served_t / locations_t if locations_t else 1.0
            for served_t, locations_t in zip(served, locations)
        ]
        peak = np.maximum.reduceat(
            index.required_oversub[layout.order], layout.starts
        ).tolist()
        return layout, (fully, locations, served, fraction, peak)


def _json_numbers(values: list) -> List[str]:
    """Each number's ``json.dumps`` text, from one call over the list."""
    # json.dumps separates list items with ", ", which no number holds.
    return json.dumps(values)[1:-1].split(", ") if values else []


def tile_aggregates(
    index: ServeIndex, tile_resolution: int = DEFAULT_TILE_RESOLUTION
) -> List[Dict]:
    """Per-tile aggregate rows, sorted by tile token.

    Each row sums the index's per-cell layers over the fine cells whose
    centers fall in the tile: total and served locations, fully served
    cell counts, and the tile's maximum required oversubscription.
    """
    layout, columns = _aggregate(index, tile_resolution)
    return [
        {"tile": token, "cells": cells, **dict(zip(_SCENARIO_FIELDS, values))}
        for token, cells, *values in zip(layout.tokens, layout.cells, *columns)
    ]


def tiles_to_json(
    index: ServeIndex, tile_resolution: int = DEFAULT_TILE_RESOLUTION
) -> str:
    """Tile aggregates as the text of a GeoJSON FeatureCollection.

    Each feature is its layout head followed by this call's scenario
    values and the index's epoch and scenario id; the text equals
    ``json.dumps`` of the decoded collection.
    """
    layout, columns = _aggregate(index, tile_resolution)
    tail = ', "epoch": %s, "scenario_id": %s}}' % (
        json.dumps(index.epoch),
        json.dumps(index.scenario_id),
    )
    features = [
        head + _VALUES % values + tail
        for head, values in zip(
            layout.heads, zip(*map(_json_numbers, columns))
        )
    ]
    return (
        '{"type": "FeatureCollection", "features": ['
        + ", ".join(features)
        + "]}"
    )


def tiles_to_geojson(
    index: ServeIndex, tile_resolution: int = DEFAULT_TILE_RESOLUTION
) -> Dict:
    """Tile aggregates as a GeoJSON FeatureCollection of hex polygons.

    The decoded :func:`tiles_to_json` text: there is one producer of the
    answer.
    """
    return json.loads(tiles_to_json(index, tile_resolution))
