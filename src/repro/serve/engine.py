"""The query engine: snapshot reads over an atomically swapped index.

Readers grab ``self._index`` exactly once per query, so every answer is
computed against a single epoch even while :meth:`QueryEngine.update_params`
is rebuilding the scenario layer shard by shard on the event loop. The
epoch and scenario id are echoed in every response — the concurrency
regression test asserts no response ever mixes epochs.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Dict

import numpy as np

from repro import obs
from repro.geo.hexgrid import HexGrid
from repro.serve.index import ServeIndex
from repro.serve.scenario import ScenarioParams
from repro.serve.tiles import DEFAULT_TILE_RESOLUTION, tiles_to_json


class QueryEngine:
    """Point, cell, county, and tile queries over a :class:`ServeIndex`."""

    def __init__(self, index: ServeIndex):
        self._index = index
        self._grid = HexGrid(index.grid_resolution)
        self._update_lock = asyncio.Lock()
        self._afford_cache = None
        registry = obs.registry()
        self._queries = registry.counter("serve.queries")
        self._points = registry.counter("serve.queries.points")
        self._latency = registry.histogram("serve.query.latency_s")
        self._rolling_latency = registry.rolling("serve.query.latency_s")

    @property
    def index(self) -> ServeIndex:
        """The live snapshot (readers must capture it once per query)."""
        return self._index

    def _affordable_names(self, index: ServeIndex):
        """Per-cell affordable-plan name lists, cached per snapshot.

        Only 2**n_plans distinct lists exist, so cells share them; the
        cache keys on the snapshot object, which is immutable.
        """
        cached = self._afford_cache
        if cached is not None and cached[0] is index:
            return cached[1]
        names = [plan.name for plan in index.plans]
        weights = 1 << np.arange(len(names))
        masks = index.affordable.astype(np.int64) @ weights
        by_mask = [
            [name for j, name in enumerate(names) if mask >> j & 1]
            for mask in range(1 << len(names))
        ]
        per_cell = [by_mask[mask] for mask in masks.tolist()]
        self._afford_cache = (index, per_cell)
        return per_cell

    @property
    def epoch(self) -> int:
        return self._index.epoch

    # -- point queries -----------------------------------------------------

    def point_by_id(self, location_ids) -> Dict:
        """Vectorized per-location answers for a batch of location ids.

        Columnar response (one list per field, aligned with the request
        order) — the shape the JSON-lines server sends on the wire, so a
        256-id batch costs one Python round trip, not 256.
        """
        start = time.perf_counter()
        index = self._index
        rows = index.store.rows_for_location_ids(location_ids)
        store = index.store
        cells = store.cells_for_rows(rows)
        ranks = rows - store.cell_starts[cells]
        tokens = store.cell_tokens
        affordable_names = self._affordable_names(index)
        cell_list = cells.tolist()
        answer = {
            "epoch": index.epoch,
            "scenario_id": index.scenario_id,
            "location_id": store.location_id[rows].tolist(),
            "cell": [tokens[c] for c in cell_list],
            "county_id": store.county_id[rows].tolist(),
            "served": (ranks < index.per_cell_cap).tolist(),
            "rank_in_cell": ranks.tolist(),
            "cell_locations": index.cell_counts[cells].tolist(),
            "per_cell_cap": index.per_cell_cap,
            "cell_fully_served": index.fully_served[cells].tolist(),
            "required_oversubscription": index.required_oversub[
                cells
            ].tolist(),
            "affordable_plans": [affordable_names[c] for c in cell_list],
        }
        n = len(rows)
        self._queries.inc(n)
        self._points.inc(n)
        elapsed = time.perf_counter() - start
        self._latency.observe(elapsed)
        self._rolling_latency.observe(elapsed)
        return answer

    def point_one(self, location_id: int) -> Dict:
        """Single-location convenience wrapper around :meth:`point_by_id`."""
        batch = self.point_by_id([location_id])
        return {
            key: (value[0] if isinstance(value, list) else value)
            for key, value in batch.items()
        }

    def point_by_latlon(self, lat_deg: float, lon_deg: float) -> Dict:
        """Cell-level answer for the cell containing a point.

        A point outside every occupied cell gets ``in_dataset: False`` —
        no un(der)served demand there, so the batch pipeline has nothing
        to say about it.
        """
        key = self._grid.cell_for_many(
            np.array([lat_deg]), np.array([lon_deg])
        )[0]
        return self.cell_answer(f"{int(key):015x}")

    # -- aggregate queries -------------------------------------------------

    def cell_answer(self, token: str) -> Dict:
        """Per-cell aggregate for one packed cell-key token."""
        with obs.span("serve.query", kind="cell"):
            index = self._index
            self._queries.inc()
            cell = int(index.store.cell_index_for_keys(
                np.array([int(token, 16)], dtype=np.uint64)
            )[0])
            if cell < 0:
                return {
                    "epoch": index.epoch,
                    "scenario_id": index.scenario_id,
                    "cell": token,
                    "in_dataset": False,
                }
            plan_names = [plan.name for plan in index.plans]
            return {
                "epoch": index.epoch,
                "scenario_id": index.scenario_id,
                "cell": token,
                "in_dataset": True,
                "county_id": int(index.cell_county[cell]),
                "locations": int(index.cell_counts[cell]),
                "served_locations": int(index.served_count[cell]),
                "per_cell_cap": index.per_cell_cap,
                "fully_served": bool(index.fully_served[cell]),
                "required_oversubscription": float(
                    index.required_oversub[cell]
                ),
                "affordable_plans": [
                    plan_names[j]
                    for j in np.flatnonzero(index.affordable[cell])
                ],
            }

    def county_answer(self, county_id: int) -> Dict:
        """Aggregate over every cell of one county."""
        with obs.span("serve.query", kind="county"):
            index = self._index
            self._queries.inc()
            if county_id not in index.county_monthly_income:
                return {
                    "epoch": index.epoch,
                    "scenario_id": index.scenario_id,
                    "county_id": county_id,
                    "in_dataset": False,
                }
            cells = index.county_cells.get(
                county_id, np.empty(0, dtype=np.int64)
            )
            income = index.county_monthly_income[county_id]
            plan_names = [plan.name for plan in index.plans]
            affordable = [
                plan_names[j]
                for j, plan in enumerate(index.plans)
                if not (
                    plan.monthly_cost_usd
                    > index.params.income_share * income
                )
            ]
            return {
                "epoch": index.epoch,
                "scenario_id": index.scenario_id,
                "county_id": county_id,
                "in_dataset": True,
                "cells": int(len(cells)),
                "locations": int(index.cell_counts[cells].sum()),
                "served_locations": int(index.served_count[cells].sum()),
                "fully_served_cells": int(
                    np.count_nonzero(index.fully_served[cells])
                ),
                "affordable_plans": affordable,
            }

    def tiles_geojson(
        self, tile_resolution: int = DEFAULT_TILE_RESOLUTION
    ) -> str:
        """Choropleth-ready GeoJSON tile aggregates at one epoch, as text.

        The JSON text of ``{"epoch", "scenario_id", "collection"}``,
        exactly as ``json.dumps`` writes that answer, so the server
        sends it without encoding it again.
        """
        with obs.span("serve.query", kind="tiles"):
            index = self._index
            self._queries.inc()
            return '{"epoch": %s, "scenario_id": %s, "collection": %s}' % (
                json.dumps(index.epoch),
                json.dumps(index.scenario_id),
                tiles_to_json(index, tile_resolution),
            )

    def stats(self) -> Dict:
        """Service-level summary of the live snapshot."""
        index = self._index
        return {
            "epoch": index.epoch,
            "scenario_id": index.scenario_id,
            "locations": len(index),
            "cells": index.n_cells,
            "shards": len(index.store.shards),
            "per_cell_cap": index.per_cell_cap,
            "locations_served": int(index.served_count.sum()),
            "cells_fully_served": int(
                np.count_nonzero(index.fully_served)
            ),
            "dataset_fingerprint": index.dataset_fingerprint,
        }

    # -- scenario changes --------------------------------------------------

    async def update_params(self, params: ScenarioParams) -> Dict:
        """Rebuild the scenario layer shard by shard, then swap epochs.

        Yields to the event loop between shards so concurrent queries keep
        flowing; they read the old snapshot until the single atomic swap
        at the end. Serialized by a lock so updates never interleave.
        """
        async with self._update_lock:
            index = self._index
            with obs.span(
                "serve.index.refresh",
                scenario=params.scenario_id,
                shards=len(index.store.shards),
            ):
                served = np.empty(index.n_cells, dtype=np.int64)
                fully = np.empty(index.n_cells, dtype=bool)
                affordable = np.empty(
                    (index.n_cells, len(index.plans)), dtype=bool
                )
                for shard in index.store.shards:
                    s, f, a = index.scenario_slice(
                        params, shard.cell_start, shard.cell_stop
                    )
                    served[shard.cell_start : shard.cell_stop] = s
                    fully[shard.cell_start : shard.cell_stop] = f
                    affordable[shard.cell_start : shard.cell_stop] = a
                    await asyncio.sleep(0)
                self._index = index.with_scenario(
                    params, served, fully, affordable
                )
            obs.registry().counter("serve.epoch_swaps").inc()
            return {
                "epoch": self._index.epoch,
                "scenario_id": self._index.scenario_id,
            }
