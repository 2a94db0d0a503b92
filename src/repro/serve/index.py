"""Precomputed per-cell serving index with epoch/snapshot semantics.

A :class:`ServeIndex` is an immutable snapshot: the static layer (per-cell
demand counts, county join, required oversubscription — properties of the
dataset alone) is computed once at build time straight from the batch
pipeline's exporters, and the scenario layer (per-cell cap, served counts,
affordability matrix) is recomputed per scenario *into fresh arrays*,
never in place. Scenario changes therefore produce a brand-new index with
``epoch + 1``; readers holding the old snapshot keep getting internally
consistent answers, and the engine swap is a single reference assignment.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.affordability import AffordabilityAnalysis
from repro.core.capacity import SatelliteCapacityModel
from repro.core.oversubscription import (
    OversubscriptionAnalysis,
    cell_location_cap,
)
from repro.demand.dataset import DemandDataset
from repro.demand.locations import LocationTable
from repro.econ.plans import BroadbandPlan
from repro.errors import ServeError
from repro.serve.scenario import ScenarioParams, serve_plans
from repro.serve.shards import DEFAULT_SHARD_ROWS, ShardStore


@dataclass(frozen=True, eq=False)
class ServeIndex:
    """One epoch's immutable view: shard store + per-cell answer arrays."""

    epoch: int
    params: ScenarioParams
    store: ShardStore
    plans: Tuple[BroadbandPlan, ...]
    capacity: SatelliteCapacityModel
    dataset_fingerprint: str
    grid_resolution: int
    # -- static layer (aligned to ``store.unique_keys``) -------------------
    cell_counts: np.ndarray
    cell_county: np.ndarray
    cell_monthly_income: np.ndarray
    required_oversub: np.ndarray
    county_cells: Dict[int, np.ndarray]
    county_monthly_income: Dict[int, float]
    # -- scenario layer ----------------------------------------------------
    per_cell_cap: int
    served_count: np.ndarray
    fully_served: np.ndarray
    affordable: np.ndarray  # (n_cells, n_plans) bool

    @property
    def scenario_id(self) -> str:
        return self.params.scenario_id

    @property
    def n_cells(self) -> int:
        return self.store.n_cells

    def __len__(self) -> int:
        return len(self.store)

    # -- incremental scenario recompute ------------------------------------

    def scenario_slice(
        self, params: ScenarioParams, cell_start: int, cell_stop: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The new scenario layer for one cell range, as fresh arrays.

        Element-for-element the same IEEE/integer operations as the batch
        exporters (:meth:`OversubscriptionAnalysis.outcome_arrays`,
        :meth:`AffordabilityAnalysis.affordable_matrix`), so a shard-wise
        rebuild lands on byte-identical answers.
        """
        cap = cell_location_cap(
            self.capacity, params.oversubscription, params.beamspread
        )
        counts = self.cell_counts[cell_start:cell_stop]
        incomes = self.cell_monthly_income[cell_start:cell_stop]
        served = np.minimum(counts, cap)
        fully = counts <= cap
        affordable = np.empty((len(counts), len(self.plans)), dtype=bool)
        for j, plan in enumerate(self.plans):
            affordable[:, j] = ~(
                plan.monthly_cost_usd > params.income_share * incomes
            )
        return served, fully, affordable

    def with_scenario(
        self,
        params: ScenarioParams,
        served_count: np.ndarray,
        fully_served: np.ndarray,
        affordable: np.ndarray,
    ) -> "ServeIndex":
        """Next-epoch snapshot around a fully assembled scenario layer."""
        return replace(
            self,
            epoch=self.epoch + 1,
            params=params,
            per_cell_cap=cell_location_cap(
                self.capacity, params.oversubscription, params.beamspread
            ),
            served_count=served_count,
            fully_served=fully_served,
            affordable=affordable,
        )

    def with_params(self, params: ScenarioParams) -> "ServeIndex":
        """Synchronous scenario change: recompute every shard, bump epoch."""
        with obs.span(
            "serve.index.refresh",
            scenario=params.scenario_id,
            shards=len(self.store.shards),
        ):
            served = np.empty(self.n_cells, dtype=np.int64)
            fully = np.empty(self.n_cells, dtype=bool)
            affordable = np.empty((self.n_cells, len(self.plans)), dtype=bool)
            for shard in self.store.shards:
                s, f, a = self.scenario_slice(
                    params, shard.cell_start, shard.cell_stop
                )
                served[shard.cell_start : shard.cell_stop] = s
                fully[shard.cell_start : shard.cell_stop] = f
                affordable[shard.cell_start : shard.cell_stop] = a
            return self.with_scenario(params, served, fully, affordable)


def _group_cells_by_county(cell_county: np.ndarray) -> Dict[int, np.ndarray]:
    order = np.argsort(cell_county, kind="stable")
    counties, starts = np.unique(cell_county[order], return_index=True)
    bounds = np.concatenate([starts, [len(cell_county)]])
    return {
        int(county): order[bounds[i] : bounds[i + 1]]
        for i, county in enumerate(counties)
    }


def build_index(
    table: LocationTable,
    dataset: DemandDataset,
    params: Optional[ScenarioParams] = None,
    plans: Optional[Sequence[BroadbandPlan]] = None,
    capacity: Optional[SatelliteCapacityModel] = None,
    target_shard_rows: int = DEFAULT_SHARD_ROWS,
) -> ServeIndex:
    """Build the epoch-0 index for a (table, dataset) pair.

    The scenario layer comes straight from the batch pipeline's own
    exporters — the serving layer indexes batch answers, it does not
    reimplement them. Raises :class:`ServeError` when the table and
    dataset disagree (per-cell row counts vs. dataset counts, county
    joins, cells present in one but not the other).
    """
    params = params or ScenarioParams()
    plan_list = tuple(plans if plans is not None else serve_plans())
    if not plan_list:
        raise ServeError("no plans given")
    capacity = capacity or SatelliteCapacityModel()
    with obs.span(
        "serve.index.build",
        rows=len(table),
        cells=dataset.n_cells,
        scenario=params.scenario_id,
    ) as span:
        store = ShardStore.from_table(table, target_shard_rows)
        analysis = OversubscriptionAnalysis(dataset, capacity)
        outcomes = analysis.outcome_arrays(
            params.oversubscription, params.beamspread
        )
        affordability = AffordabilityAnalysis(dataset)
        matrix = affordability.affordable_matrix(
            plan_list, params.income_share
        )
        columns = dataset.to_columns()
        dataset_keys = columns["cell_key"]
        positions = store.cell_index_for_keys(dataset_keys)
        occupied = outcomes["counts"] > 0
        if (positions[occupied] < 0).any():
            missing = int(np.flatnonzero(occupied & (positions < 0))[0])
            raise ServeError(
                f"dataset cell {int(dataset_keys[missing]):015x} has "
                "demand but no table rows"
            )
        # Invert dataset order -> store order; every store cell must map
        # back to exactly one dataset cell.
        inverse = np.full(store.n_cells, -1, dtype=np.int64)
        present = positions >= 0
        inverse[positions[present]] = np.flatnonzero(present)
        if (inverse < 0).any():
            orphan = int(store.unique_keys[np.flatnonzero(inverse < 0)[0]])
            raise ServeError(f"table cell {orphan:015x} not in dataset")
        cell_counts = outcomes["counts"][inverse]
        table_counts = np.diff(store.cell_starts)
        if (cell_counts != table_counts).any():
            bad = int(np.flatnonzero(cell_counts != table_counts)[0])
            raise ServeError(
                f"cell {int(store.unique_keys[bad]):015x}: dataset says "
                f"{int(cell_counts[bad])} locations, table has "
                f"{int(table_counts[bad])}"
            )
        cell_county = columns["county_id"][inverse]
        # Each cell's county, repeated over its rows, shard by shard.
        for shard in store.shards:
            cells = slice(shard.cell_start, shard.cell_stop)
            expected = np.repeat(cell_county[cells], table_counts[cells])
            rows = slice(shard.row_start, shard.row_stop)
            if (expected != store.county_id[rows]).any():
                raise ServeError("table county join disagrees with dataset")
        span.set(shards=len(store.shards))
        return ServeIndex(
            epoch=0,
            params=params,
            store=store,
            plans=plan_list,
            capacity=capacity,
            dataset_fingerprint=dataset.fingerprint(),
            grid_resolution=dataset.grid_resolution,
            cell_counts=cell_counts,
            cell_county=cell_county,
            cell_monthly_income=(dataset.cell_incomes() / 12.0)[inverse],
            required_oversub=outcomes["required_oversubscription"][inverse],
            county_cells=_group_cells_by_county(cell_county),
            county_monthly_income={
                county_id: county.median_household_income_usd / 12.0
                for county_id, county in dataset.counties.items()
            },
            per_cell_cap=int(outcomes["per_cell_cap"][0])
            if len(outcomes["per_cell_cap"])
            else cell_location_cap(
                capacity, params.oversubscription, params.beamspread
            ),
            served_count=outcomes["served_locations"][inverse],
            fully_served=outcomes["fully_served"][inverse],
            affordable=matrix[inverse],
        )
