"""Record-at-a-time reference answers for the serve differential suite.

Deliberately naive: every answer is recomputed from the raw table and
dataset with the batch pipeline's *scalar* methods — no sorting, no
precomputed index, no vectorization. ``tests/serve/test_differential.py``
asserts the service's indexed answers
(:class:`~repro.serve.engine.QueryEngine`) equal these, field for field:
if the precompute-then-index path diverges from the batch pipeline
anywhere, those tests catch it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.capacity import SatelliteCapacityModel
from repro.core.oversubscription import cell_location_cap
from repro.demand.dataset import DemandDataset
from repro.demand.locations import LocationTable
from repro.econ.plans import BroadbandPlan
from repro.errors import ServeError
from repro.serve.scenario import ScenarioParams, serve_plans


def _affordable_plans(
    plans: Sequence[BroadbandPlan], county_income_usd: float, income_share: float
) -> List[str]:
    # The exact predicate of AffordabilityAnalysis.unaffordable_locations,
    # negated, against the county's monthly income.
    monthly = county_income_usd / 12.0
    return [
        plan.name
        for plan in plans
        if not (plan.monthly_cost_usd > income_share * monthly)
    ]


def reference_point_answer(
    table: LocationTable,
    dataset: DemandDataset,
    location_id: int,
    params: Optional[ScenarioParams] = None,
    plans: Optional[Sequence[BroadbandPlan]] = None,
    capacity: Optional[SatelliteCapacityModel] = None,
) -> Dict:
    """The batch pipeline's answer for one location, the slow way."""
    params = params or ScenarioParams()
    plans = list(plans if plans is not None else serve_plans())
    capacity = capacity or SatelliteCapacityModel()
    rows = np.flatnonzero(table.location_id == location_id)
    if rows.size == 0:
        raise ServeError(f"unknown location id {int(location_id)}")
    row = int(rows[0])
    key = int(table.cell_key[row])
    same_cell = np.flatnonzero(table.cell_key == table.cell_key[row])
    n = int(same_cell.size)
    rank = int(
        np.count_nonzero(table.location_id[same_cell] < location_id)
    )
    cap = cell_location_cap(capacity, params.oversubscription, params.beamspread)
    county_id = int(table.county_id[row])
    return {
        "location_id": int(location_id),
        "cell": f"{key:015x}",
        "county_id": county_id,
        "served": rank < cap,
        "rank_in_cell": rank,
        "cell_locations": n,
        "per_cell_cap": cap,
        "cell_fully_served": n <= cap,
        "required_oversubscription": capacity.required_oversubscription(n),
        "affordable_plans": _affordable_plans(
            plans,
            dataset.counties[county_id].median_household_income_usd,
            params.income_share,
        ),
    }


def reference_cell_answer(
    table: LocationTable,
    dataset: DemandDataset,
    token: str,
    params: Optional[ScenarioParams] = None,
    plans: Optional[Sequence[BroadbandPlan]] = None,
    capacity: Optional[SatelliteCapacityModel] = None,
) -> Dict:
    """The batch pipeline's per-cell aggregate, the slow way."""
    params = params or ScenarioParams()
    plans = list(plans if plans is not None else serve_plans())
    capacity = capacity or SatelliteCapacityModel()
    key = int(token, 16)
    rows = np.flatnonzero(table.cell_key == np.uint64(key))
    if rows.size == 0:
        return {"cell": token, "in_dataset": False}
    n = int(rows.size)
    cap = cell_location_cap(capacity, params.oversubscription, params.beamspread)
    county_id = int(table.county_id[rows[0]])
    return {
        "cell": token,
        "in_dataset": True,
        "county_id": county_id,
        "locations": n,
        "served_locations": min(n, cap),
        "per_cell_cap": cap,
        "fully_served": n <= cap,
        "required_oversubscription": capacity.required_oversubscription(n),
        "affordable_plans": _affordable_plans(
            plans,
            dataset.counties[county_id].median_household_income_usd,
            params.income_share,
        ),
    }


def reference_county_answer(
    table: LocationTable,
    dataset: DemandDataset,
    county_id: int,
    params: Optional[ScenarioParams] = None,
    plans: Optional[Sequence[BroadbandPlan]] = None,
    capacity: Optional[SatelliteCapacityModel] = None,
) -> Dict:
    """The batch pipeline's per-county aggregate, the slow way.

    Counts only occupied cells (cells with table rows), matching the
    serving index, which is built from the table.
    """
    params = params or ScenarioParams()
    plans = list(plans if plans is not None else serve_plans())
    capacity = capacity or SatelliteCapacityModel()
    if county_id not in dataset.counties:
        return {"county_id": county_id, "in_dataset": False}
    cap = cell_location_cap(capacity, params.oversubscription, params.beamspread)
    cells = 0
    locations = 0
    served = 0
    fully = 0
    for cell in dataset.cells:
        if cell.county_id != county_id or cell.total_locations == 0:
            continue
        cells += 1
        locations += cell.total_locations
        served += min(cell.total_locations, cap)
        fully += int(cell.total_locations <= cap)
    return {
        "county_id": county_id,
        "in_dataset": True,
        "cells": cells,
        "locations": locations,
        "served_locations": served,
        "fully_served_cells": fully,
        "affordable_plans": _affordable_plans(
            plans,
            dataset.counties[county_id].median_household_income_usd,
            params.income_share,
        ),
    }
