"""Shared fixtures.

The calibrated national dataset is generated once per session (~0.1 s)
and shared read-only. It is columnar: its ``ServiceCell`` list is built
only when a test reads ``dataset.cells``, and the regional subset is a
mask over its center columns, so neither fixture pays for per-cell
objects up front."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.model import StarlinkDivideModel
from repro.demand.bsl import County, ServiceCell
from repro.demand.dataset import DemandDataset
from repro.demand.regions import QUICK_BBOX
from repro.demand.synthetic import generate_national_map
from repro.geo.coords import LatLon
from repro.geo.hexgrid import CellId
from repro.sim.visibility_index import CSRVisibility


@pytest.fixture(scope="session")
def national_dataset() -> DemandDataset:
    """The default calibrated synthetic national map."""
    return generate_national_map()


@pytest.fixture(scope="session")
def national_model(national_dataset) -> StarlinkDivideModel:
    """The full analysis model over the national map."""
    return StarlinkDivideModel(national_dataset)


@pytest.fixture(scope="session")
def regional_dataset(national_dataset) -> DemandDataset:
    """A small Appalachian subset for fast simulator tests."""
    return national_dataset.subset_bbox(*QUICK_BBOX, "test region")


def build_toy_dataset(counts, latitudes=None, incomes=None) -> DemandDataset:
    """A hand-built dataset: one county per cell, direct count control."""
    counts = list(counts)
    if latitudes is None:
        latitudes = [37.0] * len(counts)
    if incomes is None:
        incomes = [60000.0] * len(counts)
    if not len(counts) == len(latitudes) == len(incomes):
        raise ValueError("toy dataset arrays must have equal length")
    cells = []
    counties = {}
    for index, (count, lat, income) in enumerate(
        zip(counts, latitudes, incomes)
    ):
        counties[index] = County(
            county_id=index,
            name=f"Toy {index}",
            seat=LatLon(lat, -90.0),
            median_household_income_usd=income,
        )
        cells.append(
            ServiceCell(
                cell=CellId(5, index, 0),
                center=LatLon(lat, -90.0 + 0.2 * index),
                county_id=index,
                unserved_locations=count,
                underserved_locations=0,
            )
        )
    return DemandDataset(
        cells=cells, counties=counties, grid_resolution=5, description="toy"
    )


def assign_lists(strategy, visible, demands_mbps, satellite_count, plan):
    """``strategy.assign_csr`` over a relation given as per-cell id lists."""
    return strategy.assign_csr(
        CSRVisibility.from_lists(visible, satellite_count), demands_mbps, plan
    )


@pytest.fixture()
def toy_dataset() -> DemandDataset:
    """Five cells with round counts at 37 N."""
    return build_toy_dataset([10, 100, 1000, 2000, 5998])
