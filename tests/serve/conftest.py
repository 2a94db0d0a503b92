"""Shared serving-layer fixtures.

The toy serving stack is rebuilt per test (cheap); the national index —
the full 4.66M-location table exploded, then adopted by the store — is
session-scoped, like the national dataset it derives from.
"""

from __future__ import annotations

import pytest

from repro.demand.locations import explode_cells_table
from repro.serve import QueryEngine, build_index

from tests.conftest import build_toy_dataset

#: Counts straddling the r=20 cap (3460) plus tiny and empty-ish cells.
TOY_COUNTS = [1, 5, 120, 3460, 3461, 5998]
TOY_INCOMES = [12000.0, 24000.0, 30000.0, 60000.0, 72000.0, 150000.0]
TOY_LATITUDES = [37.0, 37.2, 37.4, 37.6, 37.8, 38.0]


@pytest.fixture()
def toy_serve_dataset():
    return build_toy_dataset(
        TOY_COUNTS, latitudes=TOY_LATITUDES, incomes=TOY_INCOMES
    )


@pytest.fixture()
def toy_serve_table(toy_serve_dataset):
    return explode_cells_table(toy_serve_dataset, seed=3)


@pytest.fixture()
def toy_serve_index(toy_serve_table, toy_serve_dataset):
    # Small shards so multi-shard paths are exercised on toy data.
    return build_index(
        toy_serve_table, toy_serve_dataset, target_shard_rows=2000
    )


@pytest.fixture()
def toy_engine(toy_serve_index):
    return QueryEngine(toy_serve_index)


@pytest.fixture(scope="session")
def national_serve_table(national_dataset):
    return explode_cells_table(national_dataset, seed=0)


@pytest.fixture(scope="session")
def national_serve_index(national_serve_table, national_dataset):
    return build_index(national_serve_table, national_dataset)
