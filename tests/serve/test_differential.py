"""The PR's primary correctness gate: service answers == batch pipeline.

Hypothesis drives random datasets x random scenarios x random query
locations through both the indexed service path and the record-at-a-time
reference built on the batch pipeline's scalar methods, asserting exact
(byte-equal) agreement on every response field — including IEEE floats,
which must come out of identical operation sequences.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.affordability import AffordabilityAnalysis
from repro.core.oversubscription import OversubscriptionAnalysis
from repro.demand.locations import explode_cells_table
from repro.serve import QueryEngine, ScenarioParams, build_index

from tests.conftest import build_toy_dataset
from tests.oracles.serve import (
    reference_cell_answer,
    reference_county_answer,
    reference_point_answer,
)

#: Scenario triples every CI run checks deterministically — the paper's
#: FCC benchmark, a tight cap that splits cells, and a spread beamset
#: with a stingier affordability share.
FIXED_SCENARIOS = (
    ScenarioParams(),
    ScenarioParams(oversubscription=0.5, beamspread=1.0, income_share=0.01),
    ScenarioParams(oversubscription=35.0, beamspread=4.0, income_share=0.05),
    ScenarioParams(oversubscription=3.0, beamspread=2.5, income_share=0.002),
)


def _strip(batch, i):
    """Row ``i`` of a columnar point response, without epoch metadata."""
    return {
        key: (value[i] if isinstance(value, list) else value)
        for key, value in batch.items()
        if key not in ("epoch", "scenario_id")
    }


def _assert_service_equals_reference(dataset, params, seed=3):
    table = explode_cells_table(dataset, seed=seed)
    engine = QueryEngine(
        build_index(table, dataset, params, target_shard_rows=64)
    )
    rng = np.random.default_rng(0)
    size = min(len(table), 40)
    ids = rng.choice(table.location_id, size=size, replace=False)
    batch = engine.point_by_id(ids)
    for i, location_id in enumerate(ids):
        reference = reference_point_answer(
            table, dataset, int(location_id), params=params
        )
        assert _strip(batch, i) == reference
    for token in {batch["cell"][i] for i in range(size)}:
        got = {
            key: value
            for key, value in engine.cell_answer(token).items()
            if key not in ("epoch", "scenario_id")
        }
        assert got == reference_cell_answer(table, dataset, token, params=params)
    for county_id in set(dataset.counties):
        got = {
            key: value
            for key, value in engine.county_answer(county_id).items()
            if key not in ("epoch", "scenario_id")
        }
        assert got == reference_county_answer(
            table, dataset, county_id, params=params
        )
    return engine, table


class TestFixedScenarios:
    @pytest.mark.parametrize("params", FIXED_SCENARIOS)
    def test_point_cell_county_equal_reference(
        self, toy_serve_dataset, params
    ):
        _assert_service_equals_reference(toy_serve_dataset, params)

    def test_served_counts_sum_to_batch_stats(self, toy_serve_dataset):
        """Per-location served flags aggregate to the batch ServedStats."""
        table = explode_cells_table(toy_serve_dataset, seed=3)
        analysis = OversubscriptionAnalysis(toy_serve_dataset)
        for params in FIXED_SCENARIOS:
            engine = QueryEngine(build_index(table, toy_serve_dataset, params))
            batch = engine.point_by_id(table.location_id)
            stats = analysis.stats(params.oversubscription, params.beamspread)
            assert sum(batch["served"]) == stats.locations_served

    def test_affordability_matches_batch_matrix(self, toy_serve_dataset):
        """Affordable-plan lists agree with the batch affordable_matrix."""
        table = explode_cells_table(toy_serve_dataset, seed=3)
        params = FIXED_SCENARIOS[1]
        index = build_index(table, toy_serve_dataset, params)
        analysis = AffordabilityAnalysis(toy_serve_dataset)
        matrix = analysis.affordable_matrix(index.plans, params.income_share)
        dataset_keys = [c.cell.key for c in toy_serve_dataset.cells]
        for dataset_pos, key in enumerate(dataset_keys):
            store_pos = index.store.cell_index_for_keys([key])[0]
            if store_pos < 0:
                continue
            assert (
                index.affordable[store_pos] == matrix[dataset_pos]
            ).all()


class TestHypothesisDifferential:
    @settings(max_examples=25, deadline=None)
    @given(
        counts=st.lists(st.integers(0, 60), min_size=1, max_size=8),
        incomes=st.lists(
            st.floats(6000.0, 250000.0, allow_nan=False),
            min_size=8,
            max_size=8,
        ),
        oversubscription=st.floats(0.05, 45.0, allow_nan=False),
        beamspread=st.floats(1.0, 12.0, allow_nan=False),
        income_share=st.floats(0.001, 0.08, allow_nan=False),
        seed=st.integers(0, 2**16),
    )
    def test_random_scenarios_and_locations(
        self, counts, incomes, oversubscription, beamspread, income_share, seed
    ):
        dataset = build_toy_dataset(counts, incomes=incomes[: len(counts)])
        if sum(counts) == 0:
            return  # nothing to query; covered by the empty-table tests
        params = ScenarioParams(
            oversubscription=oversubscription,
            beamspread=beamspread,
            income_share=income_share,
        )
        _assert_service_equals_reference(dataset, params, seed=seed)

    @settings(max_examples=10, deadline=None)
    @given(
        oversubscriptions=st.lists(
            st.floats(0.05, 45.0, allow_nan=False), min_size=2, max_size=4
        )
    )
    def test_epoch_swaps_track_reference(self, oversubscriptions):
        """After any chain of update_params, answers match that scenario."""
        from tests.serve.conftest import (
            TOY_COUNTS,
            TOY_INCOMES,
            TOY_LATITUDES,
        )

        dataset = build_toy_dataset(
            TOY_COUNTS, latitudes=TOY_LATITUDES, incomes=TOY_INCOMES
        )
        table = explode_cells_table(dataset, seed=3)
        engine = QueryEngine(
            build_index(table, dataset, target_shard_rows=2000)
        )
        ids = table.location_id[:: max(1, len(table) // 16)]
        for epoch, ratio in enumerate(oversubscriptions, start=1):
            params = ScenarioParams(oversubscription=ratio)
            asyncio.run(engine.update_params(params))
            batch = engine.point_by_id(ids)
            assert batch["epoch"] == epoch
            assert batch["scenario_id"] == params.scenario_id
            for i, location_id in enumerate(ids):
                assert _strip(batch, i) == reference_point_answer(
                    table, dataset, int(location_id), params=params
                )
