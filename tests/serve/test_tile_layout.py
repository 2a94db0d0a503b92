"""The tiles answer against its oracle, and the per-store layout cache.

``repro.serve.tiles`` aggregates through a :class:`TileLayout` built once
per (store, tile resolution), which also holds each tile's encoded
feature head. ``tests/oracles/tiles.py`` keeps the straightforward
per-tile scan with scalar polygons. Hypothesis drives random cell
layouts, tile resolutions and scenarios through both, and the answers
must agree in every field, float for float, and the encoder's text must
equal ``json.dumps`` of the oracle's answer.
"""

from __future__ import annotations

import asyncio
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.demand.bsl import County, ServiceCell
from repro.demand.dataset import DemandDataset
from repro.demand.locations import explode_cells_table
from repro.errors import ServeError
from repro.geo.hexgrid import CellId, HexGrid
from repro.serve import (
    ScenarioParams,
    build_index,
    tile_aggregates,
    tiles_to_geojson,
    tiles_to_json,
)
from repro.serve.tiles import TileLayout

from tests.conftest import build_toy_dataset
from tests.oracles.tiles import (
    reference_tile_aggregates,
    reference_tiles_to_geojson,
)


def _scattered_dataset(grid_resolution, cells, incomes):
    """A dataset of the given ``(q, r, count)`` cells, one county each."""
    grid = HexGrid(grid_resolution)
    counties = {}
    service_cells = []
    for county_id, (q, r, count) in enumerate(cells):
        cell = CellId(grid_resolution, q, r)
        center = grid.center(cell)
        counties[county_id] = County(
            county_id=county_id,
            name=f"County {county_id}",
            seat=center,
            median_household_income_usd=incomes[county_id % len(incomes)],
        )
        service_cells.append(
            ServiceCell(
                cell=cell,
                center=center,
                county_id=county_id,
                unserved_locations=count,
                underserved_locations=0,
            )
        )
    return DemandDataset(
        cells=service_cells,
        counties=counties,
        grid_resolution=grid_resolution,
        description="scattered",
    )


def _assert_same_answer(index, tile_resolution):
    rows = tile_aggregates(index, tile_resolution)
    expected_rows = reference_tile_aggregates(index, tile_resolution)
    assert rows == expected_rows
    assert json.dumps(rows) == json.dumps(expected_rows)
    text = tiles_to_json(index, tile_resolution)
    got = tiles_to_geojson(index, tile_resolution)
    expected = reference_tiles_to_geojson(index, tile_resolution)
    # The encoder writes exactly what json.dumps writes for the oracle.
    assert text == json.dumps(expected)
    assert len(got["features"]) == len(expected["features"])
    for feature, oracle in zip(got["features"], expected["features"]):
        assert feature["properties"] == oracle["properties"]
        # repr-exact floats: json.dumps writes each float's shortest
        # round-tripping repr, so equal text means equal bits.
        assert json.dumps(feature) == json.dumps(oracle)
    assert json.dumps(got) == json.dumps(expected)


class TestAgainstOracle:
    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        grid_resolution=st.sampled_from((3, 5, 6)),
        span=st.sampled_from((2, 8, 40)),
        oversubscription=st.floats(0.05, 45.0, allow_nan=False),
        beamspread=st.floats(1.0, 12.0, allow_nan=False),
        income_share=st.floats(0.001, 0.08, allow_nan=False),
        seed=st.integers(0, 2**16),
    )
    def test_random_layouts_and_scenarios(
        self,
        data,
        grid_resolution,
        span,
        oversubscription,
        beamspread,
        income_share,
        seed,
    ):
        coords = data.draw(
            st.lists(
                st.tuples(
                    st.integers(-span, span), st.integers(-span, span)
                ),
                min_size=1,
                max_size=30,
                unique=True,
            )
        )
        counts = data.draw(
            st.lists(
                st.integers(0, 40),
                min_size=len(coords),
                max_size=len(coords),
            )
        )
        dataset = _scattered_dataset(
            grid_resolution,
            [(q, r, count) for (q, r), count in zip(coords, counts)],
            incomes=[9000.0, 42000.0, 180000.0],
        )
        params = ScenarioParams(oversubscription, beamspread, income_share)
        index = build_index(
            explode_cells_table(dataset, seed=seed),
            dataset,
            params,
            target_shard_rows=64,
        )
        tile_resolution = data.draw(st.integers(0, grid_resolution - 1))
        _assert_same_answer(index, tile_resolution)
        # A later epoch reuses the layout and still matches.
        swapped = index.with_params(ScenarioParams(0.5, 1.0, 0.01))
        _assert_same_answer(swapped, tile_resolution)

    @pytest.mark.parametrize("tile_resolution", range(5))
    def test_toy_every_resolution(self, toy_serve_index, tile_resolution):
        _assert_same_answer(toy_serve_index, tile_resolution)

    def test_national_default_resolution(self, national_serve_index):
        _assert_same_answer(national_serve_index, 3)

    def test_empty_index(self):
        dataset = build_toy_dataset([0, 0])
        index = build_index(explode_cells_table(dataset, seed=0), dataset)
        assert tile_aggregates(index) == []
        assert tiles_to_geojson(index) == reference_tiles_to_geojson(index)
        assert tiles_to_geojson(index)["features"] == []


class TestLayoutCache:
    def test_one_layout_per_store_and_resolution(self, toy_serve_index):
        store = toy_serve_index.store
        assert store.tile_layouts == {}
        tiles_to_geojson(toy_serve_index, 3)
        layout = store.tile_layouts[3]
        assert isinstance(layout, TileLayout)
        swapped = toy_serve_index.with_params(ScenarioParams(15.0, 2.0))
        assert swapped.store is store
        tile_aggregates(swapped, 3)
        tiles_to_geojson(swapped, 3)
        assert store.tile_layouts == {3: layout}
        assert store.tile_layouts[3] is layout
        tiles_to_geojson(swapped, 1)
        assert sorted(store.tile_layouts) == [1, 3]

    def test_engine_epochs_share_the_layout(self, toy_engine, monkeypatch):
        built = []
        build = TileLayout.build.__func__

        def counting_build(cls, *args):
            built.append(args)
            return build(cls, *args)

        monkeypatch.setattr(TileLayout, "build", classmethod(counting_build))
        first = toy_engine.tiles_geojson()
        layout = toy_engine.index.store.tile_layouts[3]
        heads = layout.heads
        asyncio.run(toy_engine.update_params(ScenarioParams(15.0, 2.0)))
        second = toy_engine.tiles_geojson()
        assert len(built) == 1
        assert toy_engine.index.store.tile_layouts == {3: layout}
        assert layout.heads is heads
        epochs = [json.loads(text)["epoch"] for text in (first, second)]
        assert epochs == [0, 1]
        assert first != second
        # Both answers splice the same encoded fragments, tile by tile.
        for text in (first, second):
            features = json.loads(text)["collection"]["features"]
            assert len(features) == len(heads)
            for head, feature in zip(heads, features):
                assert json.dumps(feature).startswith(head)

    def test_set_params_builds_no_layout(self, toy_engine):
        asyncio.run(toy_engine.update_params(ScenarioParams(15.0, 2.0)))
        toy_engine.index.with_params(ScenarioParams(5.0, 1.0))
        assert toy_engine.index.store.tile_layouts == {}

    @pytest.mark.parametrize("tile_resolution", (5, 6, 99, -1, -7))
    def test_rejected_resolution_adds_no_entry(
        self, toy_serve_index, tile_resolution
    ):
        with pytest.raises(ServeError, match="tile resolution"):
            tiles_to_geojson(toy_serve_index, tile_resolution)
        with pytest.raises(ServeError, match="tile resolution"):
            tile_aggregates(toy_serve_index, tile_resolution)
        assert toy_serve_index.store.tile_layouts == {}

    def test_layout_groups_cells_by_tile(self, national_serve_index):
        collection = tiles_to_geojson(national_serve_index, 3)
        layout = national_serve_index.store.tile_layouts[3]
        assert len(layout.tokens) == 724
        assert sum(layout.cells) == national_serve_index.n_cells
        tile_of_sorted = layout.inverse[layout.order]
        assert (tile_of_sorted[1:] >= tile_of_sorted[:-1]).all()
        assert tile_of_sorted[layout.starts].tolist() == list(range(724))
        assert layout.tokens == sorted(layout.tokens)
        assert len(layout.heads) == 724
        for head, feature in zip(layout.heads, collection["features"]):
            ring = feature["geometry"]["coordinates"][0]
            assert len(ring) == 7 and ring[0] == ring[-1]
            assert json.dumps(feature).startswith(head)

