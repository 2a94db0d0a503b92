"""Every byte of the ``tiles`` answer, pinned by SHA-256.

``test_golden_tiles.py`` pins national totals and the densest tiles to
six decimals; these digests pin the whole answer: every tile, field,
float and polygon vertex, in order. Each digest is of the bytes on the
wire, ``tiles_to_json(index, r)``, and equally of
``json.dumps(tiles_to_geojson(index, r))``, at every tile resolution the
grid allows. They were recorded from the per-tile scan with scalar
polygons that ``tests/oracles/tiles.py`` keeps, so a faster rollup or
encoder must reproduce that answer exactly.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.serve import ScenarioParams, tiles_to_geojson, tiles_to_json

#: The two scenarios the digests cover: the FCC's 20:1 at beamspread 1
#: (the default), and 15:1 at beamspread 2.
DEFAULT = ScenarioParams()
SWAPPED = ScenarioParams(15.0, 2.0)

#: The national res-5 map (seed 20250706, exploded with seed 0), by
#: (scenario, tile resolution).
NATIONAL_DIGESTS = {
    (DEFAULT, 0): "8e809a705de61da51a6663cafdadc89166285d70802f26883ca500b7f62de758",
    (DEFAULT, 1): "6350ad7ec34d603686b7d0488ff7e174d7efeb7aa56c261ca350766ff84003c4",
    (DEFAULT, 2): "19f046b999e8f14eebf8bd1e3153c2c1f3abd7892af7d4c44b43977c5f20a5fb",
    (DEFAULT, 3): "e8d47c59f2916d86f6dd9eae3bbcfdf01164ba42f6b874d362f1100be0e51eb7",
    (DEFAULT, 4): "2c76b08fc35b8d657b9d8baf37b7ee788197423a65ebddd0985aaa91df87adc1",
    (SWAPPED, 0): "b5089f3c9fbb119a6308ff080f57c53c1295c8ece15b84bcc50e3f73af868c6a",
    (SWAPPED, 1): "5fe1104d485d928e45aa5330d30fe5c3c3d989ad2ce62afcee2a9207ee050614",
    (SWAPPED, 2): "4725be0126e77e7313c1b9383eb272fa8bfdf87ff999b0629946427157438396",
    (SWAPPED, 3): "50d40da5d09a40a0b689a6cdd1d2c67dd47477238c353d0c067c313492a5dd82",
    (SWAPPED, 4): "2a6f3e3d59a8b8d5b164c1d7c4682cf5100c8382360ed217992e6ba9c040cdca",
}

#: The toy serving index of ``tests/serve/conftest.py``.
TOY_DIGESTS = {
    (DEFAULT, 0): "d23a6328c88f262209fbccc934f41fb6dfab0455604a161880a6f0bd0f01f530",
    (DEFAULT, 1): "86e9a21cf1a30499aeb3b9c93eb6717595139f88a3ee26cd9409db3ee4b70504",
    (DEFAULT, 2): "ee3522875814db00678208b2c9f6a60498d93dcea038e1abbed48ef74e1e7d86",
    (DEFAULT, 3): "3fc0f5180130cd4a5ad65133b75ee3b986d3014bb10f7df8ef2403242e6e2ad4",
    (DEFAULT, 4): "45d2a260bc9b4fc84c2776eaf057fb1fa303c2ec19e4ca751c5637895ebce94f",
    (SWAPPED, 0): "b75a8d2ce68e3f5f04f3eb078c2e26007aa533d34526641dd35dc1098cc9fb40",
    (SWAPPED, 1): "e06019c14b4c67b8a8729c92fca2c26e5bf4d1bd213d15b5115a4358457145ba",
    (SWAPPED, 2): "a2b1b52414b31b7766aa33c47d1aa0e2d5a3ebf0df525cbb177de6b94f78d8f3",
    (SWAPPED, 3): "3ab7fd63f609689554aa327f599396ea42454caf9bff291cc1a24bf1a97f28e6",
    (SWAPPED, 4): "2ca467dfffb076f03a1ff93d1091a7496a5285101c7afb36c18a12508c8fdedf",
}


def _digest(index, tile_resolution):
    """The answer's digest; the encoder's text and the decoded answer
    re-encoded by ``json.dumps`` must hash alike."""
    text = tiles_to_json(index, tile_resolution)
    decoded = json.dumps(tiles_to_geojson(index, tile_resolution))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert hashlib.sha256(decoded.encode()).hexdigest() == digest
    return digest


@pytest.fixture(scope="module")
def national_swapped(national_serve_index):
    return national_serve_index.with_params(SWAPPED)


@pytest.mark.parametrize("tile_resolution", range(5))
def test_national_default_scenario(national_serve_index, tile_resolution):
    assert national_serve_index.params == DEFAULT
    assert (
        _digest(national_serve_index, tile_resolution)
        == NATIONAL_DIGESTS[DEFAULT, tile_resolution]
    )


@pytest.mark.parametrize("tile_resolution", range(5))
def test_national_after_scenario_swap(national_swapped, tile_resolution):
    assert (
        _digest(national_swapped, tile_resolution)
        == NATIONAL_DIGESTS[SWAPPED, tile_resolution]
    )


@pytest.mark.parametrize("params", (DEFAULT, SWAPPED), ids=("20-1", "15-2"))
@pytest.mark.parametrize("tile_resolution", range(5))
def test_toy(toy_serve_index, params, tile_resolution):
    # The answers carry the epoch: the default scenario is epoch 0.
    if params != toy_serve_index.params:
        index = toy_serve_index.with_params(params)
    else:
        index = toy_serve_index
    assert _digest(index, tile_resolution) == TOY_DIGESTS[
        params, tile_resolution
    ]
