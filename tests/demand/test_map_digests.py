"""The synthetic maps are pinned byte for byte.

Each config's generated dataset is reduced to SHA-256 digests of its
``to_columns()`` arrays and of its counties (id, name, seat, income, in
dict order), plus its description. A change to the generator that moves
any value, dtype, cell order or RNG draw changes a digest here, even
when every calibration statistic still holds.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.demand.regions import andes_highlands, northern_archipelago
from repro.demand.synthetic import SyntheticMapConfig, generate_national_map

CONFIGS = {
    "res5-default": lambda: SyntheticMapConfig(),
    "res5-seed1": lambda: SyntheticMapConfig(seed=1),
    "res6": lambda: SyntheticMapConfig.at_resolution(6),
    "res4-seed3": lambda: SyntheticMapConfig.at_resolution(4, seed=3),
    "andes": lambda: SyntheticMapConfig.for_region(andes_highlands()),
    "archipelago": lambda: SyntheticMapConfig.for_region(
        northern_archipelago()
    ),
}

#: Recorded from the object-per-cell generator; the columnar one matches.
EXPECTED = {
    "res5-default": (
        "synthetic national broadband map (seed=20250706)",
        {
            "cell_key": "d24102fd1197deab907d23e6656247504e4b8e90b9de66a7720e3cdfae1934d1",
            "center_lat": "29bc7e1cf96beee171c27834e8564d82c7108653cb342ee05bade5c98018aad3",
            "center_lon": "064e6531209ba52eb8c540707a37f3904ee0cecdb5162804eca7294ac7d7f36b",
            "county_id": "a844634c6a03044a26c0e00f5c023b4d84a01b0319ec3383c6b60a20a34cc5a0",
            "unserved": "4772996316ddba5c94fcf318b3b5c95e019fc1184bd8188b2df0551cbde8157f",
            "underserved": "9576e11ef07257203bea49b9ec59602c90691b2ba6457342e709b7692cdef0f6",
            "counties": "0454801a862f6ea2a64a142805bf803c503c2ae3fdde1357fedeb7423261725e",
        },
    ),
    "res5-seed1": (
        "synthetic national broadband map (seed=1)",
        {
            "cell_key": "c5874378f94c9e2d7432d82b6a83b0dc52900fd24d3a177f9d60b2b104b8fe73",
            "center_lat": "89605361ad19d71a8c070f0dcf4b6e10c23da0e5471f438d69a4bd2ce0509a8f",
            "center_lon": "c7d6c951769b211574db3b6e91e00ac02ec81c491a9710ae3d83f08568c53a8f",
            "county_id": "3e91e3e02f9da992fbcbff3e43316604f878a519bddcfd388fc10cc9c97e5015",
            "unserved": "d797d03dc9e8f41278df71183cc31102d8ae5497d9eb51203c16f97bfa8ac7b0",
            "underserved": "1cc0f13be570cc8ef9faced68b5b363f1f97ef1ac63213b7a823a4b8c4ffe64b",
            "counties": "f198f4d7a714106ee9077edbe08be5aad2278db46000e08acab2c7af97022784",
        },
    ),
    "res6": (
        "synthetic national map @ H3 res 6 (seed=20250706)",
        {
            "cell_key": "00d0a205fb6178a1b856f06a6c184eda9acc613d56246a5c627af062df2d7764",
            "center_lat": "4b65d04e80bab0811793738fd79a7de689f3c002eb60561c9d4c0ae80f7a55c7",
            "center_lon": "5d10f528219bef24fed87a60797676528c8defa672b6935771137d21d89099fe",
            "county_id": "c8c8ed020251407806ab81999f2b8239c8dccdaac543dbb7473935335e944851",
            "unserved": "9fb76b862f9e2ac96420c757c4ca93a9c8ae1d593881f82c07d0c85bcbf154b4",
            "underserved": "fad9854c074157c31c7e4694d0f141da1f668509786945bdc29850a3672eebd7",
            "counties": "f8ec02068e597bfdbade99474a968b7744089035533adfcd73272017a399b13b",
        },
    ),
    "res4-seed3": (
        "synthetic national map @ H3 res 4 (seed=3)",
        {
            "cell_key": "aac40ab816cde56110f4088b859fca6c2605d97d6695e1c069e649ac517067e3",
            "center_lat": "8350c2742bdac2cafe936991f5866770d758f875f5bae99a49c10b7d3ff81af9",
            "center_lon": "d578405cfe31894751977cbca237af138159429473f815b475feb6042315edac",
            "county_id": "fcda29dec4caeadcf239812a66106e85d6a22063c2e16761f8cc79bbc3c44270",
            "unserved": "14a1d10f29424e95f564368c4de31c389cdae978bf0524c2589ce738d5e1e1a8",
            "underserved": "ced71c2b7e4c351d20574aa648dfd5a8032ff8c3f6069b0cbaffcd9522a607ff",
            "counties": "3891a408f7f237162d68d4cac9be316b22e044614150c0289aaf857a012ec931",
        },
    ),
    "andes": (
        "Andes Highlands (stylized) (seed=20250706)",
        {
            "cell_key": "fe02e825ce08a20c966d3b80b55d4c0dcd3aef802896250761b53a2d4a4e64fd",
            "center_lat": "d3afcb2fd875ae8514d5c8d9de4d6742f050bae54968345e9be0ebe7ae73106e",
            "center_lon": "75e09983609d828f6737d9163c2896448c1bc05816d2f612077bf269c0371693",
            "county_id": "d5984f396f40601d618257faf15d991d2b23240336f958d762140249c853bf4d",
            "unserved": "1176af923b602e2fca072fca48178f45adb2fdbdb3d04e5a040ea22eb2a8158a",
            "underserved": "f17a3b8006083c1e3954d141bd4949930d8e908b4d58bbdf83d60c210bcaaeed",
            "counties": "36e8598dae445752393212240f9a0f979d627057e1e5656ee8073d77c3101351",
        },
    ),
    "archipelago": (
        "Northern Archipelago (stylized) (seed=20250706)",
        {
            "cell_key": "cd77bb02bfe24d8e17677e6c121ff6223308fe473ab99c36436a5d4b3c457fdd",
            "center_lat": "7f31db19148af08e2e379e685e8852e997168e6437367dc8979701463739bbf2",
            "center_lon": "84a5c534acba3002d8a28e8a5c7acc068889db4d7fc7b3b6b75d054ad8f83b19",
            "county_id": "9805479454606e7a4cbda9c2327634b75b9625f1508f20e5efa7ab07dc87b493",
            "unserved": "79003e622a277e004ec9d9d7147a68ee6529d1f31e32400fe0f6bffd7b3abd37",
            "underserved": "bfaf2371b16d36bbcd560f7978094e56abc027c77b286a4a326d4890385af04c",
            "counties": "a2eb61117da7d96743ad2066055d528770c12d99bfa043dd30f1c46b2b2d127c",
        },
    ),
}


def _sha256(*parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, str):
            digest.update(part.encode("utf-8"))
        else:
            digest.update(np.ascontiguousarray(part).tobytes())
    return digest.hexdigest()


def map_digests(dataset):
    """``(description, {part: sha256})`` of one dataset."""
    digests = {
        name: _sha256(column) for name, column in dataset.to_columns().items()
    }
    counties = list(dataset.counties.values())
    digests["counties"] = _sha256(
        np.array([c.county_id for c in counties], dtype=np.int64),
        "\n".join(c.name for c in counties),
        np.array(
            [(c.seat.lat_deg, c.seat.lon_deg) for c in counties], dtype=float
        ),
        np.array(
            [c.median_household_income_usd for c in counties], dtype=float
        ),
    )
    return dataset.description, digests


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_map_is_byte_identical(name):
    assert map_digests(generate_national_map(CONFIGS[name]())) == EXPECTED[name]
