"""The exploded location table and its bin counts are pinned byte for byte.

Each case explodes a dataset with one seed, reduces every table column
to a SHA-256 digest, and digests the bin counts (cell keys, unserved and
underserved counts, in key order) at the dataset's own resolution and
one coarser. A change to explode or bin that moves any position, offer,
dtype, row order or count changes a digest here, even when every
differential against the scalar reference still holds.

The digests were recorded from the whole-table explode and bin; the
chunked passes must match them.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.demand.locations import (
    _TABLE_COLUMNS,
    bin_table,
    explode_cells_table,
)
from repro.demand.regions import QUICK_BBOX

EXPECTED = {
    ("national", 0): {
        "location_id": "b2b85b18c5f4fd7bf4a72b2ad02cbb6d35343ccc79e12083889c3f154677f56a",
        "lat_deg": "af6f1a48e5f0e1d86cd8984a715891d953d69d4b0bd165ce0e9dc1904701a3e3",
        "lon_deg": "ac0fd61beb3ea67aa3c4f715f59cd0df35eb1ec05d5ec1d80b26c17feb7b460d",
        "cell_key": "ef4e755efc1d0ecb5af74cac6bf9667483eb9f14612496eeb0dc87a590afc027",
        "county_id": "90e64c6022cb0ab0916bfab67082b27bb2ef3ce9a406a60e63fad05f2c183639",
        "technology": "6613aa0cecd28239036ea9dac2eb5ed98da8f4d4972b7e52e9058a37cdcd89fd",
        "max_download_mbps": "0f7865076339c9535d1440125caed7e920b75df1dd0954fdc6b3d9372b45fbb9",
        "max_upload_mbps": "b871b055df9da27f6761e448bb22da080a4f5ebfed657761a253c773ecdc1b94",
        "bin_res5": "479e287b5ec993582d60340040f561ea7c04f3549ae8f33115bd68314a53f235",
        "bin_res4": "779248e30cc0e5cabf5757797d1b1d8fa8a00df3d2f7e677b5f2c7f6494a9370",
    },
    ("national", 1): {
        "location_id": "b2b85b18c5f4fd7bf4a72b2ad02cbb6d35343ccc79e12083889c3f154677f56a",
        "lat_deg": "8f083d97253e903bb626efe2068a85068e472ae150588eb1449cf76b0e226dfe",
        "lon_deg": "e3030d204858a40fb66196dc56e9899702dd875cabe31aa3f61747c7d2a1d637",
        "cell_key": "ef4e755efc1d0ecb5af74cac6bf9667483eb9f14612496eeb0dc87a590afc027",
        "county_id": "90e64c6022cb0ab0916bfab67082b27bb2ef3ce9a406a60e63fad05f2c183639",
        "technology": "e5c96c9f961b281c09fa43509abe73be34db7302354675b54e926229714c523f",
        "max_download_mbps": "cfb68b90398295f0e2db87cadacc02e25f9108337becbe3c8044238ba7eb9627",
        "max_upload_mbps": "d937c0ce5a4c176ee7a554bca1821abc8addb44b358ad6f6b3b69e347d77955f",
        "bin_res5": "479e287b5ec993582d60340040f561ea7c04f3549ae8f33115bd68314a53f235",
        "bin_res4": "39840e3c89dcfa4922688213ff65f3bb708c681bcfc6dc95d44f0b66c6745ff3",
    },
    ("quick", 0): {
        "location_id": "18976a2fd4d7bc61f5e81f3431a9d575019d7ad21e9654ec496715c51ecd48f2",
        "lat_deg": "53d560a7c9caf61b1a9249e50b4cb347507ded30b1a18c99123b86044faa2320",
        "lon_deg": "a36123011970934814494fcb90eecb1d9f051e1de596da70ce2a5258ab995c36",
        "cell_key": "f5580b328b5ecc6941719b1e0e76010d41f9b4e0a6820097110f68c6a0903f1b",
        "county_id": "2c3a1b7b402eaa25a79d98fd1359272b6a7eb6defa3ffcd4ac9361b206a955d2",
        "technology": "315af20003bf1223ff011ad430f4fe3a51f65cb139212a9f859c85dd642582a4",
        "max_download_mbps": "217b9736331c5e1ff1dfc8a83d283fad7ede835c4f60cb5a8cd9867525c3013f",
        "max_upload_mbps": "8d6a6a6bd7cf67384e6c45aa9bca0843aa8a5ce243b49da881c76e6ad2e5b306",
        "bin_res5": "596efe8e15965969897a67a3d9da2fff1c32959976dbaa7ef0c99e34af4091c0",
        "bin_res4": "c24a998f1ed15208c72742ba94d0f4f77da6058e10af4c2bca36ca004e2d6759",
    },
    ("quick", 1): {
        "location_id": "18976a2fd4d7bc61f5e81f3431a9d575019d7ad21e9654ec496715c51ecd48f2",
        "lat_deg": "a732fdaa2141ce2ad25f84fa5bba8a094ecac984ef03e2575f29493c6ca40115",
        "lon_deg": "010264cc5c3d8c58a47a1712a94ac2288e0e735b3843a7fd4bb3404dbd7ac1da",
        "cell_key": "f5580b328b5ecc6941719b1e0e76010d41f9b4e0a6820097110f68c6a0903f1b",
        "county_id": "2c3a1b7b402eaa25a79d98fd1359272b6a7eb6defa3ffcd4ac9361b206a955d2",
        "technology": "8f732ebb4824a62ad9ac8a1834c1bf3b7b1ddffd55ba432385a8b0b66af5224d",
        "max_download_mbps": "c087e8b7e1a434b711cddeebecf17643d07cc54b43eb24888b234e5b11681289",
        "max_upload_mbps": "48e8d9ad3ddad09e03c79562f7998dd7eca8f89999a0d308ae8c55505f221153",
        "bin_res5": "596efe8e15965969897a67a3d9da2fff1c32959976dbaa7ef0c99e34af4091c0",
        "bin_res4": "1a4439e4e1aae2aa416d8b578512d37646ed5cdad994c0630a1ceb62fcbcb121",
    },
}


def _sha256(*arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def bin_digest(bins) -> str:
    """SHA-256 of a ``bin_table`` answer: keys, unserved, underserved."""
    items = sorted((cell.key, counts) for cell, counts in bins.items())
    return _sha256(
        np.array([key for key, _ in items], dtype=np.uint64),
        np.array([u for _, (u, _) in items], dtype=np.int64),
        np.array([d for _, (_, d) in items], dtype=np.int64),
    )


def location_digests(dataset, seed):
    """``{part: sha256}`` of one dataset's exploded table and its bins."""
    table = explode_cells_table(dataset, seed=seed)
    digests = {
        name: _sha256(getattr(table, name)) for name in _TABLE_COLUMNS
    }
    resolution = dataset.grid_resolution
    for res in (resolution, resolution - 1):
        digests[f"bin_res{res}"] = bin_digest(bin_table(table, res))
    return digests


def _quick(national_dataset):
    return national_dataset.subset_bbox(*QUICK_BBOX, "test region")


DATASETS = {"national": lambda d: d, "quick": _quick}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(DATASETS))
def test_locations_are_byte_identical(national_dataset, name, seed):
    dataset = DATASETS[name](national_dataset)
    assert location_digests(dataset, seed) == EXPECTED[(name, seed)]
