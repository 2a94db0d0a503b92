"""Visibility relations and a busy-hour timeline, pinned byte for byte.

On the national map (20,824 cells at res 5, Gen1's 4,408 satellites)
each case reduces what the step engine produced to one SHA-256 digest:
the CSR ``indptr`` and ``indices`` plus the satellite latitudes of
exact per-step rebuilds, of every step of a cached K=5 window at 5 s,
and the report and unserved hours of a 5-step 5 s proportional-fair
timeline. A change to how visibility is queried, grouped or cached that
moves any pair, order or dtype changes a digest here, even when the
windowed-vs-rebuild differentials still agree with each other.

The digests were recorded from the single cell-tree index; the chunked
passes must match them.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.orbits.shells import GEN1_SHELLS
from repro.sim.simulation import ConstellationSimulation
from repro.timeline import (
    DiurnalProfile,
    HandoverChurnModel,
    TimelineConfig,
    run_timeline,
)

REBUILD = {
    0.0: "4e2f2407fc8c364401a12a4979ec264c9235839641e616a9ae8035b2d881336c",
    60.0: "3b8621e7885cec57b981fd1052ee37a8bf58906e60642e752f92c2e96b50c7aa",
    3600.0: "2f9970230f37977f12d83cb6be277159f1af54fb6c3eb35b229fe2ee39f67ccf",
}
WINDOW_START_S = 7200.0
WINDOW = "fa8e566e39dbcd9323ab07f370adcfb38686f15d5b257f420853526e59a3a7a5"
TIMELINE = "3b4336ddf71fb31c616e4f9f2a0d87ec4db29d9c87563c347ba215e7ab151124"


def _relation_digest(index, times_s) -> str:
    digest = hashlib.sha256()
    for time_s in times_s:
        csr, lats = index.query(time_s)
        for array in (csr.indptr, csr.indices, lats):
            digest.update(str(array.dtype).encode())
            digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def _index(dataset, window):
    return ConstellationSimulation(
        GEN1_SHELLS, dataset, visibility_window=window
    ).visibility_index


@pytest.mark.parametrize("time_s", sorted(REBUILD))
def test_rebuild_relation(national_dataset, time_s):
    index = _index(national_dataset, 1)
    assert _relation_digest(index, [time_s]) == REBUILD[time_s]
    assert index.last_query_stats["mode"] == "rebuild"


def test_cached_window_relations(national_dataset):
    index = _index(national_dataset, 5)
    index.configure_window(step_hint_s=5.0)
    times = [WINDOW_START_S + 5.0 * step for step in range(7)]
    assert _relation_digest(index, times) == WINDOW
    assert index.last_query_stats["mode"] == "cached"


def test_fair_timeline(national_dataset):
    config = TimelineConfig(
        duration_s=25.0,
        step_s=5.0,
        profile=DiurnalProfile.residential(),
        churn=HandoverChurnModel(),
        strategy="fair",
        start_s=WINDOW_START_S,
    )
    result = run_timeline(national_dataset, list(GEN1_SHELLS), config)
    digest = hashlib.sha256()
    digest.update(repr(dataclasses.astuple(result.report)).encode())
    digest.update(result.unserved_hours_per_day().tobytes())
    assert result.steps == 5
    assert digest.hexdigest() == TIMELINE
