"""Differential tests for the visibility index.

The precomputed :class:`VisibilityIndex` (KD-trees over chunks of the
static cells, satellites propagated by rotating cached epoch geometry) must
produce exactly the same per-cell visibility relation as the original
per-step KD-tree rebuild (``reference_visibility`` in
``tests/oracles/simulation.py``), at any time, with or without the
bent-pipe gateway mask.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.orbits.gateways import DEFAULT_CONUS_GATEWAYS
from repro.orbits.shells import GEN1_SHELLS, Shell
from repro.orbits.walker import WalkerDelta
from repro.sim import visibility_index
from repro.sim.simulation import ConstellationSimulation
from repro.sim.visibility_index import (
    CSRVisibility,
    VisibilityIndex,
    group_pairs,
)

from tests.oracles.simulation import reference_visibility


@pytest.fixture(scope="module")
def regional_sim(regional_dataset):
    return ConstellationSimulation(GEN1_SHELLS[:2], regional_dataset)


@pytest.fixture(scope="module")
def gateway_sim(regional_dataset):
    return ConstellationSimulation(
        GEN1_SHELLS[:1], regional_dataset, gateways=DEFAULT_CONUS_GATEWAYS
    )


def assert_matches_reference(sim, time_s):
    """Index output == reference rebuild output, cell for cell."""
    csr, fast_lats = sim.visibility_index.query(time_s)
    reference, reference_lats = reference_visibility(sim, time_s)
    assert csr.n_cells == len(reference)
    for cell_index, expected in enumerate(reference):
        np.testing.assert_array_equal(csr.cell(cell_index), expected)
    np.testing.assert_allclose(fast_lats, reference_lats, atol=1e-9)


class TestCSRVisibility:
    def _relation(self):
        return [
            np.array([0, 2], dtype=np.int64),
            np.array([], dtype=np.int64),
            np.array([1, 2, 3], dtype=np.int64),
        ]

    def test_round_trip_lists(self):
        lists = self._relation()
        csr = CSRVisibility.from_lists(lists, n_satellites=4)
        assert csr.n_cells == 3
        assert csr.nnz == 5
        for cell_index, original in enumerate(lists):
            np.testing.assert_array_equal(csr.cell(cell_index), original)

    def test_cell_and_counts(self):
        csr = CSRVisibility.from_lists(self._relation(), n_satellites=4)
        np.testing.assert_array_equal(csr.counts(), [2, 0, 3])
        np.testing.assert_array_equal(csr.cell(2), [1, 2, 3])

    def test_filter_satellites_matches_list_filter(self):
        lists = self._relation()
        csr = CSRVisibility.from_lists(lists, n_satellites=4)
        keep = np.array([True, False, True, False])
        filtered = csr.filter_satellites(keep)
        expected = [sats[keep[sats]] for sats in lists]
        for cell_index, original in enumerate(expected):
            np.testing.assert_array_equal(filtered.cell(cell_index), original)
        assert filtered.n_satellites == csr.n_satellites

    def test_rejects_misshapen_indptr(self):
        with pytest.raises(SimulationError):
            CSRVisibility(
                indptr=np.array([0, 1], dtype=np.int64),
                indices=np.array([0, 1], dtype=np.int64),
                n_satellites=2,
            )


class TestEciStateBasis:
    def test_basis_reproduces_direct_propagation(self):
        walker = WalkerDelta.from_shell(GEN1_SHELLS[0])
        pos0, tan0 = walker.eci_state_basis()
        n = walker.mean_motion_rad_s
        for time_s in (0.0, 17.0, 600.0, 5431.5):
            angle = n * time_s
            rotated = np.cos(angle) * pos0 + np.sin(angle) * tan0
            np.testing.assert_allclose(
                rotated, walker.positions_eci(time_s), atol=1e-6
            )

    def test_epoch_basis_is_exact_position(self):
        walker = WalkerDelta.from_shell(GEN1_SHELLS[1])
        pos0, _ = walker.eci_state_basis()
        np.testing.assert_allclose(pos0, walker.positions_eci(0.0), atol=1e-9)


class TestAgainstReference:
    @pytest.mark.parametrize("time_s", [0.0, 60.0, 600.0, 3600.0])
    def test_matches_reference_rebuild(self, regional_sim, time_s):
        assert_matches_reference(regional_sim, time_s)

    @pytest.mark.parametrize("time_s", [0.0, 300.0])
    def test_matches_reference_with_gateways(self, gateway_sim, time_s):
        assert_matches_reference(gateway_sim, time_s)

    @given(time_s=st.floats(min_value=0.0, max_value=86400.0))
    @settings(max_examples=20, deadline=None)
    def test_matches_reference_at_random_times(self, regional_sim, time_s):
        assert_matches_reference(regional_sim, time_s)


class TestIndexValidation:
    def test_rejects_mismatched_radii(self, regional_sim):
        with pytest.raises(SimulationError):
            VisibilityIndex(
                regional_sim.walkers,
                regional_sim._cell_ecef,
                regional_sim._chord_radii[:1],
            )

    def test_gateway_radii_required_with_gateways(self, gateway_sim):
        with pytest.raises(SimulationError):
            VisibilityIndex(
                gateway_sim.walkers,
                gateway_sim._cell_ecef,
                gateway_sim._chord_radii,
                gateway_ecef=gateway_sim._gateway_ecef,
            )

    @pytest.mark.parametrize("window", [0, -3, True, "fast", 2.5])
    def test_rejects_bad_windows(self, regional_sim, window):
        with pytest.raises(SimulationError):
            VisibilityIndex(
                regional_sim.walkers,
                regional_sim._cell_ecef,
                regional_sim._chord_radii,
                window=window,
            )

    def test_configure_window_validates_too(self, regional_sim):
        index = _paired_indexes(regional_sim, 1, None)[0]
        with pytest.raises(SimulationError):
            index.configure_window(window=0)
        index.configure_window(window="auto", step_hint_s=15.0)
        assert index._window == "auto"


class TestGroupPairs:
    """The O(nnz) CSR grouping vs the fused-argsort it replaced."""

    def _reference_indptr(self, cells, n_cells):
        indptr = np.zeros(n_cells + 1, dtype=np.int64)
        np.cumsum(np.bincount(cells, minlength=n_cells), out=indptr[1:])
        return indptr

    def test_empty_pairs(self):
        indptr, order = group_pairs(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 4, 9
        )
        np.testing.assert_array_equal(indptr, np.zeros(5, dtype=np.int64))
        assert order.size == 0

    def test_matches_fused_argsort_on_random_pairs(self):
        rng = np.random.default_rng(20250807)
        for _ in range(25):
            n_cells = int(rng.integers(1, 24))
            n_sats = int(rng.integers(1, 24))
            universe = n_cells * n_sats
            nnz = int(rng.integers(0, universe + 1))
            flat = rng.choice(universe, size=nnz, replace=False)
            cells = (flat // n_sats).astype(np.int64)
            sats = (flat % n_sats).astype(np.int64)
            indptr, order = group_pairs(cells, sats, n_cells, n_sats)
            # Small enough that the legacy fused key cannot overflow.
            fused = np.argsort(cells * n_sats + sats)
            np.testing.assert_array_equal(sats[order], sats[fused])
            np.testing.assert_array_equal(cells[order], cells[fused])
            np.testing.assert_array_equal(
                indptr, self._reference_indptr(cells, n_cells)
            )

    def test_duplicate_pair_raises(self):
        cells = np.array([2, 0, 2], dtype=np.int64)
        sats = np.array([7, 1, 7], dtype=np.int64)
        with pytest.raises(SimulationError):
            group_pairs(cells, sats, 3, 9)

    def test_immune_to_fused_key_overflow(self):
        # With n_satellites = 2**62 the legacy key
        # ``cells * n_satellites + sats`` wraps int64 for any cell >= 2,
        # scrambling the grouping. The counting sort never forms the
        # product, so satellite ids up to the full int64 range group
        # correctly.
        n_satellites = 2**62
        cells = np.array([2, 0, 2, 1], dtype=np.int64)
        sats = np.array([2**61, 5, 3, 2**60], dtype=np.int64)
        indptr, order = group_pairs(cells, sats, 3, n_satellites)
        np.testing.assert_array_equal(indptr, [0, 1, 2, 4])
        np.testing.assert_array_equal(sats[order], [5, 2**60, 3, 2**61])
        np.testing.assert_array_equal(cells[order], [0, 1, 2, 2])


class TestGatewayKD:
    def test_eligibility_matches_dense_reference(self, gateway_sim):
        index = gateway_sim.visibility_index
        gateways = gateway_sim._gateway_ecef
        radius = index._shells[0].gateway_radius_km
        for time_s in (0.0, 451.0, 7200.0):
            sat_ecef = index.satellite_ecef(0, time_s)
            mask = index.gateway_eligibility(0, sat_ecef)
            deltas = sat_ecef[:, None, :] - gateways[None, :, :]
            dense = (
                (deltas * deltas).sum(axis=-1) <= radius * radius
            ).any(axis=1)
            np.testing.assert_array_equal(mask, dense)
            assert mask.any() and not mask.all()


def _build_index(sim, window, step_hint_s, cell_ecef=None):
    """A fresh index over the sim's cells (or ``cell_ecef``)."""
    kwargs = {}
    if sim.gateways:
        kwargs = dict(
            gateway_ecef=sim._gateway_ecef,
            gateway_radii_km=sim._gateway_radii,
        )
    return VisibilityIndex(
        sim.walkers,
        sim._cell_ecef if cell_ecef is None else cell_ecef,
        sim._chord_radii,
        window=window,
        step_hint_s=step_hint_s,
        **kwargs,
    )


def _paired_indexes(sim, window, step_hint_s):
    """A windowed index and an exact per-step rebuild twin for one sim."""
    return _build_index(sim, window, step_hint_s), _build_index(sim, 1, None)


def assert_windowed_matches_rebuild(sim, times_s, window, step_hint_s):
    """Bit-identity of the cached-candidate mode against the rebuild."""
    cached, exact = _paired_indexes(sim, window, step_hint_s)
    for time_s in times_s:
        cached_csr, cached_lats = cached.query(time_s)
        exact_csr, exact_lats = exact.query(time_s)
        np.testing.assert_array_equal(cached_csr.indptr, exact_csr.indptr)
        np.testing.assert_array_equal(cached_csr.indices, exact_csr.indices)
        np.testing.assert_array_equal(cached_lats, exact_lats)
    return cached


class TestWindowedVisibility:
    """Cached-candidate windows == per-step rebuilds, bit for bit."""

    def test_full_orbital_period_multi_shell(self, regional_sim):
        # One full orbit of the lowest shell, sampled at a step count
        # (23) not divisible by the window (5): the final window is
        # ragged and the constellation returns to its epoch geometry.
        period_s = 2.0 * np.pi / regional_sim.walkers[0].mean_motion_rad_s
        step_s = period_s / 22.0
        times = [index * step_s for index in range(23)]
        cached = assert_windowed_matches_rebuild(
            regional_sim, times, window=5, step_hint_s=step_s
        )
        assert cached.last_query_stats["mode"] == "cached"

    def test_window_boundaries_with_ragged_tail(self, regional_sim):
        # 23 steps through windows of 4: rebuilds must land exactly on
        # steps 0, 4, 8, ... and every in-window step must still match.
        times = [index * 30.0 for index in range(23)]
        cached, exact = _paired_indexes(regional_sim, 4, 30.0)
        rebuilds = 0
        for time_s in times:
            cached_csr, _ = cached.query(time_s)
            exact_csr, _ = exact.query(time_s)
            np.testing.assert_array_equal(
                cached_csr.indptr, exact_csr.indptr
            )
            np.testing.assert_array_equal(
                cached_csr.indices, exact_csr.indices
            )
            stats = cached.last_query_stats
            assert stats["window_rebuilt"] == (time_s % 120.0 == 0.0)
            rebuilds += stats["window_rebuilt"]
            assert stats["candidates"] >= stats["kept"] == cached_csr.nnz
            assert 0.0 <= stats["refine_ratio"] <= 1.0
        assert rebuilds == 6  # ceil(23 / 4)

    def test_gateway_mask_applied_inside_windows(self, gateway_sim):
        times = [index * 60.0 for index in range(7)]
        assert_windowed_matches_rebuild(
            gateway_sim, times, window=3, step_hint_s=60.0
        )

    def test_out_of_order_query_times_still_exact(self, regional_sim):
        # Jumping backwards out of the cached window must trigger a
        # rebuild, never a wrong answer.
        times = [300.0, 330.0, 0.0, 360.0, 30.0, 300.0]
        assert_windowed_matches_rebuild(
            regional_sim, times, window=4, step_hint_s=30.0
        )

    def test_auto_mode_caches_at_fine_steps(self, regional_sim):
        cached, exact = _paired_indexes(regional_sim, "auto", 1.0)
        for time_s in (0.0, 1.0, 2.0, 3.0):
            cached_csr, _ = cached.query(time_s)
            exact_csr, _ = exact.query(time_s)
            np.testing.assert_array_equal(
                cached_csr.indptr, exact_csr.indptr
            )
            np.testing.assert_array_equal(
                cached_csr.indices, exact_csr.indices
            )
        stats = cached.last_query_stats
        assert stats["mode"] == "cached"
        assert stats["window_steps"] > 1

    def test_auto_mode_rebuilds_at_coarse_steps(self, regional_sim):
        cached, _ = _paired_indexes(regional_sim, "auto", 60.0)
        cached.query(0.0)
        assert cached.last_query_stats["mode"] == "rebuild"
        assert cached.last_query_stats["window_steps"] == 1

    def test_window_without_hint_falls_back_then_infers(self, regional_sim):
        cached, exact = _paired_indexes(regional_sim, 4, None)
        cached_csr, _ = cached.query(0.0)
        assert cached.last_query_stats["mode"] == "rebuild"
        for time_s in (20.0, 40.0, 60.0):
            cached_csr, _ = cached.query(time_s)
            exact_csr, _ = exact.query(time_s)
            np.testing.assert_array_equal(
                cached_csr.indptr, exact_csr.indptr
            )
            np.testing.assert_array_equal(
                cached_csr.indices, exact_csr.indices
            )
        assert cached.last_query_stats["mode"] == "cached"

    @given(
        window=st.integers(min_value=2, max_value=6),
        step_s=st.floats(min_value=5.0, max_value=240.0),
        start_s=st.floats(min_value=0.0, max_value=86400.0),
    )
    @settings(max_examples=10, deadline=None)
    def test_random_windows_match_rebuild(
        self, regional_sim, window, step_s, start_s
    ):
        times = [start_s + index * step_s for index in range(window + 2)]
        assert_windowed_matches_rebuild(
            regional_sim, times, window=window, step_hint_s=step_s
        )

    @given(
        altitude_km=st.floats(min_value=420.0, max_value=1300.0),
        inclination_deg=st.floats(min_value=35.0, max_value=97.0),
        planes=st.integers(min_value=2, max_value=6),
        sats_per_plane=st.integers(min_value=2, max_value=8),
        window=st.integers(min_value=2, max_value=5),
        step_s=st.floats(min_value=10.0, max_value=120.0),
    )
    @settings(max_examples=8, deadline=None)
    def test_random_constellations_match_rebuild(
        self,
        regional_dataset,
        altitude_km,
        inclination_deg,
        planes,
        sats_per_plane,
        window,
        step_s,
    ):
        shell = Shell(
            name="hypothesis",
            satellite_count=planes * sats_per_plane,
            altitude_km=altitude_km,
            inclination_deg=inclination_deg,
            planes=planes,
            sats_per_plane=sats_per_plane,
        )
        sim = ConstellationSimulation([shell], regional_dataset)
        times = [index * step_s for index in range(window + 2)]
        assert_windowed_matches_rebuild(
            sim, times, window=window, step_hint_s=step_s
        )


class TestChunkEdges:
    """Chunk boundaries anywhere, even one cell per chunk, change nothing.

    Every pass walks the cells in runs of ``_CHUNK_CELLS``; the regional
    fixture's 98 cells fit one default chunk, so these shrink the chunk
    to cut the cells at every position a boundary can take.
    """

    SIMS = ("regional_sim", "gateway_sim")

    @pytest.fixture(params=[1, 7, 64])
    def chunk_cells(self, request, monkeypatch):
        monkeypatch.setattr(visibility_index, "_CHUNK_CELLS", request.param)
        return request.param

    @pytest.mark.parametrize("sim_name", SIMS)
    def test_rebuild_matches_reference(self, request, chunk_cells, sim_name):
        sim = request.getfixturevalue(sim_name)
        index = _build_index(sim, 1, None)
        n_cells = sim.dataset.n_cells
        assert len(index._chunks) == -(-n_cells // chunk_cells)
        for time_s in (0.0, 300.0, 3600.0):
            csr, lats = index.query(time_s)
            reference, reference_lats = reference_visibility(sim, time_s)
            assert csr.n_cells == len(reference) == n_cells
            assert csr.indices.dtype == np.int64
            for cell_index, expected in enumerate(reference):
                np.testing.assert_array_equal(csr.cell(cell_index), expected)
            np.testing.assert_allclose(lats, reference_lats, atol=1e-9)

    @pytest.mark.parametrize("sim_name", SIMS)
    @pytest.mark.parametrize("window", [3, 5])
    def test_windows_with_ragged_tails_match_rebuild(
        self, request, chunk_cells, sim_name, window
    ):
        # 11 steps: windows of 3 leave a tail of 2, windows of 5 one.
        sim = request.getfixturevalue(sim_name)
        times = [600.0 + 20.0 * step for step in range(11)]
        cached = assert_windowed_matches_rebuild(
            sim, times, window=window, step_hint_s=20.0
        )
        assert cached.last_query_stats["mode"] == "cached"

    @pytest.mark.parametrize("sim_name", SIMS)
    def test_stats_match_single_chunk(
        self, request, monkeypatch, chunk_cells, sim_name
    ):
        sim = request.getfixturevalue(sim_name)
        chunked = (_build_index(sim, 1, None), _build_index(sim, 5, 20.0))
        monkeypatch.setattr(
            visibility_index, "_CHUNK_CELLS", sim.dataset.n_cells
        )
        single = (_build_index(sim, 1, None), _build_index(sim, 5, 20.0))
        assert len(single[0]._chunks) == 1
        for time_s in [20.0 * step for step in range(7)]:
            for split, whole in zip(chunked, single):
                split_csr, _ = split.query(time_s)
                whole_csr, _ = whole.query(time_s)
                np.testing.assert_array_equal(
                    split_csr.indptr, whole_csr.indptr
                )
                np.testing.assert_array_equal(
                    split_csr.indices, whole_csr.indices
                )
                assert split.last_query_stats == whole.last_query_stats

    @pytest.mark.parametrize("window", [1, 3])
    def test_empty_cell_set(self, gateway_sim, chunk_cells, window):
        index = _build_index(
            gateway_sim, window, 20.0, cell_ecef=np.empty((0, 3))
        )
        assert index._chunks == []
        populated = _build_index(gateway_sim, 1, None)
        for time_s in (0.0, 20.0, 40.0):
            csr, lats = index.query(time_s)
            np.testing.assert_array_equal(csr.indptr, [0])
            assert csr.nnz == 0 and csr.indices.dtype == np.int64
            np.testing.assert_array_equal(lats, populated.query(time_s)[1])
            stats = index.last_query_stats
            assert stats["candidates"] == stats["kept"] == 0
            assert stats["refine_ratio"] == 1.0
