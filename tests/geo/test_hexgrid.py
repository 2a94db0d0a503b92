"""Tests for the hexagonal discrete global grid."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GeometryError
from repro.geo.coords import LatLon, haversine_km
from repro.geo.hexgrid import (
    CellId,
    H3_MEAN_HEX_AREA_KM2,
    HexGrid,
    STARLINK_CELL_RESOLUTION,
    pack_cell_keys,
    unpack_cell_keys,
)
from repro.geo.polygon import Polygon

lat_strategy = st.floats(min_value=-75.0, max_value=75.0)
lon_strategy = st.floats(min_value=-179.0, max_value=179.0)


@pytest.fixture(scope="module")
def grid():
    return HexGrid(STARLINK_CELL_RESOLUTION)


def _grid_edges(grid):
    """The antimeridian column and the pole rows (as ``r + q/2``)."""
    a = grid.hex_size_km
    radius = grid.projection.radius_km
    q_edge = math.ceil(math.pi * radius / (1.5 * a))
    r_pole = radius / (math.sqrt(3.0) * a)
    return q_edge, r_pole, -r_pole


@st.composite
def _edge_heavy_cells(draw):
    """(resolution, keys): cells anywhere on the grid, with extra weight
    on the antimeridian column and on rows past either pole line."""
    resolution = draw(st.integers(min_value=0, max_value=10))
    q_edge, r_north, r_south = _grid_edges(HexGrid(resolution))
    near = st.integers(min_value=-3, max_value=3)
    keys = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        q = draw(
            st.one_of(
                st.integers(min_value=-q_edge - 3, max_value=q_edge + 3),
                near.map(lambda d: q_edge + d),
                near.map(lambda d: -q_edge + d),
            )
        )
        north = round(r_north - q / 2.0)
        south = round(r_south - q / 2.0)
        r = draw(
            st.one_of(
                st.integers(min_value=south - 3, max_value=north + 3),
                near.map(lambda d: north + d),
                near.map(lambda d: south + d),
            )
        )
        keys.append(CellId(resolution, q, r).key)
    return resolution, keys


def _assert_polygons_bit_identical(grid, keys):
    """``polygons_many`` equals per-cell ``cell_polygon`` bit for bit."""
    lat, lon = grid.polygons_many(np.array(keys, dtype=np.uint64))
    assert lat.shape == lon.shape == (len(keys), 6)
    polygons = [grid.cell_polygon(CellId.from_key(key)) for key in keys]
    expected_lat = np.array([[v.lat_deg for v in p] for p in polygons])
    expected_lon = np.array([[v.lon_deg for v in p] for p in polygons])
    # Bit patterns, so that -0.0 != 0.0 and NaN would not slip through.
    assert lat.view(np.uint64).tolist() == expected_lat.view(np.uint64).tolist()
    assert lon.view(np.uint64).tolist() == expected_lon.view(np.uint64).tolist()
    return lat, lon


class TestCellId:
    def test_token_roundtrip(self):
        cell = CellId(5, -714, 581)
        assert CellId.from_token(cell.token) == cell

    @given(
        st.integers(min_value=0, max_value=10),
        st.integers(min_value=-100000, max_value=100000),
        st.integers(min_value=-100000, max_value=100000),
    )
    def test_token_roundtrip_property(self, res, q, r):
        cell = CellId(res, q, r)
        assert CellId.from_token(cell.token) == cell

    def test_tokens_are_unique(self):
        tokens = {
            CellId(5, q, r).token for q in range(-10, 10) for r in range(-10, 10)
        }
        assert len(tokens) == 400

    def test_bad_resolution_rejected(self):
        with pytest.raises(GeometryError):
            CellId(11, 0, 0)

    def test_malformed_token_rejected(self):
        with pytest.raises(GeometryError):
            CellId.from_token("not-a-token")

    def test_ordering_is_stable(self):
        assert CellId(5, 0, 0) < CellId(5, 0, 1) < CellId(5, 1, 0)


class TestGridBasics:
    def test_resolution5_area_matches_h3(self, grid):
        assert grid.cell_area_km2 == pytest.approx(252.903858182)

    def test_hex_size_consistent_with_area(self, grid):
        area = 3.0 * math.sqrt(3.0) / 2.0 * grid.hex_size_km**2
        assert area == pytest.approx(grid.cell_area_km2)

    def test_area_table_aperture7(self):
        for res in range(1, 11):
            ratio = H3_MEAN_HEX_AREA_KM2[res - 1] / H3_MEAN_HEX_AREA_KM2[res]
            assert ratio == pytest.approx(7.0, rel=0.03)

    def test_bad_resolution_rejected(self):
        with pytest.raises(GeometryError):
            HexGrid(resolution=42)


class TestPointToCell:
    @given(lat_strategy, lon_strategy)
    @settings(max_examples=200)
    def test_center_is_nearby(self, lat, lon):
        """The assigned cell's center lies within one circumradius, after
        accounting for the equal-area projection's north-south stretch of
        ground distance by 1/cos(lat)."""
        grid = HexGrid(5)
        point = LatLon(lat, lon)
        center = grid.center(grid.cell_for(point))
        bound = grid.hex_size_km / math.cos(math.radians(abs(lat))) * 1.1
        assert haversine_km(point, center) <= bound

    @given(lat_strategy, lon_strategy)
    @settings(max_examples=100)
    def test_center_maps_to_own_cell(self, lat, lon):
        grid = HexGrid(5)
        cell = grid.cell_for(LatLon(lat, lon))
        assert grid.cell_for(grid.center(cell)) == cell

    def test_deterministic(self, grid):
        p = LatLon(37.0, -82.5)
        assert grid.cell_for(p) == grid.cell_for(p)


class TestTopology:
    def test_six_neighbors(self, grid):
        cell = grid.cell_for(LatLon(40.0, -100.0))
        neighbors = grid.neighbors(cell)
        assert len(neighbors) == 6
        assert len(set(neighbors)) == 6
        assert cell not in neighbors

    def test_neighbors_at_distance_one(self, grid):
        cell = grid.cell_for(LatLon(40.0, -100.0))
        for neighbor in grid.neighbors(cell):
            assert grid.distance(cell, neighbor) == 1

    def test_neighbor_symmetry(self, grid):
        cell = grid.cell_for(LatLon(40.0, -100.0))
        for neighbor in grid.neighbors(cell):
            assert cell in grid.neighbors(neighbor)

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 5])
    def test_ring_size(self, grid, k):
        cell = grid.cell_for(LatLon(40.0, -100.0))
        ring = grid.ring(cell, k)
        assert len(ring) == (6 * k if k > 0 else 1)
        for member in ring:
            assert grid.distance(cell, member) == k

    @pytest.mark.parametrize("k", [0, 1, 2, 4])
    def test_disk_size(self, grid, k):
        cell = grid.cell_for(LatLon(40.0, -100.0))
        disk = grid.disk(cell, k)
        assert len(disk) == 1 + 3 * k * (k + 1)
        assert len(set(disk)) == len(disk)

    def test_negative_ring_rejected(self, grid):
        with pytest.raises(GeometryError):
            grid.ring(grid.cell_for(LatLon(0.0, 0.0)), -1)

    def test_distance_triangle_inequality(self, grid):
        a = grid.cell_for(LatLon(40.0, -100.0))
        b = grid.cell_for(LatLon(41.0, -99.0))
        c = grid.cell_for(LatLon(39.0, -101.5))
        assert grid.distance(a, c) <= grid.distance(a, b) + grid.distance(b, c)

    def test_foreign_resolution_rejected(self, grid):
        foreign = CellId(4, 0, 0)
        with pytest.raises(GeometryError):
            grid.neighbors(foreign)


class TestEnumeration:
    def test_bbox_contains_center_cells(self, grid):
        cells = list(grid.cells_in_bbox(39.0, 40.0, -101.0, -100.0))
        assert cells
        for cell in cells:
            center = grid.center(cell)
            assert 39.0 <= center.lat_deg <= 40.0
            assert -101.0 <= center.lon_deg <= -100.0

    def test_bbox_cell_count_matches_area(self, grid):
        """Cell count approximates bbox area / cell area."""
        cells = list(grid.cells_in_bbox(39.0, 41.0, -102.0, -100.0))
        # 2 x 2 degree box at 40 N: width 2*111.2*cos(40), height 2*111.2.
        area = (2 * 111.19) ** 2 * math.cos(math.radians(40.0))
        expected = area / grid.cell_area_km2
        assert len(cells) == pytest.approx(expected, rel=0.05)

    def test_inverted_bbox_rejected(self, grid):
        with pytest.raises(GeometryError):
            list(grid.cells_in_bbox(41.0, 39.0, -102.0, -100.0))

    def test_polygon_cover_subset_of_bbox(self, grid):
        triangle = Polygon(
            [LatLon(39.0, -101.0), LatLon(40.0, -101.0), LatLon(39.0, -100.0)]
        )
        covered = grid.cells_covering(triangle)
        assert covered.size
        boxed = {c.key for c in grid.cells_in_bbox(39.0, 40.0, -101.0, -100.0)}
        assert set(covered.tolist()) <= boxed

    def test_cell_polygon_has_six_vertices(self, grid):
        cell = grid.cell_for(LatLon(40.0, -100.0))
        vertices = grid.cell_polygon(cell)
        assert len(vertices) == 6
        center = grid.center(cell)
        for vertex in vertices:
            assert haversine_km(center, vertex) <= grid.hex_size_km * 2.0


class TestPackedKeys:
    @given(
        st.integers(min_value=0, max_value=10),
        st.lists(
            st.tuples(
                st.integers(min_value=-100000, max_value=100000),
                st.integers(min_value=-100000, max_value=100000),
            ),
            min_size=1,
            max_size=20,
        ),
    )
    def test_pack_matches_cellid_key(self, res, coords):
        q = np.array([qq for qq, _ in coords])
        r = np.array([rr for _, rr in coords])
        keys = pack_cell_keys(res, q, r)
        assert keys.dtype == np.uint64
        assert keys.tolist() == [
            CellId(res, qq, rr).key for qq, rr in coords
        ]

    @given(
        st.integers(min_value=0, max_value=10),
        st.integers(min_value=-100000, max_value=100000),
        st.integers(min_value=-100000, max_value=100000),
    )
    def test_pack_unpack_roundtrip(self, res, q, r):
        keys = pack_cell_keys(res, np.array([q]), np.array([r]))
        res_out, q_out, r_out = unpack_cell_keys(keys)
        assert (int(res_out[0]), int(q_out[0]), int(r_out[0])) == (res, q, r)

    def test_key_token_consistency(self):
        cell = CellId(5, -714, 581)
        assert cell.token == f"{cell.key:015x}"
        assert CellId.from_key(cell.key) == cell

    def test_from_key_rejects_out_of_range(self):
        with pytest.raises(GeometryError):
            CellId.from_key(1 << 60)
        with pytest.raises(GeometryError):
            CellId.from_key(-1)

    def test_pack_rejects_bad_resolution(self):
        with pytest.raises(GeometryError):
            pack_cell_keys(42, np.array([0]), np.array([0]))

    def test_pack_rejects_out_of_range_coordinate(self):
        with pytest.raises(GeometryError):
            pack_cell_keys(5, np.array([1 << 27]), np.array([0]))


class TestVectorized:
    """Array paths must match the scalar cell_for/center bit-for-bit."""

    @given(
        st.lists(
            st.tuples(lat_strategy, lon_strategy), min_size=1, max_size=25
        )
    )
    @settings(max_examples=100)
    def test_cell_for_many_matches_cell_for(self, points):
        grid = HexGrid(5)
        lats = np.array([lat for lat, _ in points])
        lons = np.array([lon for _, lon in points])
        keys = grid.cell_for_many(lats, lons)
        assert keys.tolist() == [
            grid.cell_for(LatLon(lat, lon)).key for lat, lon in points
        ]

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=-500, max_value=500),
                st.integers(min_value=-300, max_value=300),
            ),
            min_size=1,
            max_size=25,
        )
    )
    @settings(max_examples=100)
    def test_centers_many_matches_center(self, coords):
        grid = HexGrid(5)
        cells = [CellId(5, q, r) for q, r in coords]
        keys = np.array([c.key for c in cells], dtype=np.uint64)
        lat, lon = grid.centers_many(keys)
        centers = [grid.center(c) for c in cells]
        assert lat.tolist() == [c.lat_deg for c in centers]
        assert lon.tolist() == [c.lon_deg for c in centers]

    def test_centers_many_rejects_foreign_resolution(self, grid):
        with pytest.raises(GeometryError):
            grid.centers_many(
                np.array([CellId(4, 0, 0).key], dtype=np.uint64)
            )

    @given(_edge_heavy_cells())
    @settings(max_examples=100)
    def test_polygons_many_matches_cell_polygon(self, resolution_and_keys):
        resolution, keys = resolution_and_keys
        _assert_polygons_bit_identical(HexGrid(resolution), keys)

    @pytest.mark.parametrize("resolution", (0, 3, 5, 6, 10))
    def test_polygons_many_at_pole_and_antimeridian(self, resolution):
        grid = HexGrid(resolution)
        q_edge, r_north, r_south = _grid_edges(grid)
        keys = [
            CellId(resolution, q, r).key
            for q in (-q_edge - 1, -q_edge, 0, q_edge, q_edge + 1)
            for r_edge in (r_north, r_south)
            for r in (
                round(r_edge - q / 2.0) - 1,
                round(r_edge - q / 2.0),
                round(r_edge - q / 2.0) + 2,
            )
        ]
        lat, lon = _assert_polygons_bit_identical(grid, keys)
        # The set exercises the clamp past both poles and the wrap at
        # the antimeridian.
        assert lat.max() == 90.0 and lat.min() == -90.0
        assert lon.max() > 179.0 and lon.min() < -179.0

    def test_polygons_many_shapes_and_resolution(self, grid):
        lat, lon = grid.polygons_many(np.empty(0, dtype=np.uint64))
        assert lat.shape == lon.shape == (0, 6)
        with pytest.raises(GeometryError):
            grid.polygons_many(
                np.array([CellId(4, 0, 0).key], dtype=np.uint64)
            )

    def test_cells_covering_matches_scalar_filter(self, grid):
        """The vectorized polyfill equals bbox enumeration + contains."""
        triangle = Polygon(
            [LatLon(39.0, -101.0), LatLon(40.5, -101.0), LatLon(39.0, -99.2)]
        )
        covered = grid.cells_covering(triangle)
        expected = [
            cell.key
            for cell in grid.cells_in_bbox(*triangle.bounds())
            if triangle.contains(grid.center(cell))
        ]
        assert covered.dtype == np.uint64
        assert covered.tolist() == expected


class TestEdgeGeometry:
    def test_dateline_points_resolve_to_valid_cells(self, grid):
        """Points just west and east of the antimeridian both resolve to
        cells whose centers map back to legal coordinates near them."""
        for lon in (179.95, -179.95):
            cell = grid.cell_for(LatLon(10.0, lon))
            center = grid.center(cell)
            assert center.lat_deg == pytest.approx(10.0, abs=0.5)
            assert -180.0 <= center.lon_deg < 180.0
            assert abs(abs(center.lon_deg) - 180.0) < 0.5

    @pytest.mark.parametrize("lon", [math.nan, math.inf, -math.inf])
    def test_non_finite_longitude_is_a_geometry_error(self, grid, lon):
        """Refused up front: no cast or fmod RuntimeWarning, and not the
        misleading "axial coordinate out of range"."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GeometryError, match="longitude not finite"):
                grid.cell_for_many(np.array([37.0]), np.array([lon]))
            with pytest.raises(GeometryError, match="longitude not finite"):
                grid.cell_for(LatLon(37.0, lon))

    def test_equator_cells_symmetric(self, grid):
        north = grid.cell_for(LatLon(0.01, -100.0))
        south = grid.cell_for(LatLon(-0.01, -100.0))
        assert abs(grid.center(north).lat_deg) < 0.2
        assert abs(grid.center(south).lat_deg) < 0.2

    def test_every_conus_state_box_contains_cells(self, grid):
        from repro.geo.us_boundary import STATE_BBOXES

        for state, (lat_min, lat_max, lon_min, lon_max) in STATE_BBOXES.items():
            cells = list(grid.cells_in_bbox(lat_min, lat_max, lon_min, lon_max))
            assert cells, state
