"""Tests for great-circle geometry primitives."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import GeometryError
from repro.geo.coords import (
    LatLon,
    bearing_deg,
    destination,
    haversine_km,
    normalize_lon,
    validate_latlon,
)
from repro.units import EARTH_RADIUS_KM

lat_strategy = st.floats(min_value=-89.9, max_value=89.9)
lon_strategy = st.floats(min_value=-180.0, max_value=179.9)


class TestValidateLatLon:
    def test_accepts_normal_coordinates(self):
        validate_latlon(37.0, -95.0)

    def test_accepts_0_360_longitude(self):
        validate_latlon(0.0, 270.0)

    @pytest.mark.parametrize("lat", [-90.1, 91.0, 1000.0])
    def test_rejects_bad_latitude(self, lat):
        with pytest.raises(GeometryError):
            validate_latlon(lat, 0.0)

    @pytest.mark.parametrize("lon", [-180.1, 360.0, 720.0])
    def test_rejects_bad_longitude(self, lon):
        with pytest.raises(GeometryError):
            validate_latlon(0.0, lon)


class TestNormalizeLon:
    @pytest.mark.parametrize(
        "raw,expected",
        [(0.0, 0.0), (180.0, -180.0), (-180.0, -180.0), (270.0, -90.0), (361.0, 1.0)],
    )
    def test_known_values(self, raw, expected):
        assert normalize_lon(raw) == pytest.approx(expected)

    @given(st.floats(min_value=-1e4, max_value=1e4))
    def test_always_in_range(self, lon):
        result = normalize_lon(lon)
        assert -180.0 <= result < 180.0

    @given(st.floats(min_value=-1e3, max_value=1e3))
    def test_idempotent(self, lon):
        once = normalize_lon(lon)
        assert normalize_lon(once) == pytest.approx(once)


class TestHaversine:
    def test_zero_distance(self):
        p = LatLon(40.0, -100.0)
        assert haversine_km(p, p) == 0.0

    def test_quarter_circumference(self):
        equator = LatLon(0.0, 0.0)
        pole = LatLon(90.0, 0.0)
        expected = math.pi * EARTH_RADIUS_KM / 2.0
        assert haversine_km(equator, pole) == pytest.approx(expected, rel=1e-9)

    def test_known_city_pair(self):
        # New York <-> Los Angeles is ~3944 km on the sphere.
        nyc = LatLon(40.7128, -74.0060)
        lax = LatLon(34.0522, -118.2437)
        assert haversine_km(nyc, lax) == pytest.approx(3936, rel=0.01)

    @given(lat_strategy, lon_strategy, lat_strategy, lon_strategy)
    def test_symmetry(self, lat1, lon1, lat2, lon2):
        a, b = LatLon(lat1, lon1), LatLon(lat2, lon2)
        assert haversine_km(a, b) == pytest.approx(haversine_km(b, a), abs=1e-9)

    @given(lat_strategy, lon_strategy, lat_strategy, lon_strategy)
    def test_bounded_by_half_circumference(self, lat1, lon1, lat2, lon2):
        d = haversine_km(LatLon(lat1, lon1), LatLon(lat2, lon2))
        assert 0.0 <= d <= math.pi * EARTH_RADIUS_KM + 1e-6

    def test_antimeridian_shortcut(self):
        # Points 2 degrees apart across the dateline are close, not far.
        west = LatLon(0.0, 179.0)
        east = LatLon(0.0, -179.0)
        assert haversine_km(west, east) < 300.0

    @given(
        st.lists(st.tuples(lat_strategy, lon_strategy), min_size=1, max_size=20),
        lat_strategy,
        lon_strategy,
    )
    def test_arrays_match_the_scalar_calls(self, points, lat, lon):
        site = LatLon(lat, lon)
        lats = np.array([p[0] for p in points])
        lons = np.array([p[1] for p in points])
        distances = haversine_km(LatLon(lats, lons), site)
        assert distances.tolist() == [
            haversine_km(LatLon(a, b), site) for a, b in points
        ]


class TestBearing:
    def test_due_north(self):
        assert bearing_deg(LatLon(0.0, 0.0), LatLon(10.0, 0.0)) == pytest.approx(0.0)

    def test_due_east_at_equator(self):
        assert bearing_deg(LatLon(0.0, 0.0), LatLon(0.0, 10.0)) == pytest.approx(90.0)

    def test_due_south(self):
        assert bearing_deg(LatLon(10.0, 0.0), LatLon(0.0, 0.0)) == pytest.approx(180.0)

    @given(lat_strategy, lon_strategy, lat_strategy, lon_strategy)
    def test_range(self, lat1, lon1, lat2, lon2):
        b = bearing_deg(LatLon(lat1, lon1), LatLon(lat2, lon2))
        assert 0.0 <= b < 360.0


class TestDestination:
    def test_zero_distance_is_identity(self):
        start = LatLon(45.0, -100.0)
        end = destination(start, 123.0, 0.0)
        assert end.lat_deg == pytest.approx(start.lat_deg)
        assert end.lon_deg == pytest.approx(start.lon_deg)

    def test_negative_distance_rejected(self):
        with pytest.raises(GeometryError):
            destination(LatLon(0.0, 0.0), 0.0, -1.0)

    @given(
        lat_strategy,
        lon_strategy,
        st.floats(min_value=0.0, max_value=359.9),
        st.floats(min_value=1.0, max_value=5000.0),
    )
    def test_roundtrip_distance(self, lat, lon, bearing, distance):
        start = LatLon(lat, lon)
        end = destination(start, bearing, distance)
        assert haversine_km(start, end) == pytest.approx(distance, rel=1e-6)

    def test_north_from_equator(self):
        end = destination(LatLon(0.0, 0.0), 0.0, EARTH_RADIUS_KM * math.pi / 2)
        assert end.lat_deg == pytest.approx(90.0, abs=1e-6)
