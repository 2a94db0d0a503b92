"""Tests for the equal-area cylindrical projection."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import GeometryError
from repro.geo.coords import LatLon, normalize_lon
from repro.geo.projection import EqualAreaProjection, normalize_lon_many
from repro.units import EARTH_RADIUS_KM


@pytest.fixture()
def projection():
    return EqualAreaProjection()


class TestForward:
    def test_origin(self, projection):
        assert projection.forward(LatLon(0.0, 0.0)) == (0.0, 0.0)

    def test_north_pole_y(self, projection):
        _, y = projection.forward(LatLon(90.0, 0.0))
        assert y == pytest.approx(EARTH_RADIUS_KM)

    def test_x_scales_with_longitude(self, projection):
        x, _ = projection.forward(LatLon(0.0, 90.0))
        assert x == pytest.approx(math.pi / 2.0 * EARTH_RADIUS_KM)

    def test_rejects_bad_latitude(self, projection):
        with pytest.raises(GeometryError):
            projection.forward(LatLon(91.0, 0.0))

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(GeometryError):
            EqualAreaProjection(radius_km=0.0)


class TestRoundTrip:
    @given(
        st.floats(min_value=-89.0, max_value=89.0),
        st.floats(min_value=-179.9, max_value=179.9),
    )
    def test_forward_inverse(self, lat, lon):
        projection = EqualAreaProjection()
        point = LatLon(lat, lon)
        x, y = projection.forward(point)
        back = projection.inverse(x, y)
        assert back.lat_deg == pytest.approx(lat, abs=1e-9)
        assert back.lon_deg == pytest.approx(lon, abs=1e-9)

    def test_inverse_clamps_beyond_pole(self, projection):
        point = projection.inverse(0.0, EARTH_RADIUS_KM * 1.001)
        assert point.lat_deg == pytest.approx(90.0)


#: Hypothesis strategy for short coordinate lists (degrees, any range).
_coord_lists = st.lists(
    st.floats(min_value=-1000.0, max_value=1000.0), min_size=1, max_size=30
)


class TestVectorized:
    """The array paths must match the scalar paths bit-for-bit."""

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-90.0, max_value=90.0),
                st.floats(min_value=-1000.0, max_value=1000.0),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_forward_many_matches_forward(self, points):
        projection = EqualAreaProjection()
        lats = np.array([lat for lat, _ in points])
        lons = np.array([lon for _, lon in points])
        x, y = projection.forward_many(lats, lons)
        scalar = [projection.forward(LatLon(lat, lon)) for lat, lon in points]
        assert x.tolist() == [sx for sx, _ in scalar]
        assert y.tolist() == [sy for _, sy in scalar]

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-25000.0, max_value=25000.0),
                st.floats(min_value=-8000.0, max_value=8000.0),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_inverse_many_matches_inverse(self, points):
        projection = EqualAreaProjection()
        x = np.array([px for px, _ in points])
        y = np.array([py for _, py in points])
        lat, lon = projection.inverse_many(x, y)
        scalar = [projection.inverse(px, py) for px, py in points]
        assert lat.tolist() == [p.lat_deg for p in scalar]
        assert lon.tolist() == [p.lon_deg for p in scalar]

    @given(_coord_lists)
    def test_normalize_lon_many_matches_scalar(self, lons):
        result = normalize_lon_many(np.array(lons))
        assert result.tolist() == [normalize_lon(lon) for lon in lons]

    def test_normalize_lon_many_leaves_input_untouched(self):
        lons = np.array([500.0, -500.0, 10.0])
        normalize_lon_many(lons)
        assert lons.tolist() == [500.0, -500.0, 10.0]

    def test_forward_many_rejects_bad_latitude(self):
        with pytest.raises(GeometryError):
            EqualAreaProjection().forward_many(
                np.array([0.0, 91.0]), np.array([0.0, 0.0])
            )

    def test_forward_many_rejects_nan_latitude(self):
        with pytest.raises(GeometryError):
            EqualAreaProjection().forward_many(
                np.array([float("nan")]), np.array([0.0])
            )

    @pytest.mark.parametrize("lon", [math.nan, math.inf, -math.inf])
    def test_non_finite_longitude_rejected_before_arithmetic(self, lon):
        """Both paths name the value, with no NumPy warning on the way."""
        projection = EqualAreaProjection()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GeometryError, match=f"longitude.*{lon}"):
                projection.forward(LatLon(37.0, lon))
            with pytest.raises(GeometryError, match=f"longitude.*{lon}"):
                projection.forward_many(
                    np.array([37.0, 37.0]), np.array([-90.0, lon])
                )

    def test_forward_many_rejects_shape_mismatch(self):
        with pytest.raises(GeometryError):
            EqualAreaProjection().forward_many(
                np.array([0.0, 1.0]), np.array([0.0])
            )

    def test_inverse_many_rejects_shape_mismatch(self):
        with pytest.raises(GeometryError):
            EqualAreaProjection().inverse_many(
                np.array([0.0, 1.0]), np.array([0.0])
            )

    def test_inverse_many_clamps_beyond_pole(self):
        lat, _ = EqualAreaProjection().inverse_many(
            np.array([0.0]), np.array([EARTH_RADIUS_KM * 1.001])
        )
        assert lat[0] == pytest.approx(90.0)


class TestAreaPreservation:
    def test_total_plane_area_equals_sphere(self, projection):
        plane_area = projection.width_km * projection.height_km
        sphere_area = 4.0 * math.pi * EARTH_RADIUS_KM**2
        assert plane_area == pytest.approx(sphere_area)

    @pytest.mark.parametrize("lat", [0.0, 30.0, 45.0, 60.0])
    def test_band_area_matches_spherical_band(self, projection, lat):
        """A 1-degree band's projected area equals its spherical area."""
        y1 = projection.forward(LatLon(lat, 0.0))[1]
        y2 = projection.forward(LatLon(lat + 1.0, 0.0))[1]
        plane_band = (y2 - y1) * projection.width_km
        sphere_band = (
            2.0
            * math.pi
            * EARTH_RADIUS_KM**2
            * (math.sin(math.radians(lat + 1.0)) - math.sin(math.radians(lat)))
        )
        assert plane_band == pytest.approx(sphere_band, rel=1e-12)
