"""Tests for the synthetic county partition."""

import numpy as np
import pytest

from repro.demand.counties import (
    CONUS_COUNTY_COUNT,
    assign_to_nearest_seat,
    county_name,
    sample_county_seats,
)
from repro.errors import DatasetError
from repro.geo.coords import LatLon
from repro.geo.polygon import Polygon
from repro.geo.us_boundary import conus_polygon


@pytest.fixture()
def square():
    return Polygon(
        [LatLon(30.0, -100.0), LatLon(30.0, -95.0), LatLon(35.0, -95.0), LatLon(35.0, -100.0)]
    )


class TestSeatSampling:
    def test_count_and_containment(self, square):
        rng = np.random.default_rng(1)
        seats = sample_county_seats(square, 50, rng)
        assert len(seats) == 50
        for seat in seats:
            assert square.contains(seat)

    def test_deterministic_given_seed(self, square):
        a = sample_county_seats(square, 10, np.random.default_rng(3))
        b = sample_county_seats(square, 10, np.random.default_rng(3))
        assert a == b

    def test_rejects_nonpositive_count(self, square):
        with pytest.raises(DatasetError):
            sample_county_seats(square, 0, np.random.default_rng(0))

    def test_conus_scale_sampling(self):
        rng = np.random.default_rng(2)
        seats = sample_county_seats(conus_polygon(), 100, rng)
        assert len(seats) == 100

    def test_county_count_constant(self):
        assert CONUS_COUNTY_COUNT == 3108


class TestNearestAssignment:
    def test_assigns_to_closest(self):
        seats = [LatLon(30.0, -100.0), LatLon(40.0, -80.0)]
        lats = np.array([31.0, 39.0, 30.5])
        lons = np.array([-99.0, -81.0, -100.5])
        indices = assign_to_nearest_seat(lats, lons, seats)
        assert indices.tolist() == [0, 1, 0]

    def test_empty_points(self):
        indices = assign_to_nearest_seat(
            np.empty(0), np.empty(0), [LatLon(0.0, 0.0)]
        )
        assert indices.shape == (0,)

    def test_rejects_empty_seats(self):
        with pytest.raises(DatasetError):
            assign_to_nearest_seat(np.zeros(1), np.zeros(1), [])


def test_county_names_are_unique_and_stable():
    names = {county_name(i) for i in range(100)}
    assert len(names) == 100
    assert county_name(7) == "County 0007"
