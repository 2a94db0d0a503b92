"""Synthetic county partition of the study region.

The affordability analysis joins each service cell to a county (the census
unit whose median income the paper assigns to all locations inside it).
This module fabricates a county layer: ~3,100 county seats scattered over
CONUS (the real count is 3,108 county-equivalents in the lower 48) and a
nearest-seat (Voronoi) assignment of cells to counties, computed in the
equal-area projected plane.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np
from scipy.spatial import cKDTree

from repro.errors import DatasetError
from repro.geo.coords import LatLon
from repro.geo.polygon import Polygon
from repro.geo.projection import EqualAreaProjection

#: County-equivalents in the contiguous United States.
CONUS_COUNTY_COUNT = 3108


def sample_county_seats(
    polygon: Polygon,
    count: int,
    rng: np.random.Generator,
    max_attempts_factor: int = 200,
) -> List[LatLon]:
    """Rejection-sample ``count`` county-seat points inside ``polygon``.

    Candidates are drawn uniformly by area — uniform in (lon, sin(lat)) —
    in whole batches and filtered with one vectorized
    :meth:`~repro.geo.polygon.Polygon.contains_many` call per batch,
    instead of one scalar containment test per draw.
    """
    if count <= 0:
        raise DatasetError(f"county count must be positive: {count!r}")
    lat_min, lat_max, lon_min, lon_max = polygon.bounds()
    projection = EqualAreaProjection()
    _, y_min = projection.forward(LatLon(lat_min, 0.0))
    _, y_max = projection.forward(LatLon(lat_max, 0.0))
    seats: List[LatLon] = []
    attempts = 0
    max_attempts = count * max_attempts_factor
    while len(seats) < count:
        if attempts >= max_attempts:
            raise DatasetError(
                f"could not place {count} county seats after {attempts} draws"
            )
        # Overdraw modestly; the acceptance rate is land-area / bbox-area
        # (~2x for CONUS), so a couple of rounds usually finish the job.
        batch = min(
            max(2 * (count - len(seats)), 64), max_attempts - attempts
        )
        attempts += batch
        lons = rng.uniform(lon_min, lon_max, size=batch)
        ys = rng.uniform(y_min, y_max, size=batch)
        sin_lat = np.clip(ys / projection.radius_km, -1.0, 1.0)
        lats = np.degrees(np.arcsin(sin_lat))
        accepted = polygon.contains_many(lats, lons)
        for lat, lon in zip(lats[accepted], lons[accepted]):
            if len(seats) == count:
                break
            seats.append(LatLon(float(lat), float(lon)))
    return seats


def assign_to_nearest_seat(
    lat_deg: np.ndarray, lon_deg: np.ndarray, seats: Sequence[LatLon]
) -> np.ndarray:
    """Index of the nearest seat for each point (projected-plane metric).

    Points come as latitude and longitude arrays, in degrees.
    """
    if not seats:
        raise DatasetError("no county seats to assign to")
    projection = EqualAreaProjection()
    seat_xy = np.column_stack(
        projection.forward_many(
            np.array([s.lat_deg for s in seats], dtype=float),
            np.array([s.lon_deg for s in seats], dtype=float),
        )
    )
    lat_deg = np.asarray(lat_deg, dtype=float)
    if lat_deg.size == 0:
        return np.zeros(0, dtype=int)
    point_xy = np.column_stack(
        projection.forward_many(lat_deg, np.asarray(lon_deg, dtype=float))
    )
    tree = cKDTree(seat_xy)
    _, indices = tree.query(point_xy)
    return np.asarray(indices, dtype=int)


def county_name(index: int) -> str:
    """Deterministic synthetic county name for seat ``index``."""
    return f"County {index:04d}"
