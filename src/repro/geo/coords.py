"""Latitude/longitude primitives and great-circle geometry.

Latitudes and longitudes are in **degrees** at API boundaries (matching how
the FCC map and census data express positions); internal trigonometry is in
radians. Distances are in km on the mean-radius sphere.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Union

import numpy as np

from repro.errors import GeometryError
from repro.units import EARTH_RADIUS_KM


class LatLon(NamedTuple):
    """A geographic position in degrees."""

    lat_deg: float
    lon_deg: float


def validate_latlon(lat_deg: float, lon_deg: float) -> None:
    """Raise :class:`GeometryError` unless the coordinates are in range.

    Longitude accepts the conventional [-180, 180] as well as [0, 360).
    """
    if not -90.0 <= lat_deg <= 90.0:
        raise GeometryError(f"latitude out of range [-90, 90]: {lat_deg!r}")
    if not -180.0 <= lon_deg < 360.0:
        raise GeometryError(f"longitude out of range [-180, 360): {lon_deg!r}")


def normalize_lon(lon_deg: float) -> float:
    """Normalize a longitude to the interval [-180, 180)."""
    lon = math.fmod(lon_deg + 180.0, 360.0)
    if lon < 0.0:
        lon += 360.0
    return lon - 180.0


def haversine_km(a: LatLon, b: LatLon) -> Union[float, np.ndarray]:
    """Great-circle distance between two points, in km.

    Coordinates may be NumPy arrays, which broadcast as NumPy does:
    ``haversine_km(LatLon(lats, lons), site)`` is every point's distance
    to ``site``. A NaN coordinate gives a NaN distance.
    """
    phi1 = np.radians(a.lat_deg)
    phi2 = np.radians(b.lat_deg)
    dlam = np.radians(a.lon_deg) - np.radians(b.lon_deg)
    h = (
        np.sin((phi1 - phi2) / 2.0) ** 2
        + np.cos(phi2) * np.cos(phi1) * np.sin(dlam / 2.0) ** 2
    )
    # Clamp to guard against floating-point drift outside [0, 1].
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(h, 0.0, 1.0)))


def bearing_deg(a: LatLon, b: LatLon) -> float:
    """Initial great-circle bearing from ``a`` to ``b`` in degrees [0, 360)."""
    phi1 = math.radians(a.lat_deg)
    phi2 = math.radians(b.lat_deg)
    dlam = math.radians(normalize_lon(b.lon_deg - a.lon_deg))
    y = math.sin(dlam) * math.cos(phi2)
    x = math.cos(phi1) * math.sin(phi2) - math.sin(phi1) * math.cos(phi2) * math.cos(dlam)
    bearing = math.degrees(math.atan2(y, x)) % 360.0
    # A tiny negative atan2 result mod 360 rounds to exactly 360.0 in
    # floating point; keep the contract of [0, 360).
    return 0.0 if bearing >= 360.0 else bearing


def destination(start: LatLon, bearing_degrees: float, distance_km: float) -> LatLon:
    """Point reached from ``start`` along ``bearing_degrees`` for ``distance_km``."""
    if distance_km < 0.0:
        raise GeometryError(f"negative distance: {distance_km!r}")
    delta = distance_km / EARTH_RADIUS_KM
    theta = math.radians(bearing_degrees)
    phi1 = math.radians(start.lat_deg)
    lam1 = math.radians(start.lon_deg)
    sin_phi2 = math.sin(phi1) * math.cos(delta) + math.cos(phi1) * math.sin(delta) * math.cos(theta)
    sin_phi2 = min(1.0, max(-1.0, sin_phi2))
    phi2 = math.asin(sin_phi2)
    y = math.sin(theta) * math.sin(delta) * math.cos(phi1)
    x = math.cos(delta) - math.sin(phi1) * sin_phi2
    lam2 = lam1 + math.atan2(y, x)
    return LatLon(math.degrees(phi2), normalize_lon(math.degrees(lam2)))
