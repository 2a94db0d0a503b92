"""Equal-area cylindrical (Lambert) projection.

The projection maps the sphere to the rectangle
``[-pi*R, pi*R] x [-R, R]`` via ``x = R * lon_rad`` and ``y = R * sin(lat)``.
It is exactly area-preserving: a region of planar area ``A`` km^2 corresponds
to a spherical region of the same area. That property is what the hex grid
relies on to give every cell the same spherical area, mirroring H3's
(approximately) equal-area hexagons.

Shape distortion grows toward the poles; the library's study region (CONUS,
24..50 degrees N) keeps distortion moderate, and none of the paper's results
depend on cell *shape*.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.errors import GeometryError
from repro.geo.coords import LatLon, normalize_lon
from repro.units import EARTH_RADIUS_KM


def normalize_lon_many(lon_deg: np.ndarray) -> np.ndarray:
    """Vectorized :func:`repro.geo.coords.normalize_lon` (to [-180, 180))."""
    # The initial + 180.0 copies, so the in-place steps never touch the
    # caller's array; this kernel sits under every bulk (un)projection.
    lon = np.asarray(lon_deg, dtype=float) + 180.0
    np.fmod(lon, 360.0, out=lon)
    lon[lon < 0.0] += 360.0
    lon -= 180.0
    return lon


class EqualAreaProjection:
    """Lambert cylindrical equal-area projection on the mean-radius sphere."""

    def __init__(self, radius_km: float = EARTH_RADIUS_KM):
        if radius_km <= 0.0:
            raise GeometryError(f"radius must be positive: {radius_km!r}")
        self.radius_km = radius_km

    @property
    def width_km(self) -> float:
        """Full x-extent of the projected plane (equator circumference)."""
        return 2.0 * math.pi * self.radius_km

    @property
    def height_km(self) -> float:
        """Full y-extent of the projected plane (2R)."""
        return 2.0 * self.radius_km

    def forward(self, point: LatLon) -> Tuple[float, float]:
        """Project a geographic point to planar (x, y) km."""
        lat = point.lat_deg
        if not -90.0 <= lat <= 90.0:
            raise GeometryError(f"latitude out of range: {lat!r}")
        if not math.isfinite(point.lon_deg):
            raise GeometryError(
                f"longitude not finite: {float(point.lon_deg)!r}"
            )
        lon = normalize_lon(point.lon_deg)
        x = self.radius_km * math.radians(lon)
        y = self.radius_km * math.sin(math.radians(lat))
        return x, y

    def inverse(self, x: float, y: float) -> LatLon:
        """Unproject planar (x, y) km back to a geographic point.

        ``y`` is clamped to the valid band so that hexagon centers slightly
        past the pole line (an artifact of tiling a rectangle with hexagons)
        still map to a legal latitude.
        """
        sin_lat = min(1.0, max(-1.0, y / self.radius_km))
        # np.arcsin, not math.asin: the two can differ in the last ulp, and
        # the scalar and vectorized paths must agree bit-for-bit so that
        # `inverse_many` is differentially testable against this method.
        lat = math.degrees(float(np.arcsin(sin_lat)))
        lon = normalize_lon(math.degrees(x / self.radius_km))
        return LatLon(lat, lon)

    # -- vectorized paths ---------------------------------------------------

    def forward_many(
        self, lat_deg: np.ndarray, lon_deg: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`forward`: degree arrays to planar (x, y) km.

        Bit-identical to mapping :meth:`forward` over the points.
        """
        lat = np.asarray(lat_deg, dtype=float)
        lon = np.asarray(lon_deg, dtype=float)
        if lat.shape != lon.shape:
            raise GeometryError(
                f"latitude/longitude shape mismatch: {lat.shape} vs {lon.shape}"
            )
        in_range = (lat >= -90.0) & (lat <= 90.0)
        if lat.size and not in_range.all():
            bad = lat[~in_range][0]
            raise GeometryError(f"latitude out of range: {bad!r}")
        finite = np.isfinite(lon)
        if lon.size and not finite.all():
            bad = float(lon[~finite][0])
            raise GeometryError(f"longitude not finite: {bad!r}")
        x = self.radius_km * np.radians(normalize_lon_many(lon))
        y = self.radius_km * np.sin(np.radians(lat))
        return x, y

    def inverse_many(
        self, x: np.ndarray, y: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`inverse`: planar km arrays to (lat, lon) degrees.

        Bit-identical to mapping :meth:`inverse` over the points.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape != y.shape:
            raise GeometryError(f"x/y shape mismatch: {x.shape} vs {y.shape}")
        sin_lat = np.clip(y / self.radius_km, -1.0, 1.0)
        lat = np.degrees(np.arcsin(sin_lat))
        lon = normalize_lon_many(np.degrees(x / self.radius_km))
        return lat, lon
