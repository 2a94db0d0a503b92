"""Hexagonal discrete global grid (the library's H3 stand-in).

Starlink's terrestrial service cells are believed to follow the Uber H3
geospatial index (the paper cites prior work making that identification).
H3 itself is an icosahedral aperture-7 grid; re-implementing it bit-exactly
is unnecessary for this reproduction because the capacity model consumes
only three properties of the grid:

1. every cell has (approximately) the same spherical area,
2. a point maps to exactly one cell,
3. cells have six neighbors that tile the plane (used for beamspread groups).

This module provides all three with a flat-top hexagonal lattice laid out on
an equal-area cylindrical projection. Cell areas are *exactly* equal (the
projection is area-preserving), and the per-resolution mean cell area is
taken from H3's published table so that "resolution 5" here means the same
~253 km^2 cells the paper's Starlink model uses.

Cells are addressed by axial coordinates ``(q, r)`` packed together with the
resolution into a 64-bit token, mirroring how H3 indexes round-trip through
CSV files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from repro.errors import GeometryError
from repro.geo.coords import LatLon
from repro.geo.projection import EqualAreaProjection

#: Mean hexagon area per H3 resolution, km^2 (source: H3 documentation,
#: "Table of average cell areas"). Index = resolution.
H3_MEAN_HEX_AREA_KM2: Tuple[float, ...] = (
    4357449.416078392,
    609788.441794133,
    86801.780398997,
    12393.434655088,
    1770.347654491,
    252.903858182,
    36.129062164,
    5.161293360,
    0.737327598,
    0.105332513,
    0.015047502,
)

#: Resolution the paper's Starlink cell model uses (~253 km^2 hexes).
STARLINK_CELL_RESOLUTION = 5

_AXIAL_NEIGHBOR_OFFSETS: Tuple[Tuple[int, int], ...] = (
    (1, 0),
    (1, -1),
    (0, -1),
    (-1, 0),
    (-1, 1),
    (0, 1),
)

_COORD_BITS = 28
_COORD_BIAS = 1 << (_COORD_BITS - 1)
_COORD_MASK = (1 << _COORD_BITS) - 1


def pack_cell_keys(resolution: int, q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Pack axial coordinate arrays into uint64 cell keys.

    The key is the integer value of :attr:`CellId.token` (the hex-string
    token is just ``f"{key:015x}"``), so packed keys, tokens, and
    :class:`CellId` objects all round-trip losslessly.
    """
    if not 0 <= resolution < len(H3_MEAN_HEX_AREA_KM2):
        raise GeometryError(f"unsupported resolution: {resolution!r}")
    q = np.asarray(q, dtype=np.int64)
    r = np.asarray(r, dtype=np.int64)
    if q.size and (
        (q < -_COORD_BIAS).any()
        or (q >= _COORD_BIAS).any()
        or (r < -_COORD_BIAS).any()
        or (r >= _COORD_BIAS).any()
    ):
        raise GeometryError("axial coordinate out of range")
    packed = (
        (np.uint64(resolution & 0xF) << np.uint64(2 * _COORD_BITS))
        | ((q + _COORD_BIAS).astype(np.uint64) << np.uint64(_COORD_BITS))
        | (r + _COORD_BIAS).astype(np.uint64)
    )
    return packed


def unpack_cell_keys(
    keys: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of :func:`pack_cell_keys`: (resolution, q, r) int64 arrays."""
    keys = np.asarray(keys, dtype=np.uint64)
    resolution = (keys >> np.uint64(2 * _COORD_BITS)).astype(np.int64) & 0xF
    q = ((keys >> np.uint64(_COORD_BITS)).astype(np.int64) & _COORD_MASK) - _COORD_BIAS
    r = (keys.astype(np.int64) & _COORD_MASK) - _COORD_BIAS
    return resolution, q, r


@dataclass(frozen=True, order=True)
class CellId:
    """A grid cell: resolution plus axial (q, r) lattice coordinates."""

    resolution: int
    q: int
    r: int

    def __post_init__(self) -> None:
        if not 0 <= self.resolution < len(H3_MEAN_HEX_AREA_KM2):
            raise GeometryError(f"unsupported resolution: {self.resolution!r}")
        for name, coord in (("q", self.q), ("r", self.r)):
            if not -_COORD_BIAS <= coord < _COORD_BIAS:
                raise GeometryError(f"axial coordinate {name}={coord!r} out of range")

    @property
    def key(self) -> int:
        """Packed 64-bit integer key (columnar analogue of :attr:`token`)."""
        return (
            (self.resolution & 0xF) << (2 * _COORD_BITS)
            | ((self.q + _COORD_BIAS) & _COORD_MASK) << _COORD_BITS
            | ((self.r + _COORD_BIAS) & _COORD_MASK)
        )

    @property
    def token(self) -> str:
        """Hex-string token for CSV round trips (H3-index analogue)."""
        return f"{self.key:015x}"

    @classmethod
    def from_key(cls, key: int) -> "CellId":
        """Inverse of :attr:`key`."""
        key = int(key)
        if not 0 <= key < (1 << 60):
            raise GeometryError(f"cell key out of range: {key!r}")
        resolution = (key >> (2 * _COORD_BITS)) & 0xF
        q = ((key >> _COORD_BITS) & _COORD_MASK) - _COORD_BIAS
        r = (key & _COORD_MASK) - _COORD_BIAS
        return cls(resolution, q, r)

    @classmethod
    def from_token(cls, token: str) -> "CellId":
        """Inverse of :attr:`token`."""
        try:
            packed = int(token, 16)
        except ValueError as exc:
            raise GeometryError(f"malformed cell token: {token!r}") from exc
        return cls.from_key(packed)


class HexGrid:
    """Flat-top hexagonal lattice over an equal-area projection.

    Parameters
    ----------
    resolution:
        H3-style resolution, 0 (coarsest) to 10. Resolution 5 matches the
        ~253 km^2 cells of the Starlink service-cell model.
    """

    def __init__(self, resolution: int = STARLINK_CELL_RESOLUTION):
        if not 0 <= resolution < len(H3_MEAN_HEX_AREA_KM2):
            raise GeometryError(f"unsupported resolution: {resolution!r}")
        self.resolution = resolution
        self.projection = EqualAreaProjection()
        #: Exact spherical area of every cell in this grid, km^2.
        self.cell_area_km2 = H3_MEAN_HEX_AREA_KM2[resolution]
        # Hexagon area = (3*sqrt(3)/2) * a^2 where a is the circumradius.
        self.hex_size_km = math.sqrt(2.0 * self.cell_area_km2 / (3.0 * math.sqrt(3.0)))

    # -- point <-> cell ----------------------------------------------------

    def cell_for(self, point: LatLon) -> CellId:
        """Return the cell containing ``point``."""
        x, y = self.projection.forward(point)
        q, r = self._axial_round(*self._axial_fractional(x, y))
        return CellId(self.resolution, q, r)

    def cell_for_many(
        self, lat_deg: np.ndarray, lon_deg: np.ndarray
    ) -> np.ndarray:
        """Packed uint64 cell keys for arrays of points (see :attr:`CellId.key`).

        Bit-identical to ``cell_for(LatLon(lat, lon)).key`` per point;
        materialize objects with :meth:`CellId.from_key` where needed.
        """
        x, y = self.projection.forward_many(lat_deg, lon_deg)
        a = self.hex_size_km
        qf = (2.0 / 3.0) * x / a
        rf = (-x / 3.0 + math.sqrt(3.0) / 3.0 * y) / a
        q, r = _axial_round_many(qf, rf)
        return pack_cell_keys(self.resolution, q, r)

    def centers_many(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Geographic centers for an array of packed cell keys.

        Returns (lat_deg, lon_deg) arrays, bit-identical to
        :meth:`center` applied per cell.
        """
        return self.projection.inverse_many(*self._centers_xy_many(keys))

    def polygons_many(
        self, keys: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Boundary vertices for an array of packed cell keys.

        Returns (lat_deg, lon_deg) arrays of shape ``(n, 6)``, row ``i``
        bit-identical to :meth:`cell_polygon` of cell ``i``: the vertex
        offsets are the same Python-float products, added to the same
        center coordinates.
        """
        x, y = self._centers_xy_many(keys)
        a = self.hex_size_km
        angles = [math.pi / 3.0 * k for k in range(6)]
        dx = np.array([a * math.cos(angle) for angle in angles])
        dy = np.array([a * math.sin(angle) for angle in angles])
        return self.projection.inverse_many(
            x[:, np.newaxis] + dx, y[:, np.newaxis] + dy
        )

    def center(self, cell: CellId) -> LatLon:
        """Geographic center of ``cell``."""
        self._check_cell(cell)
        x, y = self._center_xy(cell)
        return self.projection.inverse(x, y)

    def cell_polygon(self, cell: CellId) -> List[LatLon]:
        """Six boundary vertices of ``cell`` (flat-top orientation)."""
        self._check_cell(cell)
        cx, cy = self._center_xy(cell)
        vertices = []
        for k in range(6):
            angle = math.pi / 3.0 * k
            vx = cx + self.hex_size_km * math.cos(angle)
            vy = cy + self.hex_size_km * math.sin(angle)
            vertices.append(self.projection.inverse(vx, vy))
        return vertices

    # -- lattice topology ---------------------------------------------------

    def neighbors(self, cell: CellId) -> List[CellId]:
        """The six lattice neighbors of ``cell``."""
        self._check_cell(cell)
        return [
            CellId(self.resolution, cell.q + dq, cell.r + dr)
            for dq, dr in _AXIAL_NEIGHBOR_OFFSETS
        ]

    def ring(self, cell: CellId, k: int) -> List[CellId]:
        """Cells at exactly hex-distance ``k`` from ``cell`` (k=0 -> [cell])."""
        self._check_cell(cell)
        if k < 0:
            raise GeometryError(f"ring distance must be >= 0: {k!r}")
        if k == 0:
            return [cell]
        results: List[CellId] = []
        # Walk k steps toward neighbor direction 4, then trace the ring.
        q = cell.q + _AXIAL_NEIGHBOR_OFFSETS[4][0] * k
        r = cell.r + _AXIAL_NEIGHBOR_OFFSETS[4][1] * k
        for direction in range(6):
            dq, dr = _AXIAL_NEIGHBOR_OFFSETS[direction]
            for _ in range(k):
                results.append(CellId(self.resolution, q, r))
                q += dq
                r += dr
        return results

    def disk(self, cell: CellId, k: int) -> List[CellId]:
        """All cells within hex-distance ``k`` of ``cell`` (inclusive)."""
        cells: List[CellId] = []
        for radius in range(k + 1):
            cells.extend(self.ring(cell, radius))
        return cells

    def distance(self, a: CellId, b: CellId) -> int:
        """Hex (lattice) distance between two cells of this grid."""
        self._check_cell(a)
        self._check_cell(b)
        dq = a.q - b.q
        dr = a.r - b.r
        return (abs(dq) + abs(dr) + abs(dq + dr)) // 2

    # -- enumeration ----------------------------------------------------------

    def cells_in_bbox(
        self,
        lat_min_deg: float,
        lat_max_deg: float,
        lon_min_deg: float,
        lon_max_deg: float,
    ) -> Iterator[CellId]:
        """Yield every cell whose center lies inside the bounding box.

        The box must not straddle the antimeridian (CONUS does not).
        """
        if lat_min_deg > lat_max_deg or lon_min_deg > lon_max_deg:
            raise GeometryError("bounding box min exceeds max")
        x_min, y_min = self.projection.forward(LatLon(lat_min_deg, lon_min_deg))
        x_max, y_max = self.projection.forward(LatLon(lat_max_deg, lon_max_deg))
        if x_min > x_max:
            raise GeometryError("bounding box straddles the antimeridian")
        a = self.hex_size_km
        q_min = int(math.floor(x_min / (1.5 * a))) - 1
        q_max = int(math.ceil(x_max / (1.5 * a))) + 1
        root3 = math.sqrt(3.0)
        for q in range(q_min, q_max + 1):
            r_lo = int(math.floor(y_min / (root3 * a) - q / 2.0)) - 1
            r_hi = int(math.ceil(y_max / (root3 * a) - q / 2.0)) + 1
            for r in range(r_lo, r_hi + 1):
                cx, cy = self._center_xy_qr(q, r)
                if x_min <= cx <= x_max and y_min <= cy <= y_max:
                    yield CellId(self.resolution, q, r)

    def cells_covering(self, polygon: "Polygon") -> np.ndarray:
        """Packed uint64 keys of the cells whose centers fall inside
        ``polygon`` (H3 polyfill analogue).

        Vectorized: enumerates the candidate lattice block in bulk and
        filters with :meth:`Polygon.contains_many`; yields exactly the
        cells, in the same q-then-r order, of the scalar
        ``cells_in_bbox`` + ``contains`` loop. Materialize objects with
        :meth:`CellId.from_key` where needed.
        """
        lat_min, lat_max, lon_min, lon_max = polygon.bounds()
        if lat_min > lat_max or lon_min > lon_max:
            raise GeometryError("bounding box min exceeds max")
        x_min, y_min = self.projection.forward(LatLon(lat_min, lon_min))
        x_max, y_max = self.projection.forward(LatLon(lat_max, lon_max))
        if x_min > x_max:
            raise GeometryError("bounding box straddles the antimeridian")
        a = self.hex_size_km
        root3 = math.sqrt(3.0)
        q_values = np.arange(
            int(math.floor(x_min / (1.5 * a))) - 1,
            int(math.ceil(x_max / (1.5 * a))) + 2,
            dtype=np.int64,
        )
        r_lo = np.floor(y_min / (root3 * a) - q_values / 2.0).astype(np.int64) - 1
        r_hi = np.ceil(y_max / (root3 * a) - q_values / 2.0).astype(np.int64) + 1
        lengths = r_hi - r_lo + 1
        q = np.repeat(q_values, lengths)
        # r runs r_lo..r_hi within each q block: a global arange minus each
        # block's running offset, plus its r_lo.
        offsets = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        r = np.arange(lengths.sum(), dtype=np.int64) - np.repeat(
            offsets, lengths
        ) + np.repeat(r_lo, lengths)
        cx = a * 1.5 * q.astype(float)
        cy = a * root3 * (r.astype(float) + q.astype(float) / 2.0)
        in_box = (cx >= x_min) & (cx <= x_max) & (cy >= y_min) & (cy <= y_max)
        q, r = q[in_box], r[in_box]
        lat, lon = self.projection.inverse_many(cx[in_box], cy[in_box])
        inside = polygon.contains_many(lat, lon)
        return pack_cell_keys(self.resolution, q[inside], r[inside])

    # -- internals ------------------------------------------------------------

    def _check_cell(self, cell: CellId) -> None:
        if cell.resolution != self.resolution:
            raise GeometryError(
                f"cell resolution {cell.resolution} does not match grid "
                f"resolution {self.resolution}"
            )

    def _center_xy(self, cell: CellId) -> Tuple[float, float]:
        return self._center_xy_qr(cell.q, cell.r)

    def _centers_xy_many(
        self, keys: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Planar centers of packed keys (vectorized :meth:`_center_xy_qr`)."""
        resolution, q, r = unpack_cell_keys(keys)
        if resolution.size and (resolution != self.resolution).any():
            bad = int(resolution[resolution != self.resolution][0])
            raise GeometryError(
                f"cell resolution {bad} does not match grid "
                f"resolution {self.resolution}"
            )
        a = self.hex_size_km
        x = a * 1.5 * q.astype(float)
        y = a * math.sqrt(3.0) * (r.astype(float) + q.astype(float) / 2.0)
        return x, y

    def _center_xy_qr(self, q: int, r: int) -> Tuple[float, float]:
        a = self.hex_size_km
        x = a * 1.5 * q
        y = a * math.sqrt(3.0) * (r + q / 2.0)
        return x, y

    def _axial_fractional(self, x: float, y: float) -> Tuple[float, float]:
        a = self.hex_size_km
        qf = (2.0 / 3.0) * x / a
        rf = (-x / 3.0 + math.sqrt(3.0) / 3.0 * y) / a
        return qf, rf

    @staticmethod
    def _axial_round(qf: float, rf: float) -> Tuple[int, int]:
        # Cube-coordinate rounding (q + r + s = 0).
        sf = -qf - rf
        q = round(qf)
        r = round(rf)
        s = round(sf)
        dq = abs(q - qf)
        dr = abs(r - rf)
        ds = abs(s - sf)
        if dq > dr and dq > ds:
            q = -r - s
        elif dr > ds:
            r = -q - s
        return int(q), int(r)


def _axial_round_many(
    qf: np.ndarray, rf: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized cube-coordinate rounding, identical to ``_axial_round``.

    Both use round-half-even (``round`` / ``np.rint``), and the two
    correction branches are mutually exclusive, so the scalar's
    sequential updates translate directly to masked selects.
    """
    sf = -qf - rf
    q = np.rint(qf)
    r = np.rint(rf)
    s = np.rint(sf)
    dq = np.abs(q - qf)
    dr = np.abs(r - rf)
    ds = np.abs(s - sf)
    fix_q = (dq > dr) & (dq > ds)
    fix_r = ~fix_q & (dr > ds)
    q_out = np.where(fix_q, -r - s, q)
    r_out = np.where(fix_r, -q - s, r)
    return q_out.astype(np.int64), r_out.astype(np.int64)


# Imported at the bottom to avoid a cycle: polygon.py does not import hexgrid.
from repro.geo.polygon import Polygon  # noqa: E402  (intentional late import)
