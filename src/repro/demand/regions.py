"""Study regions beyond CONUS (the paper's declared future work).

The paper confines its evaluation to the United States and leaves other
countries' connectivity goals as future work. The synthetic generator
only truly needs a boundary polygon, a county count, and calibration
anchors — all of which this module packages as :class:`StudyRegion` so
the same pipeline runs on any stylized geography.

Two stylized non-US regions ship as worked examples:

* ``andes_highlands`` — a long, narrow, mid-southern-latitude country
  (Chile-like), interesting because its latitude span crosses the
  53-degree shells' density peak;
* ``northern_archipelago`` — a high-latitude region near the 53-degree
  inclination edge, where e(phi) is large and constellations are cheap
  per cell but uplink/coverage geometry is marginal.

These are *stylized*: their demand statistics are hypotheses, not data,
and are labeled as such.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from repro.errors import CalibrationError
from repro.geo.coords import LatLon
from repro.geo.polygon import Polygon

#: The Appalachian box around the national peak cell, as
#: (lat_min, lat_max, lon_min, lon_max): the region ``--quick`` runs and
#: the test suite cut from the national map with ``subset_bbox``.
QUICK_BBOX = (37.0, 38.5, -83.5, -81.0)


@dataclass(frozen=True)
class StudyRegion:
    """A study geography for the synthetic demand generator."""

    name: str
    #: Boundary vertices, (lat, lon) degrees, simple polygon.
    outline: Tuple[Tuple[float, float], ...]
    #: County-equivalent administrative units to synthesize.
    county_count: int
    #: Planted dense cells: (locations, lat, lon) — must lie inside.
    planted_peaks: Tuple[Tuple[int, float, float], ...]
    #: Total un(der)served locations to synthesize.
    total_locations: int

    def __post_init__(self) -> None:
        if len(self.outline) < 3:
            raise CalibrationError(f"region {self.name}: outline too short")
        if self.county_count <= 0:
            raise CalibrationError(f"region {self.name}: no counties")
        if self.total_locations <= 0:
            raise CalibrationError(f"region {self.name}: no locations")
        boundary = self.boundary_polygon()
        for count, lat, lon in self.planted_peaks:
            if count <= 0:
                raise CalibrationError(
                    f"region {self.name}: non-positive peak {count!r}"
                )
            if not boundary.contains(LatLon(lat, lon)):
                raise CalibrationError(
                    f"region {self.name}: peak at ({lat}, {lon}) outside "
                    "the boundary"
                )

    def boundary_polygon(self) -> Polygon:
        return Polygon([LatLon(lat, lon) for lat, lon in self.outline])


def andes_highlands() -> StudyRegion:
    """A stylized long, narrow Andean country (25S..45S along 70W)."""
    return StudyRegion(
        name="Andes Highlands (stylized)",
        outline=(
            (-25.0, -71.5),
            (-30.0, -72.0),
            (-35.0, -73.0),
            (-40.0, -74.3),
            (-45.0, -74.5),
            (-45.0, -71.5),
            (-40.0, -71.0),
            (-35.0, -69.8),
            (-30.0, -69.8),
            (-25.0, -68.2),
        ),
        county_count=120,
        planted_peaks=((3200, -33.2, -70.9), (2100, -36.8, -72.3)),
        total_locations=420_000,
    )


def northern_archipelago() -> StudyRegion:
    """A stylized high-latitude region hugging the 53-degree density edge."""
    return StudyRegion(
        name="Northern Archipelago (stylized)",
        outline=(
            (55.0, -10.0),
            (55.0, 5.0),
            (62.0, 8.0),
            (65.0, 0.0),
            (63.0, -12.0),
        ),
        county_count=60,
        planted_peaks=((1800, 59.5, -2.0),),
        total_locations=250_000,
    )
