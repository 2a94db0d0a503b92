"""Failure injection: satellite outages and rain fade.

Two impairments every LEO operator lives with, for testing how gracefully
coverage and capacity degrade:

* :class:`SatelliteOutages` — a seeded random fraction of satellites is
  dead (failed, deorbiting, or in safe mode); dead satellites drop out of
  the visibility relation.
* :class:`RainFade` — a circular weather region where the achievable
  spectral efficiency is derated; cells inside need proportionally more
  beam capacity for the same provisioned demand.

Both plug into :class:`~repro.sim.simulation.ConstellationSimulation` via
its ``impairments`` parameter and compose freely: each step,
:func:`apply_impairments_csr` ANDs every satellite keep-mask into one,
filters the step's CSR relation with it, then runs every demand scaling
in order.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.geo.coords import LatLon, haversine_km


class Impairment(abc.ABC):
    """Interface: transform visibility and demand before assignment."""

    def filter_satellites(
        self, satellite_count: int, rng: np.random.Generator
    ) -> Optional[np.ndarray]:
        """Boolean keep-mask over satellites, or None for no effect."""
        return None

    def scale_demands(
        self, demands_mbps: np.ndarray, lat_deg: np.ndarray, lon_deg: np.ndarray
    ) -> np.ndarray:
        """Return (possibly scaled) per-cell provisioned demands.

        ``lat_deg`` and ``lon_deg`` are the cell centres, aligned with
        ``demands_mbps``.
        """
        return demands_mbps


@dataclass(frozen=True)
class SatelliteOutages(Impairment):
    """A seeded random fraction of satellites is out of service."""

    outage_fraction: float
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.outage_fraction < 1.0:
            raise SimulationError(
                f"outage fraction out of [0, 1): {self.outage_fraction!r}"
            )

    def filter_satellites(
        self, satellite_count: int, rng: np.random.Generator
    ) -> Optional[np.ndarray]:
        if self.outage_fraction == 0.0:
            return None
        # Use our own seeded generator so the dead set is stable across
        # steps (a failed satellite stays failed).
        own_rng = np.random.default_rng(self.seed)
        dead_count = int(round(satellite_count * self.outage_fraction))
        dead = own_rng.choice(satellite_count, size=dead_count, replace=False)
        keep = np.ones(satellite_count, dtype=bool)
        keep[dead] = False
        return keep


@dataclass(frozen=True)
class RainFade(Impairment):
    """Spectral-efficiency derating inside a circular weather system."""

    center: LatLon
    radius_km: float
    efficiency_factor: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.radius_km) and self.radius_km > 0.0):
            raise SimulationError(
                f"radius must be finite and positive: {self.radius_km!r}"
            )
        lat, lon = self.center
        if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
            raise SimulationError(
                f"centre outside [-90, 90] x [-180, 180]: {self.center!r}"
            )
        if not 0.0 < self.efficiency_factor <= 1.0:
            raise SimulationError(
                f"efficiency factor out of (0, 1]: {self.efficiency_factor!r}"
            )

    def scale_demands(
        self, demands_mbps: np.ndarray, lat_deg: np.ndarray, lon_deg: np.ndarray
    ) -> np.ndarray:
        if self.efficiency_factor == 1.0:
            return demands_mbps
        inside = haversine_km(LatLon(lat_deg, lon_deg), self.center) <= (
            self.radius_km
        )
        # Lower efficiency means more spectrum-time per bit: model as
        # inflated capacity need for the same user demand.
        return np.where(
            inside, demands_mbps / self.efficiency_factor, demands_mbps
        )


def apply_impairments_csr(
    impairments: Sequence[Impairment],
    visibility,
    demands_mbps: np.ndarray,
    lat_deg: np.ndarray,
    lon_deg: np.ndarray,
    rng: np.random.Generator,
) -> tuple:
    """Run all impairments over one step's inputs.

    Takes a :class:`~repro.sim.visibility_index.CSRVisibility` and the
    cell centres, and returns ``(filtered relation, scaled demand
    vector)``; the satellite filter is a single vectorized mask
    application.
    """
    satellite_count = visibility.n_satellites
    keep = np.ones(satellite_count, dtype=bool)
    for impairment in impairments:
        mask = impairment.filter_satellites(satellite_count, rng)
        if mask is not None:
            if mask.shape != (satellite_count,):
                raise SimulationError("impairment mask misshapen")
            keep &= mask
    if not keep.all():
        visibility = visibility.filter_satellites(keep)
    demands = demands_mbps
    for impairment in impairments:
        demands = impairment.scale_demands(demands, lat_deg, lon_deg)
    return visibility, demands
