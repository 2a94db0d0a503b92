"""Bent-pipe reachability of the demand dataset (core-layer analysis).

Geometry primitives live in :mod:`repro.orbits.gateways`; this module
joins them with the demand dataset to answer the operational question:
which un(der)served cells can a bent-pipe (no-ISL) satellite actually
serve, given a terrestrial gateway deployment?
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.demand.dataset import DemandDataset
from repro.errors import GeometryError
from repro.geo.coords import LatLon, haversine_km
from repro.orbits.gateways import (
    DEFAULT_CONUS_GATEWAYS,
    GATEWAY_MIN_ELEVATION_DEG,
    GatewaySite,
    bent_pipe_reach_km,
)
from repro.orbits.visibility import STARLINK_MIN_ELEVATION_DEG


class BentPipeAnalysis:
    """Bent-pipe reachability of a demand dataset for a gateway set."""

    def __init__(
        self,
        dataset: DemandDataset,
        gateways: Sequence[GatewaySite] = DEFAULT_CONUS_GATEWAYS,
        altitude_km: float = 550.0,
        ut_elevation_deg: float = STARLINK_MIN_ELEVATION_DEG,
        gw_elevation_deg: float = GATEWAY_MIN_ELEVATION_DEG,
    ):
        if not gateways:
            raise GeometryError("need at least one gateway site")
        self.dataset = dataset
        self.gateways = list(gateways)
        self.altitude_km = altitude_km
        self.reach_km = bent_pipe_reach_km(
            altitude_km, ut_elevation_deg, gw_elevation_deg
        )
        columns = dataset.to_columns()
        self._cells = LatLon(columns["center_lat"], columns["center_lon"])

    def nearest_gateway_km(self) -> np.ndarray:
        """Distance from each cell to its closest gateway, km."""
        distances = np.stack(
            [haversine_km(self._cells, g.position) for g in self.gateways],
            axis=1,
        )
        return distances.min(axis=1)

    def reachable_mask(self) -> np.ndarray:
        """Which cells a bent-pipe satellite can serve at all."""
        return self.nearest_gateway_km() <= self.reach_km

    def coverage_summary(self) -> dict:
        """Cells/locations reachable under bent-pipe operation."""
        mask = self.reachable_mask()
        counts = self.dataset.counts()
        total = int(counts.sum())
        reachable_locations = int(counts[mask].sum())
        return {
            "gateways": len(self.gateways),
            "reach_km": self.reach_km,
            "cells_reachable": int(mask.sum()),
            "cells_total": len(mask),
            "cell_fraction": float(mask.mean()),
            "locations_reachable": reachable_locations,
            "location_fraction": reachable_locations / total if total else 1.0,
        }

    def greedy_minimum_gateways(
        self, candidates: Optional[Sequence[GatewaySite]] = None
    ) -> List[GatewaySite]:
        """Greedy set cover: fewest candidate sites covering every cell.

        Candidates default to the configured gateway set. Raises if even
        all candidates together cannot cover every cell.
        """
        candidates = list(candidates or self.gateways)
        uncovered = set(range(self.dataset.n_cells))
        cover_sets = []
        for gateway in candidates:
            within = haversine_km(self._cells, gateway.position) <= self.reach_km
            cover_sets.append(set(np.flatnonzero(within).tolist()))
        union = set().union(*cover_sets) if cover_sets else set()
        if uncovered - union:
            raise GeometryError(
                f"{len(uncovered - union)} cells unreachable from any "
                "candidate gateway"
            )
        chosen: List[GatewaySite] = []
        while uncovered:
            best = max(
                range(len(candidates)), key=lambda j: len(cover_sets[j] & uncovered)
            )
            gain = cover_sets[best] & uncovered
            if not gain:  # pragma: no cover - union check above prevents this
                raise GeometryError("greedy cover stalled")
            chosen.append(candidates[best])
            uncovered -= gain
        return chosen
