"""Oversubscription and servability analysis (Figure 2, Finding F1).

A cell with ``n`` un(der)served locations is servable at oversubscription
``r`` and beamspread ``s`` iff its provisioned demand fits the capacity a
spread beamset delivers to one cell::

    n * 100 Mbps / r  <=  C_cell / s        (C_cell ~ 17.3 Gbps)

Because cells receive at most 4 beams (the full beamset), locations beyond
``floor(C_cell * r / 100 Mbps)`` per cell can never be served at ratio
``r`` no matter the constellation size — those are F1's "5128 locations"
at the FCC's 20:1 benchmark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.core.capacity import SatelliteCapacityModel
from repro.demand.dataset import DemandDataset
from repro.errors import CapacityModelError


@dataclass(frozen=True)
class ServedStats:
    """Outcome of serving a dataset at one (oversubscription, beamspread)."""

    oversubscription: float
    beamspread: float
    cells_total: int
    cells_fully_served: int
    locations_total: int
    locations_served: int

    @property
    def cell_service_fraction(self) -> float:
        """Fraction of cells whose whole demand fits (the Fig 2 metric)."""
        return self.cells_fully_served / self.cells_total

    @property
    def location_service_fraction(self) -> float:
        """Fraction of locations served when cells are capped, not dropped."""
        return self.locations_served / self.locations_total

    @property
    def locations_unserved(self) -> int:
        return self.locations_total - self.locations_served


def cell_location_cap(
    capacity: SatelliteCapacityModel,
    oversubscription: float,
    beamspread: float = 1.0,
) -> int:
    """Max locations servable in one cell at (r, s), as a pure function.

    The formula behind :meth:`OversubscriptionAnalysis.cell_location_cap`
    without requiring a dataset — the serving layer
    (:mod:`repro.serve`) recomputes scenario caps per epoch through this
    same code path, so service answers and batch answers share one
    definition.
    """
    # Written so that NaN, which fails every comparison, is refused too.
    if not (0.0 < oversubscription < math.inf):
        raise CapacityModelError(
            f"oversubscription must be positive and finite: {oversubscription!r}"
        )
    if not (1.0 <= beamspread < math.inf):
        raise CapacityModelError(
            f"beamspread must be finite and >= 1: {beamspread!r}"
        )
    spread_capacity = capacity.cell_capacity_mbps / beamspread
    return int(
        spread_capacity * oversubscription // capacity.per_location_downlink_mbps
    )


class OversubscriptionAnalysis:
    """Servability of a demand dataset under the beamset capacity model."""

    def __init__(
        self,
        dataset: DemandDataset,
        capacity: SatelliteCapacityModel | None = None,
    ):
        self.dataset = dataset
        self.capacity = capacity or SatelliteCapacityModel()
        self._counts = dataset.counts()

    def cell_location_cap(self, oversubscription: float, beamspread: float = 1.0) -> int:
        """Max locations servable in one cell at (r, s).

        At r=20, s=1 this is the paper's 3460-location cap.
        """
        return cell_location_cap(self.capacity, oversubscription, beamspread)

    def stats(self, oversubscription: float, beamspread: float = 1.0) -> ServedStats:
        """Serve the dataset at (r, s), capping each cell at its limit."""
        cap = self.cell_location_cap(oversubscription, beamspread)
        served = np.minimum(self._counts, cap)
        return ServedStats(
            oversubscription=oversubscription,
            beamspread=beamspread,
            cells_total=len(self._counts),
            cells_fully_served=int(np.count_nonzero(self._counts <= cap)),
            locations_total=int(self._counts.sum()),
            locations_served=int(served.sum()),
        )

    def outcome_arrays(
        self, oversubscription: float, beamspread: float = 1.0
    ) -> Dict[str, np.ndarray]:
        """Per-cell outcome arrays of one scenario, aligned to ``dataset.cells``.

        The batch pipeline's servability answers as columns rather than
        aggregates — exactly what a precomputed serving index consumes:

        * ``counts`` — un(der)served locations per cell,
        * ``per_cell_cap`` — the scenario's scalar cap, broadcast per cell,
        * ``served_locations`` — ``min(counts, cap)`` (what :meth:`stats` sums),
        * ``fully_served`` — ``counts <= cap`` (what Fig 2 counts),
        * ``required_oversubscription`` — bit-identical per cell to
          :meth:`SatelliteCapacityModel.required_oversubscription`.
        """
        cap = self.cell_location_cap(oversubscription, beamspread)
        counts = self._counts
        return {
            "counts": counts.copy(),
            "per_cell_cap": np.full(counts.shape, cap, dtype=np.int64),
            "served_locations": np.minimum(counts, cap),
            "fully_served": counts <= cap,
            "required_oversubscription": (
                self.capacity.required_oversubscription_many(counts)
            ),
        }

    def fraction_served_grid(
        self,
        oversubscriptions: Sequence[float],
        beamspreads: Sequence[float],
    ) -> np.ndarray:
        """Fig 2's heat grid: fraction of cells served, beamspread x oversub.

        Rows follow ``beamspreads``, columns follow ``oversubscriptions``.
        """
        if not len(oversubscriptions) or not len(beamspreads):
            raise CapacityModelError("empty sweep axes")
        grid = np.empty((len(beamspreads), len(oversubscriptions)))
        sorted_counts = np.sort(self._counts)
        n = len(sorted_counts)
        for i, spread in enumerate(beamspreads):
            for j, ratio in enumerate(oversubscriptions):
                cap = self.cell_location_cap(ratio, spread)
                grid[i, j] = np.searchsorted(sorted_counts, cap, side="right") / n
        return grid

    def finding1(
        self,
        acceptable_oversubscription: float = 20.0,
    ) -> dict:
        """The quantities in the paper's F1 box, as a dict."""
        peak = int(self._counts.max())
        required = self.capacity.required_oversubscription(peak)
        cap = self.cell_location_cap(acceptable_oversubscription)
        capped = self.stats(acceptable_oversubscription)
        return {
            "peak_cell_locations": peak,
            "required_oversubscription": required,
            "acceptable_oversubscription": acceptable_oversubscription,
            "per_cell_cap": cap,
            "locations_unservable_at_acceptable": capped.locations_unserved,
            "service_fraction_at_acceptable": capped.location_service_fraction,
            "locations_in_cells_above_cap": self.dataset.locations_in_cells_above(cap),
            "share_in_cells_above_cap": (
                self.dataset.locations_in_cells_above(cap)
                / self.dataset.total_locations
            ),
        }
