"""Spectrum reuse and beam-overlap constraints.

The paper notes that beamforming flexibility "is ultimately limited by
physical and regulatory constraints on spectrum reuse and beam overlap
(e.g., FCC polarization restrictions)". This module makes that sentence
quantitative:

* co-frequency, co-polarization beams cannot overlap on the ground, so
  within any interference neighborhood the number of concurrent beams is
  capped by the count of **orthogonal resources** — frequency channels
  times polarizations;
* that cap yields a *physics ceiling* on per-cell capacity that no amount
  of constellation densification can beat (the structural reason P2's
  peak cell cannot be rescued by more satellites), and a headroom check
  for any :class:`~repro.spectrum.beams.BeamPlan`.

With Starlink-like numbers (3850 MHz over 250 MHz channels, dual
polarization -> 30 orthogonal resources), the ceiling on one cell is
~33.75 Gbps — about 2x the 17.3 Gbps the FCC-filed 4-beam configuration
delivers. The filing, not physics, is the binding constraint; an
ablation in ``tests/experiments`` sweeps the reuse budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from repro.errors import CapacityModelError
from repro.spectrum.beams import BeamPlan


@dataclass(frozen=True)
class InterferenceModel:
    """Orthogonal-resource accounting for overlapping spot beams."""

    total_spectrum_mhz: float = 3850.0
    channel_mhz: float = 250.0
    polarizations: int = 2
    #: Hex rings around a cell inside which co-resource reuse is barred.
    exclusion_rings: int = 1
    spectral_efficiency_bps_hz: float = 4.5

    def __post_init__(self) -> None:
        if self.total_spectrum_mhz <= 0.0 or self.channel_mhz <= 0.0:
            raise CapacityModelError("spectrum and channel width must be positive")
        if self.channel_mhz > self.total_spectrum_mhz:
            raise CapacityModelError("channel wider than the allocation")
        if self.polarizations not in (1, 2):
            raise CapacityModelError(
                f"polarizations must be 1 or 2: {self.polarizations!r}"
            )
        if self.exclusion_rings < 0:
            raise CapacityModelError(
                f"exclusion rings must be >= 0: {self.exclusion_rings!r}"
            )

    @property
    def channels(self) -> int:
        """Frequency channels in the allocation."""
        return int(self.total_spectrum_mhz // self.channel_mhz)

    @property
    def orthogonal_resources(self) -> int:
        """Concurrent non-interfering beams within one neighborhood."""
        return self.channels * self.polarizations

    @property
    def exclusion_area_cells(self) -> int:
        """Cells in the interference neighborhood (hex disk)."""
        k = self.exclusion_rings
        return 1 + 3 * k * (k + 1)

    def cell_capacity_ceiling_mbps(self) -> float:
        """Physics ceiling on one cell's concurrent downlink capacity.

        Every orthogonal resource may point one beam at the cell (from any
        satellite — densification cannot add more), each carrying one
        channel's worth of capacity.
        """
        return (
            self.orthogonal_resources
            * self.channel_mhz
            * self.spectral_efficiency_bps_hz
        )

    def neighborhood_capacity_density_mbps(self) -> float:
        """Average concurrent capacity per cell across a neighborhood.

        The resources are shared by every cell in the exclusion disk, so
        sustained *area* capacity is the ceiling divided by the disk size.
        """
        return self.cell_capacity_ceiling_mbps() / self.exclusion_area_cells

    def min_oversubscription_possible(self, peak_cell_locations: int) -> float:
        """Best-case peak-cell oversubscription under the physics ceiling.

        No constellation, however dense, can do better than this — the
        quantitative form of "densification cannot rescue the peak cell".
        """
        if peak_cell_locations <= 0:
            raise CapacityModelError(
                f"peak cell must have locations: {peak_cell_locations!r}"
            )
        demand = peak_cell_locations * 100.0
        return demand / self.cell_capacity_ceiling_mbps()

    def validate_beam_plan(self, plan: BeamPlan) -> Dict[str, float]:
        """Check a beam plan against the reuse budget.

        Raises when the plan's concurrent beams exceed the orthogonal
        resources; returns headroom statistics otherwise.
        """
        if plan.beams_per_satellite > self.orthogonal_resources:
            raise CapacityModelError(
                f"{plan.beams_per_satellite} beams exceed the "
                f"{self.orthogonal_resources} orthogonal resources in one "
                "neighborhood"
            )
        ceiling = self.cell_capacity_ceiling_mbps()
        return {
            "orthogonal_resources": self.orthogonal_resources,
            "beams_per_satellite": plan.beams_per_satellite,
            "resource_headroom": (
                self.orthogonal_resources - plan.beams_per_satellite
            ),
            "cell_capacity_ceiling_mbps": ceiling,
            "filed_cell_capacity_mbps": plan.cell_capacity_mbps,
            "filing_utilization": plan.cell_capacity_mbps / ceiling,
        }
