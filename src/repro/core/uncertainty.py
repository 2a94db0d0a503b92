"""Uncertainty quantification for the constellation-size estimates.

The paper's Table 2 rests on point estimates for quantities that are
really uncertain: the ~4.5 b/Hz spectral efficiency ("recent work
estimating..."), the peak cell's exact location, and the cell-area
identification (H3 res 5 "likely"). This module propagates ranges for
those inputs through the sizing model with Latin-hypercube sampling
(scipy.stats.qmc) and reports percentile bands — error bars for Table 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.capacity import SatelliteCapacityModel
from repro.core.sizing import ConstellationSizer, DeploymentScenario
from repro.demand.dataset import DemandDataset
from repro.errors import CapacityModelError
from repro.geo.hexgrid import H3_MEAN_HEX_AREA_KM2
from repro.spectrum.beams import starlink_beam_plan


@dataclass(frozen=True)
class ParameterRanges:
    """Input uncertainty ranges (uniform over each interval)."""

    spectral_efficiency_bps_hz: Tuple[float, float] = (4.0, 5.0)
    #: Multiplier on the H3-res-5 cell area (res-identification risk).
    cell_area_factor: Tuple[float, float] = (0.8, 1.25)
    #: Additive shift of the binding cell's latitude, degrees.
    binding_latitude_shift_deg: Tuple[float, float] = (-1.5, 1.5)

    def __post_init__(self) -> None:
        for name, (low, high) in (
            ("spectral_efficiency", self.spectral_efficiency_bps_hz),
            ("cell_area_factor", self.cell_area_factor),
            ("latitude_shift", self.binding_latitude_shift_deg),
        ):
            if low >= high:
                raise CapacityModelError(f"{name}: empty range ({low}, {high})")


@dataclass(frozen=True)
class UncertaintyBand:
    """Percentile band of constellation sizes for one beamspread."""

    beamspread: float
    p5: float
    p50: float
    p95: float
    point_estimate: int


class SizingUncertainty:
    """Latin-hypercube propagation of input ranges through Table 2."""

    def __init__(
        self,
        dataset: DemandDataset,
        ranges: Optional[ParameterRanges] = None,
        samples: int = 128,
        seed: int = 7,
    ):
        if samples < 8:
            raise CapacityModelError(f"need >= 8 samples: {samples!r}")
        self.dataset = dataset
        self.ranges = ranges or ParameterRanges()
        self.samples = samples
        self.seed = seed
        self._baseline = ConstellationSizer(dataset)

    def _sample_inputs(self) -> np.ndarray:
        # scipy.stats takes ~0.3 s to import; only this method needs it.
        from scipy.stats import qmc

        sampler = qmc.LatinHypercube(d=3, seed=self.seed)
        unit = sampler.random(self.samples)
        lows = np.array(
            [
                self.ranges.spectral_efficiency_bps_hz[0],
                self.ranges.cell_area_factor[0],
                self.ranges.binding_latitude_shift_deg[0],
            ]
        )
        highs = np.array(
            [
                self.ranges.spectral_efficiency_bps_hz[1],
                self.ranges.cell_area_factor[1],
                self.ranges.binding_latitude_shift_deg[1],
            ]
        )
        return qmc.scale(unit, lows, highs)

    def band(
        self,
        beamspread: float,
        scenario: DeploymentScenario = DeploymentScenario.FULL_SERVICE,
    ) -> UncertaintyBand:
        """Size percentile band for one beamspread."""
        base_area = H3_MEAN_HEX_AREA_KM2[self.dataset.grid_resolution]
        point = self._baseline.size_scenario(scenario, beamspread)
        sizes = []
        for efficiency, area_factor, latitude_shift in self._sample_inputs():
            sizer = ConstellationSizer(
                self.dataset,
                SatelliteCapacityModel(starlink_beam_plan(float(efficiency))),
                cell_area_km2=base_area * float(area_factor),
            )
            result = sizer.size_scenario(scenario, beamspread)
            # Shift the binding latitude and re-evaluate the density term.
            shifted = result.binding_cell_latitude_deg + float(latitude_shift)
            size = sizer.constellation_size(
                result.cells_per_satellite, shifted
            )
            sizes.append(size)
        values = np.array(sizes, dtype=float)
        return UncertaintyBand(
            beamspread=beamspread,
            p5=float(np.percentile(values, 5)),
            p50=float(np.percentile(values, 50)),
            p95=float(np.percentile(values, 95)),
            point_estimate=point.constellation_size,
        )

    def table(
        self, beamspreads: Sequence[float] = (1, 2, 5, 10, 15)
    ) -> Dict[float, UncertaintyBand]:
        """Bands for every Table 2 beamspread."""
        return {s: self.band(s) for s in beamspreads}
