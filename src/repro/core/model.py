"""High-level facade tying the whole analysis together.

:class:`StarlinkDivideModel` is the one-object entry point a downstream
user needs::

    from repro import StarlinkDivideModel

    model = StarlinkDivideModel.default()     # calibrated synthetic US map
    print(model.table1_text())
    print(model.findings().text())

Every table and figure in the paper has a corresponding method; the
:mod:`repro.experiments` registry calls these and formats the output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.affordability import AffordabilityAnalysis, AffordabilityCurve
from repro.core.capacity import SatelliteCapacityModel
from repro.core.findings import Findings, compute_findings
from repro.core.oversubscription import OversubscriptionAnalysis
from repro.core.sizing import ConstellationSizer, DeploymentScenario, SizingResult
from repro.core.tail import DiminishingReturnsAnalysis, TailPoint
from repro.demand.dataset import DemandDataset
from repro.demand.synthetic import SyntheticMapConfig, generate_national_map
from repro.orbits.density import ShellMixDensity


class StarlinkDivideModel:
    """The paper's full analysis over one demand dataset."""

    def __init__(
        self,
        dataset: DemandDataset,
        capacity: Optional[SatelliteCapacityModel] = None,
        density: Optional[ShellMixDensity] = None,
    ):
        self.dataset = dataset
        self.capacity = capacity or SatelliteCapacityModel()
        self.sizer = ConstellationSizer(dataset, self.capacity, density)
        self.oversubscription = OversubscriptionAnalysis(dataset, self.capacity)
        self.tail = DiminishingReturnsAnalysis(dataset, self.sizer)
        self.affordability = AffordabilityAnalysis(dataset)

    @classmethod
    def default(
        cls, config: Optional[SyntheticMapConfig] = None
    ) -> "StarlinkDivideModel":
        """Model over the calibrated synthetic national map."""
        return cls(generate_national_map(config))

    # -- Figure 1 -------------------------------------------------------------

    def figure1_distribution(self) -> Dict[str, float]:
        """Fig 1's annotated statistics of locations per cell."""
        return {
            "cells": self.dataset.n_cells,
            "total_locations": self.dataset.total_locations,
            "p50": self.dataset.percentile(50),
            "p90": self.dataset.percentile(90),
            "p99": self.dataset.percentile(99),
            "max": self.dataset.max_cell().total_locations,
        }

    def figure1_cdf(
        self, points: int = 200
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(locations-per-cell grid, cumulative cell fraction)."""
        counts = np.sort(self.dataset.counts())
        grid = np.linspace(0, counts[-1], points)
        cdf = np.searchsorted(counts, grid, side="right") / counts.size
        return grid, cdf

    # -- Table 1 ----------------------------------------------------------------

    def table1(self) -> Dict[str, str]:
        return self.capacity.table1(self.dataset.max_cell().total_locations)

    # -- Figure 2 ----------------------------------------------------------------

    def figure2_grid(
        self,
        oversubscriptions: Sequence[float] = tuple(range(5, 31)),
        beamspreads: Sequence[float] = tuple(range(2, 15)),
    ) -> np.ndarray:
        return self.oversubscription.fraction_served_grid(
            oversubscriptions, beamspreads
        )

    # -- Table 2 -----------------------------------------------------------------

    def table2(
        self, beamspreads: Sequence[float] = (1, 2, 5, 10, 15)
    ) -> List[Tuple[float, int, int]]:
        return self.sizer.table2(beamspreads)

    # -- Figure 3 ----------------------------------------------------------------

    def figure3_curves(
        self,
        lines: Sequence[Tuple[float, float]] = (
            (1, 20),
            (2, 20),
            (5, 20),
            (5, 15),
            (10, 20),
            (15, 20),
        ),
    ) -> Dict[Tuple[float, float], List[TailPoint]]:
        """Step curves keyed by (beamspread, oversubscription)."""
        return {
            (spread, ratio): self.tail.step_points(ratio, spread)
            for spread, ratio in lines
        }

    # -- Figure 4 -----------------------------------------------------------------

    def figure4_curves(self) -> List[AffordabilityCurve]:
        return self.affordability.figure4()

    # -- Findings -------------------------------------------------------------------

    def findings(self, current_constellation: int = 8000) -> Findings:
        return compute_findings(
            self.dataset, self.sizer, current_constellation
        )

    # -- Extension analyses (lazily constructed) ---------------------------------

    def uplink_analysis(self):
        """Uplink-side servability (see :mod:`repro.core.uplink`)."""
        from repro.core.uplink import UplinkAnalysis

        return UplinkAnalysis(self.dataset)

    def equity_analysis(self):
        """Distributional analysis (see :mod:`repro.core.equity`)."""
        from repro.core.equity import EquityAnalysis

        return EquityAnalysis(self.dataset)

    def optimizer(self):
        """Deployment optimizer (see :mod:`repro.core.optimizer`)."""
        from repro.core.optimizer import DeploymentOptimizer

        return DeploymentOptimizer(self.dataset, self.sizer)

    def bent_pipe_analysis(self, **kwargs):
        """Gateway reachability (see :mod:`repro.core.bentpipe`)."""
        from repro.core.bentpipe import BentPipeAnalysis

        return BentPipeAnalysis(self.dataset, **kwargs)
