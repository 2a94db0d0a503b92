"""Demand substrate: the synthetic national broadband map and census join.

The paper's inputs are the FCC National Broadband Map (which locations lack
100/20 "reliable broadband", binned into Starlink's H3 service cells) and
US Census county median household incomes. Neither dataset ships with this
library; instead, :mod:`repro.demand.synthetic` generates a seeded national
map whose *published statistics match the paper's* (per-cell distribution
quantiles, planted top cells, totals), and :mod:`repro.demand.census`
assigns county incomes whose location-weighted distribution matches the
paper's affordability anchors. DESIGN.md section 2 documents why this
substitution preserves every downstream result.
"""

from repro.demand.bsl import County, ServiceCell
from repro.demand.dataset import DemandDataset
from repro.demand.growth import BassDiffusion, GrowthAnalysis
from repro.demand.quantiles import QuantileCurve
from repro.demand.regions import StudyRegion, andes_highlands, northern_archipelago
from repro.demand.served import DefectionAnalysis, ServedLayerConfig
from repro.demand.synthetic import (
    SyntheticMapConfig,
    generate_national_map,
)

__all__ = [
    "County",
    "ServiceCell",
    "DemandDataset",
    "BassDiffusion",
    "GrowthAnalysis",
    "QuantileCurve",
    "StudyRegion",
    "andes_highlands",
    "northern_archipelago",
    "DefectionAnalysis",
    "ServedLayerConfig",
    "SyntheticMapConfig",
    "generate_national_map",
]
