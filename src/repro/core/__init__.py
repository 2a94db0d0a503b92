"""The paper's analytical model: capacity, sizing, tail, affordability.

This package is the primary contribution layer. Everything below it
(:mod:`repro.geo`, :mod:`repro.orbits`, :mod:`repro.spectrum`,
:mod:`repro.demand`, :mod:`repro.econ`) is substrate; everything above it
(:mod:`repro.experiments`, the CLI, examples) is presentation.
"""

from repro.core.affordability import AffordabilityAnalysis, AffordabilityCurve
from repro.core.bentpipe import BentPipeAnalysis
from repro.core.capacity import SatelliteCapacityModel
from repro.core.equity import EquityAnalysis
from repro.core.findings import Findings, compute_findings
from repro.core.latency import LatencyAnalysis
from repro.core.model import StarlinkDivideModel
from repro.core.optimizer import DeploymentOptimizer, DeploymentPlan
from repro.core.oversubscription import OversubscriptionAnalysis, ServedStats
from repro.core.sizing import ConstellationSizer, DeploymentScenario, SizingResult
from repro.core.tail import DiminishingReturnsAnalysis, TailPoint
from repro.core.uncertainty import ParameterRanges, SizingUncertainty
from repro.core.uplink import UplinkAnalysis, UplinkCapacityModel

__all__ = [
    "AffordabilityAnalysis",
    "AffordabilityCurve",
    "BentPipeAnalysis",
    "SatelliteCapacityModel",
    "EquityAnalysis",
    "Findings",
    "compute_findings",
    "LatencyAnalysis",
    "StarlinkDivideModel",
    "DeploymentOptimizer",
    "DeploymentPlan",
    "OversubscriptionAnalysis",
    "ServedStats",
    "ConstellationSizer",
    "DeploymentScenario",
    "SizingResult",
    "DiminishingReturnsAnalysis",
    "TailPoint",
    "ParameterRanges",
    "SizingUncertainty",
    "UplinkAnalysis",
    "UplinkCapacityModel",
]
