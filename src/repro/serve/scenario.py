"""Scenario parameters a serving index is built for.

A scenario is the triple the batch pipeline sweeps: oversubscription
ratio, beamspread, and the affordability income share. The serving layer
precomputes one index per scenario; :meth:`ScenarioParams.scenario_id`
names it stably so responses can be traced back to the exact parameters
that produced them.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import List

from repro.core.affordability import figure4_plans
from repro.econ.plans import BroadbandPlan
from repro.econ.thresholds import AFFORDABILITY_INCOME_SHARE
from repro.errors import ServeError


def serve_plans() -> List[BroadbandPlan]:
    """The plans a serving index precomputes affordability for.

    The same four plans Figure 4 compares, in the same (cheapest-first)
    order, so service affordability columns line up with
    :meth:`repro.core.affordability.AffordabilityAnalysis.affordable_matrix`.
    """
    return figure4_plans()


@dataclass(frozen=True)
class ScenarioParams:
    """One servability scenario: (oversubscription, beamspread, income share)."""

    oversubscription: float = 20.0
    beamspread: float = 1.0
    income_share: float = AFFORDABILITY_INCOME_SHARE

    def __post_init__(self) -> None:
        # NaN passes every ordered comparison below, and an infinite
        # beamspread caps every cell at 0: neither names a scenario.
        for name in ("oversubscription", "beamspread", "income_share"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ServeError(f"{name} must be finite: {value!r}")
        if self.oversubscription <= 0.0:
            raise ServeError(
                f"oversubscription must be positive: {self.oversubscription!r}"
            )
        if self.beamspread < 1.0:
            raise ServeError(f"beamspread must be >= 1: {self.beamspread!r}")
        if self.income_share <= 0.0:
            raise ServeError(
                f"income share must be positive: {self.income_share!r}"
            )

    @property
    def scenario_id(self) -> str:
        """Stable short id of the exact parameter values.

        Hashes the ``repr`` of each float (lossless for IEEE doubles), so
        two scenarios share an id iff their parameters are bit-identical.
        """
        text = (
            f"oversubscription={self.oversubscription!r}"
            f"|beamspread={self.beamspread!r}"
            f"|income_share={self.income_share!r}"
        )
        return hashlib.sha256(text.encode("ascii")).hexdigest()[:12]
