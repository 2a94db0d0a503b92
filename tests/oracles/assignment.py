"""Reference (pre-vectorization) assignment loops.

These are the original interpreted per-cell loops of
:class:`~repro.sim.assignment.GreedyDemandFirst`,
:class:`~repro.sim.assignment.ProportionalFair` and
:class:`~repro.sim.assignment.StickyGreedy`, kept verbatim so that the
differential property tests can assert the CSR kernels are
outcome-identical on arbitrary visibility relations, and the parity
suite that whole runs produce the same
:class:`~repro.sim.metrics.SimulationReport`. They take the original
list-of-arrays arguments, ``assign(visible, demands_mbps,
satellite_count, plan)``, where ``visible[c]`` is the array of satellite
ids cell ``c`` sees; they are not
:class:`~repro.sim.assignment.BeamAssignmentStrategy` subclasses, so
the library's strategy interface has only its CSR method.

The only intentional delta from the historical code is the outcome
bookkeeping: like the fast kernels, they report demand-clamped
``allocated_mbps`` plus raw ``capacity_pointed_mbps`` (the historical
``allocated_mbps`` over-reported delivery for cells whose demand was
below one beam's capacity).

Do not optimize this module — its slowness is the point.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.errors import SimulationError
from repro.sim.assignment import AssignmentOutcome
from repro.spectrum.beams import BeamPlan


def _check_inputs(visible: List[np.ndarray], demands_mbps: np.ndarray) -> None:
    if len(visible) != demands_mbps.shape[0]:
        raise SimulationError("visibility list and demand vector are misaligned")
    if np.any(demands_mbps < 0.0):
        raise SimulationError("negative cell demand")


def _reference_outcome(
    granted: np.ndarray,
    serving: np.ndarray,
    free_beams: np.ndarray,
    demands_mbps: np.ndarray,
    plan: BeamPlan,
) -> AssignmentOutcome:
    pointed = granted * plan.beam_capacity_mbps
    return AssignmentOutcome(
        allocated_mbps=np.minimum(pointed, demands_mbps),
        beams_used=plan.beams_per_satellite - free_beams,
        covered=granted > 0,
        serving_satellite=serving,
        capacity_pointed_mbps=pointed,
    )


class ReferenceGreedyDemandFirst:
    """The original per-cell-argsort greedy loop."""

    def assign(
        self,
        visible: List[np.ndarray],
        demands_mbps: np.ndarray,
        satellite_count: int,
        plan: BeamPlan,
    ) -> AssignmentOutcome:
        _check_inputs(visible, demands_mbps)
        n_cells = demands_mbps.shape[0]
        free_beams = np.full(satellite_count, plan.beams_per_satellite, dtype=int)
        granted_beams = np.zeros(n_cells, dtype=np.int64)
        serving = np.full(n_cells, -1, dtype=int)
        order = np.argsort(-demands_mbps, kind="stable")
        for cell in order:
            sats = visible[cell]
            if sats.size == 0:
                continue
            needed = max(
                1,
                int(np.ceil(demands_mbps[cell] / plan.beam_capacity_mbps)),
            )
            needed = min(needed, plan.max_beams_per_cell)
            granted = 0
            # Prefer the visible satellite with the most free beams so that
            # multi-beam cells are served by a single satellite when possible.
            for sat in sats[np.argsort(-free_beams[sats], kind="stable")]:
                take = min(needed - granted, int(free_beams[sat]))
                if take <= 0:
                    continue
                free_beams[sat] -= take
                if granted == 0:
                    serving[cell] = int(sat)
                granted += take
                if granted == needed:
                    break
            granted_beams[cell] = granted
        return _reference_outcome(
            granted_beams, serving, free_beams, demands_mbps, plan
        )


class ReferenceProportionalFair:
    """The original two-pass proportional-fair loop."""

    def assign(
        self,
        visible: List[np.ndarray],
        demands_mbps: np.ndarray,
        satellite_count: int,
        plan: BeamPlan,
    ) -> AssignmentOutcome:
        _check_inputs(visible, demands_mbps)
        n_cells = demands_mbps.shape[0]
        free_beams = np.full(satellite_count, plan.beams_per_satellite, dtype=int)
        beams_granted = np.zeros(n_cells, dtype=np.int64)
        covered = np.zeros(n_cells, dtype=bool)
        serving = np.full(n_cells, -1, dtype=int)

        def grant_one(cell: int) -> bool:
            sats = visible[cell]
            if sats.size == 0:
                return False
            candidates = sats[free_beams[sats] > 0]
            if candidates.size == 0:
                return False
            sat = candidates[int(np.argmax(free_beams[candidates]))]
            free_beams[sat] -= 1
            if beams_granted[cell] == 0:
                serving[cell] = int(sat)
            beams_granted[cell] += 1
            return True

        # Pass 1: coverage. Every cell with a visible satellite gets a
        # beam, scarcest cells (fewest visible satellites) first so that
        # footprint-edge cells claim their few candidates before interior
        # cells drain them.
        scarcity_order = np.argsort(
            np.array([v.size for v in visible]), kind="stable"
        )
        for cell in scarcity_order:
            covered[cell] = grant_one(int(cell))

        # Pass 2: capacity. Repeatedly grant a beam to the cell with the
        # largest unmet demand until nothing more can be granted; cells
        # whose visible satellites are exhausted drop out individually.
        blocked = np.zeros(n_cells, dtype=bool)
        while True:
            unmet = demands_mbps - beams_granted * plan.beam_capacity_mbps
            eligible = np.flatnonzero(
                (unmet > 0.0)
                & covered
                & ~blocked
                & (beams_granted < plan.max_beams_per_cell)
            )
            if eligible.size == 0:
                break
            cell = int(eligible[int(np.argmax(unmet[eligible]))])
            if not grant_one(cell):
                blocked[cell] = True
        # ``covered`` and ``beams_granted > 0`` coincide: pass 1 grants the
        # first beam exactly when it marks the cell covered.
        return _reference_outcome(
            beams_granted, serving, free_beams, demands_mbps, plan
        )


class ReferenceStickyGreedy:
    """The original sticky loop: last step's server first, then row order.

    Stateful across steps, like
    :class:`~repro.sim.assignment.StickyGreedy`.
    """

    def __init__(self) -> None:
        self._previous: Optional[np.ndarray] = None

    def assign(
        self,
        visible: List[np.ndarray],
        demands_mbps: np.ndarray,
        satellite_count: int,
        plan: BeamPlan,
    ) -> AssignmentOutcome:
        _check_inputs(visible, demands_mbps)
        if self._previous is not None and self._previous.shape[0] != (
            demands_mbps.shape[0]
        ):
            raise SimulationError("sticky state misaligned with cell count")
        # Re-order each cell's candidate list to put last step's serving
        # satellite first, then run the greedy pass.
        if self._previous is None:
            reordered = visible
        else:
            reordered = []
            for cell, sats in enumerate(visible):
                previous = self._previous[cell]
                if previous >= 0 and previous in sats:
                    rest = sats[sats != previous]
                    reordered.append(
                        np.concatenate(([previous], rest)).astype(int)
                    )
                else:
                    reordered.append(sats)
        outcome = self._assign_prefer_first(
            reordered, demands_mbps, satellite_count, plan
        )
        self._previous = outcome.serving_satellite.copy()
        return outcome

    def _assign_prefer_first(
        self,
        visible: List[np.ndarray],
        demands_mbps: np.ndarray,
        satellite_count: int,
        plan: BeamPlan,
    ) -> AssignmentOutcome:
        """Greedy pass that honours each cell's candidate ordering."""
        n_cells = demands_mbps.shape[0]
        free_beams = np.full(satellite_count, plan.beams_per_satellite, dtype=int)
        granted = np.zeros(n_cells, dtype=np.int64)
        serving = np.full(n_cells, -1, dtype=int)
        order = np.argsort(-demands_mbps, kind="stable")
        needed_all = np.minimum(
            np.maximum(
                np.ceil(demands_mbps / plan.beam_capacity_mbps).astype(np.int64),
                1,
            ),
            plan.max_beams_per_cell,
        )
        for cell in order:
            sats = visible[cell]
            if sats.size == 0:
                continue
            needed = needed_all[cell]
            got = 0
            for sat in sats:  # candidate order IS the preference order
                take = min(needed - got, int(free_beams[sat]))
                if take <= 0:
                    continue
                free_beams[sat] -= take
                if got == 0:
                    serving[cell] = int(sat)
                got += take
                if got == needed:
                    break
            granted[cell] = got
        return _reference_outcome(granted, serving, free_beams, demands_mbps, plan)
