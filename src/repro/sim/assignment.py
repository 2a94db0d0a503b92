"""Beam-to-cell assignment strategies.

Each simulation step produces a visibility relation (which satellites can
serve which cells) and the strategy decides where every satellite points
its beams. A strategy implements one method,
:meth:`BeamAssignmentStrategy.assign_csr`, over the CSR relation of
:class:`~repro.sim.visibility_index.CSRVisibility`. Three are provided,
named by :data:`STRATEGIES`:

* :class:`GreedyDemandFirst` — serve the hungriest cells first, pinning as
  many beams as their provisioned demand needs (the paper's peak-cell
  picture).
* :class:`ProportionalFair` — one beam per cell first (coverage before
  capacity), then distribute leftover beams by remaining demand.
* :class:`StickyGreedy` — demand-first, but each cell keeps last step's
  serving satellite while it can.

All three run one claim loop, :func:`_claim_beams`, which visits cells in
a given order and has each claim beams from its candidate satellites
until its need is met. They differ only in the visit order, the per-cell
need and the pick (see its docstring). Per-cell NumPy work (demand
ordering, beam requirements) is done in bulk once per step.

The expensive regime is late in a step, when most satellites are
drained: a cell's candidate scan then walks a long row to find nothing.
The loop tracks satellite *deaths* to skip that work: the first time a
satellite drains, a satellite -> cells transpose of the relation is
built (lazily — steps that never drain a satellite pay nothing), and a
per-cell count of still-live candidates is maintained from it. A cell
whose live count is zero is skipped in O(1), which is exact whatever the
pick — beam counts only decrease, so a dead cell stays dead. The
ProportionalFair leftover pass continues from the loop's beams and
death tracking, and swaps an ``np.argmax``-per-grant scan (O(cells)
each) for a lazy max-heap with stale-entry skipping, preserving the
argmax tie-break (equal unmet demand -> lowest cell id) via the heap's
(key, cell) ordering.

All three are outcome-identical to the original interpreted loops over
per-cell lists, which are kept verbatim in ``tests/oracles/assignment.py``
for differential testing.
"""

from __future__ import annotations

import abc
import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Type

import numpy as np
from scipy import sparse

from repro.errors import SimulationError
from repro.sim.visibility_index import CSRVisibility
from repro.spectrum.beams import BeamPlan


@dataclass
class AssignmentOutcome:
    """Result of one step's beam assignment.

    ``allocated_mbps[i]`` is the capacity delivered to cell ``i``, clamped
    to the cell's provisioned demand; ``capacity_pointed_mbps[i]`` the raw
    beam capacity pointed at the cell (>= allocated, since a cell whose
    demand is below one beam still consumes a whole beam);
    ``beams_used[j]`` the number of beams satellite ``j`` spent;
    ``covered[i]`` whether cell ``i`` received at least one beam;
    ``serving_satellite[i]`` the primary satellite pointing at cell ``i``
    (-1 when uncovered) — the quantity whose step-to-step churn measures
    beam handovers.
    """

    allocated_mbps: np.ndarray
    beams_used: np.ndarray
    covered: np.ndarray
    serving_satellite: Optional[np.ndarray] = None
    capacity_pointed_mbps: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.serving_satellite is None:
            self.serving_satellite = np.full(
                self.covered.shape[0], -1, dtype=int
            )
        if self.capacity_pointed_mbps is None:
            self.capacity_pointed_mbps = self.allocated_mbps.copy()

    @property
    def cells_covered(self) -> int:
        return int(np.count_nonzero(self.covered))

    @property
    def total_allocated_mbps(self) -> float:
        return float(self.allocated_mbps.sum())


class BeamAssignmentStrategy(abc.ABC):
    """Interface: assign satellite beams to demand cells for one step."""

    @abc.abstractmethod
    def assign_csr(
        self,
        visibility: CSRVisibility,
        demands_mbps: np.ndarray,
        plan: BeamPlan,
    ) -> AssignmentOutcome:
        """Assign beams.

        Parameters
        ----------
        visibility:
            The cell -> visible-satellites relation of this step.
        demands_mbps:
            Per-cell provisioned demand (already oversubscribed).
        plan:
            Beam counts and capacities.
        """

    @staticmethod
    def _check_csr(
        visibility: CSRVisibility, demands_mbps: np.ndarray
    ) -> None:
        if visibility.n_cells != demands_mbps.shape[0]:
            raise SimulationError(
                "visibility relation and demand vector are misaligned"
            )
        if not np.isfinite(demands_mbps).all():
            raise SimulationError("non-finite cell demand")
        if np.any(demands_mbps < 0.0):
            raise SimulationError("negative cell demand")


def _beams_needed(demands_mbps: np.ndarray, plan: BeamPlan) -> np.ndarray:
    """Per-cell beam requirement, computed in bulk."""
    needed = np.ceil(demands_mbps / plan.beam_capacity_mbps).astype(np.int64)
    return np.minimum(np.maximum(needed, 1), plan.max_beams_per_cell)


def _live_candidates(
    visibility: CSRVisibility,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Death-tracking state: the satellite -> cells transpose + counts.

    Returns ``(t_indptr, t_indices, alive)`` where
    ``t_indices[t_indptr[s]:t_indptr[s + 1]]`` are the cells that see
    satellite ``s`` and ``alive[c]`` starts as cell ``c``'s candidate
    count. Built lazily by the kernels at the *first* satellite drain —
    the moment it starts, exactly the satellites recorded as pending by
    the caller have empty budgets, so decrementing their cells brings
    ``alive`` to "candidates with free beams" and keeps it exact from
    then on (per-satellite cell lists contain no duplicates).
    """
    matrix = sparse.csr_matrix(
        (
            np.ones(visibility.indices.shape[0], dtype=np.int8),
            visibility.indices,
            visibility.indptr,
        ),
        shape=(visibility.n_cells, visibility.n_satellites),
    )
    # CSR -> CSC *is* the transpose grouping: one compiled counting
    # sort, no COO intermediate, no expanded cell-id array. Its indices
    # only ever index ``alive``, so they stay in scipy's index dtype.
    csc = matrix.tocsc()
    return csc.indptr, csc.indices, np.diff(visibility.indptr)


def _claim_beams(
    visibility: CSRVisibility,
    plan: BeamPlan,
    order: List[int],
    needed: List[int],
    enough: int,
    kept: Optional[List[int]] = None,
) -> Tuple[List[int], List[int], List[int], list]:
    """The claim loop every strategy runs.

    Visits the cells in ``order``; each takes beams from its candidates
    until it holds ``needed[cell]`` or none has a free beam. The pick:
    the first candidate in row order with at least ``enough`` free
    beams, else the one with the most. With ``enough`` equal to the
    satellite budget that is the most-free candidate (an untouched
    budget can't be beaten, so the scan stops at the first one); with
    ``enough = 1`` it is the first candidate with any. ``kept[cell]``,
    when given, is taken from first if it is one of the cell's
    candidates with free beams.

    A chosen satellite is either drained or finishes the cell, so
    rescanning the row after each claim visits candidates in exactly the
    order a descending sort by free beams, or a walk along the row,
    would.

    Returns ``(free, granted, serving, state)``: beams left per
    satellite, beams and primary satellite per cell, and, for a caller
    that claims more, ``[indptr, alive, t_indptr, t_indices, pending]``:
    the row bounds as a list and the death tracking (see
    :func:`_live_candidates`; ``pending`` holds drains not yet folded
    into ``alive``).
    """
    n_cells = visibility.n_cells
    indptr = visibility.indptr.tolist()
    indices = visibility.indices
    free = [plan.beams_per_satellite] * visibility.n_satellites
    serving = [-1] * n_cells
    granted = [0] * n_cells
    alive = None
    t_indptr = t_indices = None
    pending: List[int] = []
    for cell in order:
        start = indptr[cell]
        end = indptr[cell + 1]
        if start == end:
            continue
        if alive is not None:
            if pending:
                for sat in pending:
                    touched = t_indices[t_indptr[sat] : t_indptr[sat + 1]]
                    alive[touched] -= 1
                pending.clear()
            if not alive[cell]:
                continue  # every candidate drained: exact skip
        row = indices[start:end].tolist()
        need = needed[cell]
        got = 0
        best = -1
        if kept is not None:
            sat = kept[cell]
            # Membership first: last step's server may not be a
            # candidate now, and -1 (uncovered) must not index ``free``.
            if sat in row and free[sat]:
                best = sat
                best_free = free[sat]
        while got < need:
            if best < 0:
                best_free = 0
                for sat in row:
                    beams = free[sat]
                    if beams > best_free:
                        best_free = beams
                        best = sat
                        if beams >= enough:
                            break
                if best < 0:
                    break
            take = need - got
            if take > best_free:
                take = best_free
            remaining = best_free - take
            free[best] = remaining
            if remaining == 0:
                if alive is None:
                    t_indptr, t_indices, alive = _live_candidates(visibility)
                pending.append(best)
            if got == 0:
                serving[cell] = best
            got += take
            best = -1
        granted[cell] = got
    state = [indptr, alive, t_indptr, t_indices, pending]
    return free, granted, serving, state


class GreedyDemandFirst(BeamAssignmentStrategy):
    """Hungriest cells claim beams first, up to their full need."""

    def assign_csr(
        self,
        visibility: CSRVisibility,
        demands_mbps: np.ndarray,
        plan: BeamPlan,
    ) -> AssignmentOutcome:
        self._check_csr(visibility, demands_mbps)
        free, granted, serving, _ = _claim_beams(
            visibility,
            plan,
            np.argsort(-demands_mbps, kind="stable").tolist(),
            _beams_needed(demands_mbps, plan).tolist(),
            enough=plan.beams_per_satellite,
        )
        return _finish_outcome(granted, serving, free, demands_mbps, plan)


class ProportionalFair(BeamAssignmentStrategy):
    """Coverage first (one beam per cell), then demand-weighted extras."""

    def assign_csr(
        self,
        visibility: CSRVisibility,
        demands_mbps: np.ndarray,
        plan: BeamPlan,
    ) -> AssignmentOutcome:
        self._check_csr(visibility, demands_mbps)
        budget = plan.beams_per_satellite
        capacity = plan.beam_capacity_mbps
        max_beams = plan.max_beams_per_cell
        # Pass 1: coverage, one beam a cell, scarcest cells (fewest
        # visible satellites) first so footprint-edge cells claim their
        # few candidates before interior cells drain them.
        free, granted, serving, state = _claim_beams(
            visibility,
            plan,
            np.argsort(visibility.counts(), kind="stable").tolist(),
            [1] * demands_mbps.shape[0],
            enough=budget,
        )
        indptr, alive, t_indptr, t_indices, pending = state
        indices = visibility.indices

        # Pass 2: capacity. Repeatedly grant a beam to the cell with the
        # largest unmet demand; a cell leaves the pool when satisfied, at
        # its per-cell beam cap, or blocked (visible satellites drained).
        # A lazy max-heap replaces the per-grant np.argmax over all
        # cells: ``entitled`` maps still-eligible cells to their unmet
        # demand, and heap entries that no longer match it are stale
        # (each grant strictly shrinks a cell's unmet demand, so a stale
        # entry is always the older, larger value and pops first).
        # Ordering (-unmet, cell) reproduces argmax's tie-break: equal
        # unmet demand resolves to the lowest cell id.
        granted_np = np.array(granted, dtype=np.int64)
        unmet = demands_mbps - granted_np * capacity
        eligible = (granted_np > 0) & (unmet > 0.0) & (granted_np < max_beams)
        entitled = {}
        heap = []
        for cell in np.flatnonzero(eligible).tolist():
            value = float(unmet[cell])
            entitled[cell] = value
            heap.append((-value, cell))
        heapq.heapify(heap)
        while heap:
            negated, cell = heapq.heappop(heap)
            if entitled.get(cell) != -negated:
                continue  # stale: superseded by a later grant
            if alive is not None:
                if pending:
                    for sat in pending:
                        touched = t_indices[t_indptr[sat] : t_indptr[sat + 1]]
                        alive[touched] -= 1
                    pending.clear()
                if not alive[cell]:
                    del entitled[cell]
                    continue
            start = indptr[cell]
            end = indptr[cell + 1]
            best = -1
            best_free = 0
            for sat in indices[start:end].tolist():
                beams = free[sat]
                if beams > best_free:
                    best_free = beams
                    best = sat
                    if beams == budget:
                        break
            if best < 0:
                del entitled[cell]
                continue
            remaining = best_free - 1
            free[best] = remaining
            if remaining == 0:
                if alive is None:
                    t_indptr, t_indices, alive = _live_candidates(visibility)
                pending.append(best)
            granted[cell] += 1
            beams_now = granted[cell]
            value = float(demands_mbps[cell]) - beams_now * capacity
            if value > 0.0 and beams_now < max_beams:
                entitled[cell] = value
                heapq.heappush(heap, (-value, cell))
            else:
                del entitled[cell]
        return _finish_outcome(granted, serving, free, demands_mbps, plan)


def _finish_outcome(
    granted: List[int],
    serving: List[int],
    free_beams: List[int],
    demands_mbps: np.ndarray,
    plan: BeamPlan,
) -> AssignmentOutcome:
    """Assemble the outcome arrays from per-cell grants (bulk ops)."""
    granted_np = np.array(granted, dtype=np.int64)
    pointed = granted_np * plan.beam_capacity_mbps
    return AssignmentOutcome(
        allocated_mbps=np.minimum(pointed, demands_mbps),
        beams_used=plan.beams_per_satellite - np.array(free_beams, dtype=int),
        covered=granted_np > 0,
        serving_satellite=np.array(serving, dtype=int),
        capacity_pointed_mbps=pointed,
    )


class StickyGreedy(GreedyDemandFirst):
    """Greedy demand-first with serving-satellite stickiness.

    Remembers each cell's serving satellite from the previous step and
    keeps it while it remains visible with free beams — modeling a
    scheduler that avoids needless beam handovers. Stateful across steps:
    use one instance per simulation run.

    Cells are visited hungriest first, as in :class:`GreedyDemandFirst`,
    but each takes beams from last step's serving satellite first and
    then from its candidates in row order (ascending satellite id),
    instead of from the candidate with the most free beams.
    """

    def __init__(self) -> None:
        self._previous: Optional[np.ndarray] = None

    def assign_csr(
        self,
        visibility: CSRVisibility,
        demands_mbps: np.ndarray,
        plan: BeamPlan,
    ) -> AssignmentOutcome:
        self._check_csr(visibility, demands_mbps)
        n_cells = demands_mbps.shape[0]
        if self._previous is not None and self._previous.shape[0] != n_cells:
            raise SimulationError("sticky state misaligned with cell count")
        previous = None if self._previous is None else self._previous.tolist()
        free, granted, serving, _ = _claim_beams(
            visibility,
            plan,
            np.argsort(-demands_mbps, kind="stable").tolist(),
            _beams_needed(demands_mbps, plan).tolist(),
            enough=1,
            kept=previous,
        )
        outcome = _finish_outcome(granted, serving, free, demands_mbps, plan)
        self._previous = outcome.serving_satellite.copy()
        return outcome


#: Strategy ids, as ``--strategy`` and
#: :class:`~repro.timeline.TimelineConfig` accept them.
STRATEGIES: Dict[str, Type[BeamAssignmentStrategy]] = {
    "greedy": GreedyDemandFirst,
    "fair": ProportionalFair,
    "sticky": StickyGreedy,
}
