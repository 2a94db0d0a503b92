"""Beamspread groups: contiguous cell clusters one beam can cover.

The analytical model treats beamspread as a scalar ``s`` (one beam's
capacity split over ``s`` cells). Here it becomes concrete: demand cells
are partitioned into *contiguous* clusters of up to ``s`` cells using the
hex grid's adjacency, and :class:`SpreadAssignment` points one beam at a
whole cluster, splitting capacity across members by demand.

Comparing simulated coverage under SpreadAssignment with the analytical
Fig 2 servability grid checks that the scalar model's capacity division
is the right abstraction.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.demand.dataset import DemandDataset
from repro.errors import SimulationError
from repro.geo.hexgrid import CellId, HexGrid
from repro.sim.assignment import AssignmentOutcome, BeamAssignmentStrategy
from repro.sim.visibility_index import CSRVisibility
from repro.spectrum.beams import BeamPlan


def build_beam_groups(
    dataset: DemandDataset, beamspread: int
) -> List[List[int]]:
    """Partition the dataset's cells into contiguous groups of <= s cells.

    Greedy BFS clustering over hex adjacency: grow each group from an
    unassigned seed through unassigned neighbors until it holds
    ``beamspread`` cells or runs out of contiguous candidates. Every cell
    lands in exactly one group.
    """
    if beamspread < 1:
        raise SimulationError(f"beamspread must be >= 1: {beamspread!r}")
    grid = HexGrid(dataset.grid_resolution)
    index_of: Dict[CellId, int] = {
        cell.cell: i for i, cell in enumerate(dataset.cells)
    }
    unassigned = set(range(len(dataset.cells)))
    groups: List[List[int]] = []
    # Deterministic order: iterate cells as stored.
    for seed in range(len(dataset.cells)):
        if seed not in unassigned:
            continue
        group = [seed]
        unassigned.discard(seed)
        frontier = [seed]
        while frontier and len(group) < beamspread:
            current = frontier.pop(0)
            for neighbor in grid.neighbors(dataset.cells[current].cell):
                neighbor_index = index_of.get(neighbor)
                if neighbor_index is None or neighbor_index not in unassigned:
                    continue
                group.append(neighbor_index)
                unassigned.discard(neighbor_index)
                frontier.append(neighbor_index)
                if len(group) >= beamspread:
                    break
        groups.append(group)
    return groups


class SpreadAssignment(BeamAssignmentStrategy):
    """One beam serves a whole contiguous cell group (beamspread in action).

    Group demand is the sum of member demands; a group needs
    ``ceil(demand / beam_capacity)`` beams (bounded by the per-cell beam
    cap, since the beams co-cover all members). A granted beam's capacity
    divides across members in proportion to their demand.
    """

    def __init__(self, groups: Sequence[Sequence[int]]):
        if not groups:
            raise SimulationError("no beam groups")
        self.groups = [list(g) for g in groups]
        seen = set()
        for group in self.groups:
            if not group:
                raise SimulationError("empty beam group")
            overlap = seen.intersection(group)
            if overlap:
                raise SimulationError(f"cells in multiple groups: {overlap}")
            seen.update(group)

    def assign_csr(
        self,
        visibility: CSRVisibility,
        demands_mbps: np.ndarray,
        plan: BeamPlan,
    ) -> AssignmentOutcome:
        self._check_csr(visibility, demands_mbps)
        n_cells = demands_mbps.shape[0]
        free_beams = np.full(
            visibility.n_satellites, plan.beams_per_satellite, dtype=int
        )
        allocated = np.zeros(n_cells)
        covered = np.zeros(n_cells, dtype=bool)
        serving = np.full(n_cells, -1, dtype=int)

        # A beam pointed at a group must see every member: use the
        # intersection of member visibility sets.
        group_sats: List[np.ndarray] = []
        group_demand = np.zeros(len(self.groups))
        for g, group in enumerate(self.groups):
            common: Optional[set] = None
            for cell in group:
                sats = set(visibility.cell(cell).tolist())
                common = sats if common is None else (common & sats)
            group_sats.append(np.array(sorted(common or ()), dtype=int))
            group_demand[g] = demands_mbps[group].sum()

        order = np.argsort(-group_demand, kind="stable")
        for g in order:
            sats = group_sats[g]
            if sats.size == 0:
                continue
            needed = max(
                1, int(np.ceil(group_demand[g] / plan.beam_capacity_mbps))
            )
            needed = min(needed, plan.max_beams_per_cell)
            granted = 0
            primary = -1
            for sat in sats[np.argsort(-free_beams[sats], kind="stable")]:
                take = min(needed - granted, int(free_beams[sat]))
                if take <= 0:
                    continue
                free_beams[sat] -= take
                if granted == 0:
                    primary = int(sat)
                granted += take
                if granted == needed:
                    break
            if granted == 0:
                continue
            members = self.groups[g]
            covered[members] = True
            serving[members] = primary
            capacity = granted * plan.beam_capacity_mbps
            member_demand = demands_mbps[members]
            total = member_demand.sum()
            if total > 0:
                allocated[members] = np.minimum(
                    member_demand, capacity * member_demand / total
                )
            else:
                allocated[members] = capacity / len(members)
        return AssignmentOutcome(
            allocated_mbps=allocated,
            beams_used=plan.beams_per_satellite - free_beams,
            covered=covered,
            serving_satellite=serving,
        )
