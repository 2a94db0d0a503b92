"""Compact visibility relation and the precomputed index that builds it.

The simulation's visibility relation ("which satellites can serve which
cells right now") was originally a Python list of per-cell index arrays,
rebuilt from a fresh per-shell KD-tree every step; that rebuild is now
the test oracle in ``tests/oracles/simulation.py``. This module holds
the array machinery the simulator runs instead:

* :class:`CSRVisibility` stores the relation in CSR form — one flat
  ``indices`` array of satellite ids plus an ``indptr`` offset array —
  so strategies, impairments, and metrics can operate on it with bulk
  NumPy ops. ``cell(c)`` reads one cell's row;
  ``from_lists()`` packs per-cell arrays (tests build relations that
  way).
* :class:`VisibilityIndex` precomputes everything that does not change
  between steps: KD-trees over the (static, Earth-fixed) demand cells,
  one per chunk of consecutive cells, and each shell's epoch ECI
  geometry. Per step, satellite positions are a *rotation* of the cached
  epoch geometry (circular orbits: ``pos(t) = cos(nt) pos0 + sin(nt)
  tan0``, then one Earth-spin matrix), so a step costs two scalar trig
  calls per shell plus sparse KD-tree range queries — no cell tree is
  ever rebuilt.

Every per-step pass walks the cells chunk by chunk (``_CHUNK_CELLS``
consecutive cells, one tree each) and a step's CSR is the concatenation
of the per-chunk CSRs, so no pass allocates a temporary that grows with
the pair count. Maps are generated in grid order, so a chunk is a
compact strip of cells; a cell order that is not spatially compact still
gets exact answers, its chunk trees just overlap more.

Two per-step modes produce bit-identical relations:

* **rebuild** — one exact sparse range query per shell and chunk,
  grouped into CSR by :func:`group_pairs` (a counting sort, so the step
  is O(nnz) with no fused sort key to overflow).
* **cached** — once per window of K steps, a single *inflated* range
  query (``chord + max displacement over the half-window``) collects a
  candidate superset, kept as cell-major satellite ids plus per-cell
  offsets (4 bytes per candidate); each step inside the window refines
  the candidates chunk by chunk with one vectorized exact chord-distance
  check and compresses the survivors into CSR. No KD-tree construction
  or sparse query runs inside the step loop. The inflation radius is a
  strict bound on satellite motion (circular orbits at fixed radius:
  ``|v| <= a * (n + omega_earth)``), so the candidate set provably
  contains every true pair for every time in the window, and the refine
  applies exactly the KD-tree's own squared-chord predicate — the two
  modes agree bit for bit (differentially tested).

``window="auto"`` picks the window length per query from the shells'
mean motion and the observed step size using a measured cost model: at
coarse steps (60 s, where a Gen1 satellite moves ~40% of a chord per
step) candidate inflation makes the rebuild cheaper and K=1 is chosen;
at the sub-minute steps that handover/diurnal timelines need, windows
win and K grows as the step shrinks.

Gateway (bent-pipe) eligibility is a boolean ndarray mask from a ball
query against a small precomputed gateway KD-tree (not a dense
satellites x gateways distance matrix).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import sparse
from scipy.spatial import cKDTree

from repro.errors import SimulationError
from repro.orbits.kepler import ecef_to_latlon, gmst_rad
from repro.orbits.walker import WalkerDelta
from repro.units import EARTH_ROTATION_RAD_S


@dataclass(frozen=True)
class CSRVisibility:
    """A cell -> visible-satellites relation in CSR form.

    ``indices[indptr[c]:indptr[c + 1]]`` are the satellite ids visible
    from cell ``c``, in ascending order when produced by
    :class:`VisibilityIndex` (matching the reference rebuild's per-cell
    arrays).
    """

    indptr: np.ndarray
    indices: np.ndarray
    n_satellites: int

    def __post_init__(self) -> None:
        if self.indptr.ndim != 1 or self.indptr[0] != 0:
            raise SimulationError("malformed CSR indptr")
        if self.indptr[-1] != self.indices.shape[0]:
            raise SimulationError("CSR indptr does not span indices")

    @property
    def n_cells(self) -> int:
        return self.indptr.shape[0] - 1

    @property
    def nnz(self) -> int:
        return int(self.indices.shape[0])

    def cell(self, cell_index: int) -> np.ndarray:
        """Satellite ids visible from one cell (a view, do not mutate)."""
        return self.indices[self.indptr[cell_index] : self.indptr[cell_index + 1]]

    def counts(self) -> np.ndarray:
        """Visible-satellite count per cell."""
        return np.diff(self.indptr)

    @classmethod
    def from_lists(
        cls, visible: Sequence[np.ndarray], n_satellites: int
    ) -> "CSRVisibility":
        """Pack per-cell index arrays into CSR, preserving per-cell order."""
        counts = np.fromiter(
            (len(v) for v in visible), dtype=np.int64, count=len(visible)
        )
        indptr = np.zeros(len(visible) + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        if indptr[-1] == 0:
            indices = np.empty(0, dtype=np.int64)
        else:
            indices = np.concatenate(
                [np.asarray(v, dtype=np.int64) for v in visible if len(v)]
            )
        return cls(indptr=indptr, indices=indices, n_satellites=n_satellites)

    def filter_satellites(self, keep: np.ndarray) -> "CSRVisibility":
        """Drop satellites where ``keep`` is False (vectorized)."""
        if keep.shape != (self.n_satellites,):
            raise SimulationError("satellite keep-mask misshapen")
        mask = keep[self.indices]
        cell_ids = np.repeat(np.arange(self.n_cells, dtype=np.int64), self.counts())
        indptr = np.zeros(self.n_cells + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(cell_ids[mask], minlength=self.n_cells), out=indptr[1:]
        )
        return CSRVisibility(
            indptr=indptr,
            indices=self.indices[mask],
            n_satellites=self.n_satellites,
        )


def group_pairs(
    cells: np.ndarray,
    sats: np.ndarray,
    n_cells: int,
    n_satellites: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Group flat (cell, satellite) pairs into CSR in O(nnz).

    Returns ``(indptr, order)`` such that ``sats[order]`` is grouped by
    cell with satellite ids ascending inside each cell — the order the
    per-shell KD-tree rebuild produces per cell.

    This replaces ``np.argsort(cells * n_satellites + sats)``: the fused
    key is O(nnz log nnz) and overflows int64 once
    ``n_cells * n_satellites`` passes 2**63 (well within reach of a
    mega-constellation over a fine grid). A counting sort needs neither:
    scipy's compiled COO->CSR conversion is exactly a bincount
    prefix-sum scatter over the cell ids followed by an in-row index
    sort, so we ride it with the pair permutation as the payload.
    """
    nnz = int(cells.shape[0])
    if nnz == 0:
        return np.zeros(n_cells + 1, dtype=np.int64), np.empty(0, dtype=np.int64)
    matrix = sparse.csr_matrix(
        # 1-based so a summed duplicate can never masquerade as a valid
        # permutation entry if the nnz guard were ever wrong.
        (np.arange(1, nnz + 1, dtype=np.int64), (cells, sats)),
        shape=(n_cells, n_satellites),
    )
    if matrix.nnz != nnz:
        # Duplicates are summed by the conversion, shrinking nnz; a
        # duplicate (cell, satellite) pair means a corrupt input.
        raise SimulationError("duplicate (cell, satellite) visibility pair")
    matrix.sort_indices()
    indptr = matrix.indptr.astype(np.int64)
    order = matrix.data - 1
    return indptr, order


@dataclass(frozen=True)
class _ShellGeometry:
    """Per-shell cached epoch geometry and query radii."""

    pos0: np.ndarray  # (total, 3) ECI positions at epoch
    tan0: np.ndarray  # (total, 3) in-plane tangents at epoch
    mean_motion_rad_s: float
    chord_radius_km: float
    gateway_radius_km: float
    offset: int  # global id of this shell's first satellite
    total: int
    # Strict ECEF speed bound for the inflation radius: orbital motion
    # plus the rotating frame, |v| <= a*n + omega*a.
    max_speed_km_s: float


#: Measured per-pair costs on the baseline bench machine (see
#: PERFORMANCE.md "Step engine"): a rebuild step costs ~95 ns per
#: emitted pair (sparse dual-tree query + CSR grouping); a cached step
#: costs ~60 ns per *candidate* (exact refine + CSR compaction). The
#: auto policy only has to rank K values, so the ratio matters, not the
#: absolute numbers. These are the single cell-tree costs; the chunked
#: passes are cheaper per pair and per candidate, but new constants
#: would change the windows auto picks, so the policy keeps these until
#: it is retuned on a national day run.
_REBUILD_NS_PER_PAIR = 95.0
_REFINE_NS_PER_CANDIDATE = 60.0

#: Cells per KD-tree chunk. Each per-step pass holds one chunk's pairs
#: at a time; at res 6 a chunk is a ~3 degree strip of longitude with
#: ~0.5 M candidate pairs. Speed is flat from 2,048 to 32,768 cells;
#: the size is chosen for the peak memory of the passes that follow
#: (PERFORMANCE.md "Step engine").
_CHUNK_CELLS = 16_384

#: Longest window the auto policy will pick.
_MAX_AUTO_WINDOW = 64

#: Slack (seconds) added to the window half-span when sizing the
#: inflation radius, so query times that land a few float ulps past the
#: nominal window edge are still provably covered.
_TIME_SLOP_S = 1e-3


class VisibilityIndex:
    """Precomputed geometry answering "who sees whom" for every step.

    Build once per simulation; call :meth:`query` per step. The demand
    cells are fixed in the Earth frame, so their KD-trees (one per chunk
    of ``_CHUNK_CELLS`` consecutive cells) are built a single time here;
    satellites are propagated by rotating cached epoch ECI geometry and
    range-queried against those fixed trees.

    ``window`` selects the per-step mode: ``1`` forces a fresh exact
    range query every step, an int ``K > 1`` reuses one inflated
    candidate query for K consecutive steps (refined exactly per step),
    and ``"auto"`` (default) picks K per query from the shells' mean
    motion and the step size (``step_hint_s``, or the spacing of the
    queries actually observed). Every mode returns bit-identical
    relations; ``last_query_stats`` reports which mode ran and how many
    candidates the refine scanned.
    """

    def __init__(
        self,
        walkers: Sequence[WalkerDelta],
        cell_ecef: np.ndarray,
        chord_radii_km: Sequence[float],
        gateway_ecef: Optional[np.ndarray] = None,
        gateway_radii_km: Optional[Sequence[float]] = None,
        window: Union[int, str] = "auto",
        step_hint_s: Optional[float] = None,
    ):
        if len(walkers) != len(chord_radii_km):
            raise SimulationError("one chord radius per shell required")
        if (gateway_ecef is None) != (gateway_radii_km is None):
            raise SimulationError(
                "gateway positions and radii must be given together"
            )
        cell_ecef = np.asarray(cell_ecef, dtype=np.float64)
        self._n_cells = cell_ecef.shape[0]
        #: (first cell, stop cell, KD-tree over those cells) per chunk.
        self._chunks: List[Tuple[int, int, cKDTree]] = []
        for start in range(0, self._n_cells, _CHUNK_CELLS):
            stop = min(start + _CHUNK_CELLS, self._n_cells)
            self._chunks.append((start, stop, cKDTree(cell_ecef[start:stop])))
        # Contiguous per-axis cell coordinates for the cached-mode
        # refine (fancy-gathering a strided 2-D column is pathologically
        # slow compared to contiguous 1-D takes).
        self._cell_axes = tuple(
            np.ascontiguousarray(cell_ecef[:, axis]) for axis in range(3)
        )
        self._gateway_ecef = gateway_ecef
        self._gateway_tree = (
            cKDTree(gateway_ecef) if gateway_ecef is not None else None
        )
        self._shells: List[_ShellGeometry] = []
        offset = 0
        for index, walker in enumerate(walkers):
            pos0, tan0 = walker.eci_state_basis()
            radius_km = float(np.linalg.norm(pos0[0])) if len(pos0) else 0.0
            self._shells.append(
                _ShellGeometry(
                    pos0=pos0,
                    tan0=tan0,
                    mean_motion_rad_s=walker.mean_motion_rad_s,
                    chord_radius_km=chord_radii_km[index],
                    gateway_radius_km=(
                        gateway_radii_km[index] if gateway_radii_km else 0.0
                    ),
                    offset=offset,
                    total=walker.total,
                    max_speed_km_s=radius_km
                    * (walker.mean_motion_rad_s + EARTH_ROTATION_RAD_S),
                )
            )
            offset += walker.total
        self.n_satellites = offset
        # Cached candidate ids are stored as narrow as the ids allow.
        self._id_dtype = (
            np.int32 if offset <= np.iinfo(np.int32).max else np.int64
        )
        # Squared chord radius per satellite, for the cached refine.
        self._chord2_by_sat = np.empty(self.n_satellites, dtype=np.float64)
        for shell in self._shells:
            self._chord2_by_sat[shell.offset : shell.offset + shell.total] = (
                shell.chord_radius_km * shell.chord_radius_km
            )
        self._window = self._validate_window(window)
        self._step_hint_s = (
            float(step_hint_s) if step_hint_s and step_hint_s > 0 else None
        )
        self._inferred_step_s: Optional[float] = None
        self._last_query_t: Optional[float] = None
        self._cache: Optional[Dict[str, object]] = None
        #: Stats of the most recent :meth:`query` (mode, candidate and
        #: surviving pair counts, whether a window was rebuilt).
        self.last_query_stats: Dict[str, object] = {}

    @staticmethod
    def _validate_window(window: Union[int, str]) -> Union[int, str]:
        if window == "auto":
            return "auto"
        if isinstance(window, bool) or not isinstance(window, int):
            raise SimulationError(f"visibility window must be 'auto' or an int >= 1: {window!r}")
        if window < 1:
            raise SimulationError(f"visibility window must be >= 1: {window}")
        return window

    def configure_window(
        self,
        window: Optional[Union[int, str]] = None,
        step_hint_s: Optional[float] = None,
    ) -> None:
        """Adjust the caching policy; any cached window is dropped."""
        if window is not None:
            self._window = self._validate_window(window)
        if step_hint_s is not None:
            self._step_hint_s = float(step_hint_s) if step_hint_s > 0 else None
        self._cache = None

    def satellite_ecef(self, shell_index: int, time_s: float) -> np.ndarray:
        """ECEF positions (total, 3) of one shell's satellites at a time."""
        shell = self._shells[shell_index]
        angle = shell.mean_motion_rad_s * time_s
        eci = math.cos(angle) * shell.pos0 + math.sin(angle) * shell.tan0
        theta = gmst_rad(time_s)
        cos_t = math.cos(theta)
        sin_t = math.sin(theta)
        rotation = np.array(
            [[cos_t, sin_t, 0.0], [-sin_t, cos_t, 0.0], [0.0, 0.0, 1.0]]
        )
        return eci @ rotation.T

    def gateway_eligibility(
        self, shell_index: int, sat_ecef: np.ndarray
    ) -> Optional[np.ndarray]:
        """Boolean mask of satellites currently seeing any gateway.

        A ball query against the small precomputed gateway tree — the
        tree applies the same squared-chord predicate a dense
        ``|sat - gateway|^2 <= r^2`` matrix would, without allocating
        the (satellites x gateways) intermediate.
        """
        if self._gateway_tree is None:
            return None
        radius = self._shells[shell_index].gateway_radius_km
        hits = self._gateway_tree.query_ball_point(
            sat_ecef, r=radius, return_length=True
        )
        return hits > 0

    # ------------------------------------------------------------------
    # Query: mode selection

    def query(self, time_s: float):
        """(CSR visibility, satellite latitudes in degrees) at ``time_s``."""
        window_steps, hint_s = self._plan_window()
        if window_steps <= 1:
            result = self._query_rebuild(time_s)
        else:
            result = self._query_cached(time_s, window_steps, hint_s)
        # Observe the spacing of consecutive queries so "auto" can size
        # windows even when no explicit step hint was configured.
        if self._last_query_t is not None:
            delta = abs(time_s - self._last_query_t)
            if delta > 0.0:
                self._inferred_step_s = delta
        self._last_query_t = time_s
        return result

    def _plan_window(self) -> Tuple[int, Optional[float]]:
        hint_s = self._step_hint_s or self._inferred_step_s
        if self._window == "auto":
            window_steps = self._auto_window_steps(hint_s)
        else:
            window_steps = int(self._window)
        if window_steps > 1 and not hint_s:
            # Can't size the inflation radius without a step estimate;
            # fall back to exact rebuilds until one is observed.
            return 1, hint_s
        return window_steps, hint_s

    def _auto_window_steps(self, hint_s: Optional[float]) -> int:
        """Window length minimizing the modeled per-step cost.

        Candidate count grows roughly with the squared inflated radius,
        so a window of K steps pays
        ``rebuild * growth / K + refine * growth`` per step against
        ``rebuild`` for K=1, where
        ``growth = (1 + worst_shell_displacement_fraction * (K-1)/2)^2``.
        """
        if not hint_s or hint_s <= 0.0:
            return 1
        alpha = 0.0  # per-step displacement as a fraction of the chord
        for shell in self._shells:
            if shell.chord_radius_km > 0.0:
                alpha = max(
                    alpha, shell.max_speed_km_s * hint_s / shell.chord_radius_km
                )
        best_steps, best_cost = 1, _REBUILD_NS_PER_PAIR
        for steps in range(2, _MAX_AUTO_WINDOW + 1):
            inflation = alpha * 0.5 * (steps - 1)
            if inflation > 1.0:
                break  # never inflate past a whole chord
            growth = (1.0 + inflation) ** 2
            cost = (
                _REBUILD_NS_PER_PAIR * growth / steps
                + _REFINE_NS_PER_CANDIDATE * growth
            )
            # Demand a real win over the rebuild, not a modeled wash.
            if cost < best_cost * 0.97:
                best_steps, best_cost = steps, cost
        return best_steps

    # ------------------------------------------------------------------
    # Chunked range queries shared by both modes

    def _chunk_pairs(
        self,
        cell_tree: cKDTree,
        sat_trees: Sequence[cKDTree],
        radii_km: Sequence[float],
        eligible: Optional[Sequence[np.ndarray]] = None,
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """One chunk's (chunk-local cell, global satellite) pairs.

        Returns ``(cells, sats, candidates)``: every shell's pairs within
        its radius, the gateway mask applied when ``eligible`` is given,
        and ``candidates`` counting the pairs before that mask. Cells
        are int32 and satellite ids the index's id dtype, which spares
        :func:`group_pairs` a conversion of each.
        """
        pair_cells: List[np.ndarray] = []
        pair_sats: List[np.ndarray] = []
        candidates = 0
        for shell_index, (shell, sat_tree) in enumerate(
            zip(self._shells, sat_trees)
        ):
            pairs = sat_tree.sparse_distance_matrix(
                cell_tree, radii_km[shell_index], output_type="ndarray"
            )
            sats = pairs["i"]
            cells = pairs["j"]
            candidates += sats.size
            if eligible is not None:
                keep = eligible[shell_index][sats]
                sats = sats[keep]
                cells = cells[keep]
            pair_sats.append(sats.astype(self._id_dtype) + shell.offset)
            pair_cells.append(cells)
        cells = np.concatenate(pair_cells, dtype=np.int32)
        return cells, np.concatenate(pair_sats), candidates

    def _grouped_pairs(
        self,
        sat_trees: Sequence[cKDTree],
        radii_km: Sequence[float],
        eligible: Optional[Sequence[np.ndarray]] = None,
        dtype=np.int64,
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """Every chunk's pairs, cell-major: ``(indptr, ids, candidates)``.

        Each chunk's pairs are grouped on chunk-local cell ids, with
        satellite ids ascending in each cell, and the chunks' CSRs are
        concatenated; ``ids`` has ``dtype``.
        """
        indptr = np.zeros(self._n_cells + 1, dtype=np.int64)
        parts: List[np.ndarray] = []
        candidates = 0
        for start, stop, cell_tree in self._chunks:
            cells, sats, chunk_candidates = self._chunk_pairs(
                cell_tree, sat_trees, radii_km, eligible
            )
            candidates += chunk_candidates
            chunk_indptr, order = group_pairs(
                cells, sats, stop - start, self.n_satellites
            )
            indptr[start + 1 : stop + 1] = chunk_indptr[1:] + indptr[start]
            parts.append(sats[order])
        return indptr, _concatenate_ids(parts, dtype), candidates

    # ------------------------------------------------------------------
    # Mode 1: exact per-step rebuild

    def _query_rebuild(self, time_s: float):
        sat_trees: List[cKDTree] = []
        lats: List[np.ndarray] = []
        eligible: Optional[List[np.ndarray]] = (
            [] if self._gateway_tree is not None else None
        )
        for shell_index in range(len(self._shells)):
            ecef = self.satellite_ecef(shell_index, time_s)
            lat, _, _ = ecef_to_latlon(ecef)
            lats.append(lat)
            if eligible is not None:
                eligible.append(self.gateway_eligibility(shell_index, ecef))
            sat_trees.append(cKDTree(ecef))
        radii = [shell.chord_radius_km for shell in self._shells]
        indptr, indices, candidates = self._grouped_pairs(
            sat_trees, radii, eligible
        )
        csr = CSRVisibility(
            indptr=indptr, indices=indices, n_satellites=self.n_satellites
        )
        self.last_query_stats = {
            "mode": "rebuild",
            "window_steps": 1,
            "window_rebuilt": False,
            "candidates": int(candidates),
            "kept": csr.nnz,
            "refine_ratio": csr.nnz / candidates if candidates else 1.0,
        }
        return csr, np.concatenate(lats)

    # ------------------------------------------------------------------
    # Mode 2: cached candidates, exact per-step refine

    def _rebuild_window(
        self, time_s: float, window_steps: int, hint_s: float
    ) -> None:
        """One inflated coarse query covering ``window_steps`` steps.

        Anchored at the window midpoint so the inflation only has to
        cover half the window span in either direction. The cache keeps
        the candidates' satellite ids, cell-major with ids ascending in
        each cell, and each cell's offset into them: the refine derives
        cell coordinates and chord radii from those per step.
        """
        half_span_s = 0.5 * (window_steps - 1) * hint_s
        anchor_s = time_s + half_span_s
        sat_trees = [
            cKDTree(self.satellite_ecef(shell_index, anchor_s))
            for shell_index in range(len(self._shells))
        ]
        radii = [
            shell.chord_radius_km
            + shell.max_speed_km_s * (half_span_s + _TIME_SLOP_S)
            for shell in self._shells
        ]
        indptr, sats, _ = self._grouped_pairs(
            sat_trees, radii, dtype=self._id_dtype
        )
        self._cache = {
            "anchor_s": anchor_s,
            "half_span_s": half_span_s,
            "window_steps": window_steps,
            "hint_s": hint_s,
            "indptr": indptr,
            "sats": sats,
        }

    def _window_covers(self, time_s: float, window_steps: int, hint_s: float) -> bool:
        cache = self._cache
        if cache is None:
            return False
        if cache["window_steps"] != window_steps or cache["hint_s"] != hint_s:
            return False
        return abs(time_s - cache["anchor_s"]) <= (
            cache["half_span_s"] + _TIME_SLOP_S
        )

    def _query_cached(self, time_s: float, window_steps: int, hint_s: float):
        rebuilt = not self._window_covers(time_s, window_steps, hint_s)
        if rebuilt:
            self._rebuild_window(time_s, window_steps, hint_s)
        cache = self._cache
        # Per-axis satellite positions at this step (small arrays; the
        # per-candidate gathers below are the hot part).
        sat_x = np.empty(self.n_satellites, dtype=np.float64)
        sat_y = np.empty(self.n_satellites, dtype=np.float64)
        sat_z = np.empty(self.n_satellites, dtype=np.float64)
        eligible_all: Optional[np.ndarray] = (
            np.empty(self.n_satellites, dtype=bool)
            if self._gateway_tree is not None
            else None
        )
        lats: List[np.ndarray] = []
        for shell_index, shell in enumerate(self._shells):
            ecef = self.satellite_ecef(shell_index, time_s)
            lat, _, _ = ecef_to_latlon(ecef)
            lats.append(lat)
            span = slice(shell.offset, shell.offset + shell.total)
            sat_x[span] = ecef[:, 0]
            sat_y[span] = ecef[:, 1]
            sat_z[span] = ecef[:, 2]
            if eligible_all is not None:
                eligible_all[span] = self.gateway_eligibility(shell_index, ecef)
        cand_sats = cache["sats"]
        offsets = cache["indptr"]
        cell_x, cell_y, cell_z = self._cell_axes
        indptr = np.zeros(self._n_cells + 1, dtype=np.int64)
        parts: List[np.ndarray] = []
        for start, stop, _ in self._chunks:
            lo = offsets[start]
            ids = cand_sats[lo : offsets[stop]]
            counts = np.diff(offsets[start : stop + 1])
            # Exact chord test over the chunk's candidates, accumulated
            # per axis in the same order cKDTree's squared-distance
            # predicate uses, so a surviving candidate is exactly a pair
            # the rebuild would emit.
            delta = np.repeat(cell_x[start:stop], counts)
            delta -= np.take(sat_x, ids)
            dist2 = delta * delta
            delta = np.repeat(cell_y[start:stop], counts)
            delta -= np.take(sat_y, ids)
            dist2 += delta * delta
            delta = np.repeat(cell_z[start:stop], counts)
            delta -= np.take(sat_z, ids)
            dist2 += delta * delta
            mask = dist2 <= np.take(self._chord2_by_sat, ids)
            if eligible_all is not None:
                mask &= np.take(eligible_all, ids)
            # Compress candidates -> CSR: prefix-sum the survivors and
            # read the cell boundaries off the cached offsets.
            survivors = np.zeros(mask.size + 1, dtype=np.int64)
            np.cumsum(mask, out=survivors[1:])
            indptr[start + 1 : stop + 1] = (
                survivors[offsets[start + 1 : stop + 1] - lo] + indptr[start]
            )
            parts.append(ids[mask])
        csr = CSRVisibility(
            indptr=indptr,
            indices=_concatenate_ids(parts),
            n_satellites=self.n_satellites,
        )
        candidates = int(cand_sats.size)
        self.last_query_stats = {
            "mode": "cached",
            "window_steps": window_steps,
            "window_rebuilt": rebuilt,
            "candidates": candidates,
            "kept": csr.nnz,
            "refine_ratio": csr.nnz / candidates if candidates else 1.0,
        }
        return csr, np.concatenate(lats)


def _concatenate_ids(parts: List[np.ndarray], dtype=np.int64) -> np.ndarray:
    """Per-chunk satellite ids joined into one ``dtype`` array."""
    if not parts:
        return np.empty(0, dtype=dtype)
    return np.concatenate(parts, dtype=dtype)
