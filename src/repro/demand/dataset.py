"""The joined demand dataset: service cells x counties x incomes.

:class:`DemandDataset` is the single object every model in :mod:`repro.core`
consumes. It owns the per-cell un(der)served location counts (the paper's
Figure 1 distribution), each cell's latitude (which drives constellation
sizing), and the county join (which drives affordability).

Storage is columnar-first: the analytical arrays (counts, latitudes,
incomes) plus the full per-cell column set (packed cell keys, centers,
county ids, unserved/underserved splits) are what the dataset actually
holds, and the :class:`~repro.demand.bsl.ServiceCell` list is a *view*
materialized on demand. That makes two things cheap that the object-first
layout could not do:

* :meth:`to_columns` / :meth:`from_columns` round-trip the dataset
  through plain NumPy arrays — the zero-copy handoff the shared-memory
  sweep workers (:mod:`repro.runner.shm`) attach to, skipping the
  multi-second synthetic-map rebuild per spawned worker;
* consumers that only need the arrays (every sweep function, the whole
  :mod:`repro.core` layer) never pay for 150k+ frozen dataclass
  instances.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.demand.bsl import County, ServiceCell
from repro.errors import DatasetError

#: Column names of :meth:`DemandDataset.to_columns`, in schema order.
DATASET_COLUMNS = (
    "cell_key",
    "center_lat",
    "center_lon",
    "county_id",
    "unserved",
    "underserved",
)

#: County column names of :meth:`DemandDataset.county_columns`.
COUNTY_COLUMNS = ("county_id", "seat_lat", "seat_lon", "income")


class DemandDataset:
    """Service cells with demand, joined to counties with incomes."""

    def __init__(
        self,
        cells: List[ServiceCell],
        counties: Dict[int, County],
        grid_resolution: int,
        description: str = "demand dataset",
    ):
        self.counties = counties
        self.grid_resolution = grid_resolution
        self.description = description
        self._cells: Optional[List[ServiceCell]] = list(cells) if cells else []
        self._columns: Optional[Dict[str, np.ndarray]] = None
        self.validate()
        self._counts = np.array(
            [c.total_locations for c in self._cells], dtype=np.int64
        )
        self._latitudes = np.array(
            [c.latitude_deg for c in self._cells], dtype=float
        )
        self._incomes = np.array(
            [
                self.counties[c.county_id].median_household_income_usd
                for c in self._cells
            ],
            dtype=float,
        )

    # -- columnar construction ----------------------------------------------

    @classmethod
    def from_columns(
        cls,
        columns: Mapping[str, np.ndarray],
        counties: Dict[int, County],
        grid_resolution: int,
        description: str = "demand dataset",
    ) -> "DemandDataset":
        """Build a dataset straight from :meth:`to_columns` arrays.

        The inverse of :meth:`to_columns`: validation runs vectorized
        over the arrays (same :class:`DatasetError` conditions as the
        cell-list constructor) and no :class:`ServiceCell` objects are
        materialized until something asks for :attr:`cells`. Column
        arrays are adopted as-is (no copy), which is what lets
        shared-memory workers back a dataset with attached buffers.
        """
        self = object.__new__(cls)
        self.counties = counties
        self.grid_resolution = grid_resolution
        self.description = description
        self._cells = None
        missing = [name for name in DATASET_COLUMNS if name not in columns]
        if missing:
            raise DatasetError(f"missing dataset columns {missing}")
        self._columns = {
            "cell_key": np.asarray(columns["cell_key"], dtype=np.uint64),
            "center_lat": np.asarray(columns["center_lat"], dtype=float),
            "center_lon": np.asarray(columns["center_lon"], dtype=float),
            "county_id": np.asarray(columns["county_id"], dtype=np.int64),
            "unserved": np.asarray(columns["unserved"], dtype=np.int64),
            "underserved": np.asarray(columns["underserved"], dtype=np.int64),
        }
        self.validate()
        cols = self._columns
        self._counts = cols["unserved"] + cols["underserved"]
        self._latitudes = cols["center_lat"]
        self._incomes = self._county_income_lookup(cols["county_id"])
        return self

    def to_columns(self) -> Dict[str, np.ndarray]:
        """The per-cell column set (see :data:`DATASET_COLUMNS`).

        Computed from the cell list on first call and cached; a dataset
        built by :meth:`from_columns` returns its adopted arrays.
        """
        if self._columns is None:
            cells = self.cells
            self._columns = {
                "cell_key": np.array(
                    [c.cell.key for c in cells], dtype=np.uint64
                ),
                "center_lat": np.array(
                    [c.center.lat_deg for c in cells], dtype=float
                ),
                "center_lon": np.array(
                    [c.center.lon_deg for c in cells], dtype=float
                ),
                "county_id": np.array(
                    [c.county_id for c in cells], dtype=np.int64
                ),
                "unserved": np.array(
                    [c.unserved_locations for c in cells], dtype=np.int64
                ),
                "underserved": np.array(
                    [c.underserved_locations for c in cells], dtype=np.int64
                ),
            }
        return self._columns

    def county_columns(self) -> Dict[str, np.ndarray]:
        """County attributes as arrays (see :data:`COUNTY_COLUMNS`)."""
        ids = sorted(self.counties)
        return {
            "county_id": np.array(ids, dtype=np.int64),
            "seat_lat": np.array(
                [self.counties[i].seat.lat_deg for i in ids], dtype=float
            ),
            "seat_lon": np.array(
                [self.counties[i].seat.lon_deg for i in ids], dtype=float
            ),
            "income": np.array(
                [
                    self.counties[i].median_household_income_usd
                    for i in ids
                ],
                dtype=float,
            ),
        }

    def _county_income_lookup(self, county_ids: np.ndarray) -> np.ndarray:
        """Vectorized county-id -> median income, aligned to the input."""
        known = np.array(sorted(self.counties), dtype=np.int64)
        incomes = np.array(
            [self.counties[int(i)].median_household_income_usd for i in known],
            dtype=float,
        )
        positions = np.searchsorted(known, county_ids)
        return incomes[positions]

    # -- the cell-object view ------------------------------------------------

    @property
    def cells(self) -> List[ServiceCell]:
        """Per-cell :class:`ServiceCell` objects, materialized on demand."""
        if self._cells is None:
            self._cells = [
                self._cell_at(i) for i in range(self.n_cells)
            ]
        return self._cells

    @property
    def n_cells(self) -> int:
        """Number of cells, without materializing :attr:`cells`."""
        if self._cells is not None:
            return len(self._cells)
        return len(self._columns["cell_key"])

    def _cell_at(self, index: int) -> ServiceCell:
        """Materialize one cell from columns without building the list."""
        if self._cells is not None:
            return self._cells[index]
        from repro.geo.coords import LatLon
        from repro.geo.hexgrid import CellId

        cols = self._columns
        return ServiceCell(
            cell=CellId.from_key(int(cols["cell_key"][index])),
            center=LatLon(
                float(cols["center_lat"][index]),
                float(cols["center_lon"][index]),
            ),
            county_id=int(cols["county_id"][index]),
            unserved_locations=int(cols["unserved"][index]),
            underserved_locations=int(cols["underserved"][index]),
        )

    # -- invariants -------------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`DatasetError` on structural inconsistencies."""
        if self._cells is not None:
            self._validate_cells()
        else:
            self._validate_columns()

    def _validate_cells(self) -> None:
        if not self._cells:
            raise DatasetError("dataset has no cells")
        seen = set()
        for cell in self._cells:
            if cell.cell in seen:
                raise DatasetError(f"duplicate cell {cell.cell.token}")
            seen.add(cell.cell)
            if cell.cell.resolution != self.grid_resolution:
                raise DatasetError(
                    f"cell {cell.cell.token} at resolution "
                    f"{cell.cell.resolution}, dataset at {self.grid_resolution}"
                )
            if cell.county_id not in self.counties:
                raise DatasetError(
                    f"cell {cell.cell.token} references unknown county "
                    f"{cell.county_id}"
                )

    def _validate_columns(self) -> None:
        """Vectorized validation: same errors as :meth:`_validate_cells`."""
        from repro.geo.hexgrid import CellId, unpack_cell_keys

        cols = self._columns
        lengths = {len(cols[name]) for name in DATASET_COLUMNS}
        if len(lengths) > 1:
            raise DatasetError(
                f"dataset columns have unequal lengths: {sorted(lengths)}"
            )
        keys = cols["cell_key"]
        if keys.size == 0:
            raise DatasetError("dataset has no cells")
        unique_keys, counts = np.unique(keys, return_counts=True)
        if (counts > 1).any():
            duplicate = int(unique_keys[counts > 1][0])
            raise DatasetError(
                f"duplicate cell {CellId.from_key(duplicate).token}"
            )
        resolutions, _, _ = unpack_cell_keys(keys)
        off_grid = resolutions != self.grid_resolution
        if off_grid.any():
            index = int(np.flatnonzero(off_grid)[0])
            bad = CellId.from_key(int(keys[index]))
            raise DatasetError(
                f"cell {bad.token} at resolution "
                f"{bad.resolution}, dataset at {self.grid_resolution}"
            )
        known = np.array(sorted(self.counties), dtype=np.int64)
        county_ids = cols["county_id"]
        if known.size:
            positions = np.clip(
                np.searchsorted(known, county_ids), 0, known.size - 1
            )
            unknown = known[positions] != county_ids
        else:
            unknown = np.ones(county_ids.shape, dtype=bool)
        if unknown.any():
            index = int(np.flatnonzero(unknown)[0])
            bad = CellId.from_key(int(keys[index]))
            raise DatasetError(
                f"cell {bad.token} references unknown county "
                f"{int(county_ids[index])}"
            )
        if (cols["unserved"] < 0).any() or (cols["underserved"] < 0).any():
            negative = np.flatnonzero(
                (cols["unserved"] < 0) | (cols["underserved"] < 0)
            )[0]
            bad = CellId.from_key(int(keys[int(negative)]))
            raise DatasetError(f"cell {bad.token}: negative location count")

    # -- aggregate views ----------------------------------------------------

    @property
    def total_locations(self) -> int:
        """All un(der)served locations in the dataset."""
        return int(self._counts.sum())

    @property
    def occupied_cell_count(self) -> int:
        """Cells containing at least one un(der)served location."""
        return int(np.count_nonzero(self._counts))

    def counts(self) -> np.ndarray:
        """Per-cell location counts (copy), aligned with :attr:`cells`."""
        return self._counts.copy()

    def latitudes(self) -> np.ndarray:
        """Per-cell latitudes in degrees (copy), aligned with :attr:`cells`."""
        return self._latitudes.copy()

    def cell_incomes(self) -> np.ndarray:
        """Per-cell county median income (copy), aligned with :attr:`cells`."""
        return self._incomes.copy()

    def percentile(self, q: float) -> float:
        """Percentile of the per-cell location count distribution."""
        if not 0.0 <= q <= 100.0:
            raise DatasetError(f"percentile out of [0, 100]: {q!r}")
        return float(np.percentile(self._counts, q))

    def max_cell(self) -> ServiceCell:
        """The cell with the most un(der)served locations."""
        return self._cell_at(int(np.argmax(self._counts)))

    def cells_sorted_by_demand(self) -> List[ServiceCell]:
        """Cells in descending order of location count."""
        order = np.argsort(-self._counts, kind="stable")
        return [self._cell_at(int(i)) for i in order]

    def location_weighted_income_share_below(self, income_usd: float) -> float:
        """Fraction of locations in counties below ``income_usd``."""
        total = self.total_locations
        if total == 0:
            raise DatasetError("dataset has zero locations")
        below = self._counts[self._incomes < income_usd].sum()
        return float(below) / total

    def locations_in_cells_above(self, threshold_locations: int) -> int:
        """Locations living in cells with more than ``threshold`` locations."""
        mask = self._counts > threshold_locations
        return int(self._counts[mask].sum())

    def excess_locations_above(self, cap_per_cell: int) -> int:
        """Locations beyond a per-cell cap, summed over cells."""
        if cap_per_cell < 0:
            raise DatasetError(f"negative per-cell cap: {cap_per_cell!r}")
        excess = self._counts - cap_per_cell
        return int(excess[excess > 0].sum())

    # -- identity -----------------------------------------------------------

    def fingerprint(self) -> str:
        """SHA-256 content address of the dataset's analytical inputs.

        Covers exactly what the analyses consume — grid resolution and
        the per-cell count/latitude/income arrays — so two datasets
        with the same fingerprint yield the same metrics everywhere.
        Used as the dataset component of sweep-runner cache keys.
        """
        import hashlib

        digest = hashlib.sha256()
        digest.update(str(self.grid_resolution).encode("ascii"))
        digest.update(np.ascontiguousarray(self._counts).tobytes())
        digest.update(np.ascontiguousarray(self._latitudes).tobytes())
        digest.update(np.ascontiguousarray(self._incomes).tobytes())
        return digest.hexdigest()

    # -- slicing ------------------------------------------------------------

    def subset_bbox(
        self,
        lat_min: float,
        lat_max: float,
        lon_min: float,
        lon_max: float,
        description: Optional[str] = None,
    ) -> "DemandDataset":
        """Dataset restricted to cells whose centers fall in the box."""
        columns = self.to_columns()
        lat = columns["center_lat"]
        lon = columns["center_lon"]
        kept = (lat_min <= lat) & (lat <= lat_max)
        kept &= (lon_min <= lon) & (lon <= lon_max)
        if not kept.any():
            raise DatasetError("bounding box contains no cells")
        subset = {name: columns[name][kept] for name in DATASET_COLUMNS}
        # The set's iteration order fixes the counties' dict order, so
        # fill it in cell order.
        county_ids = set(subset["county_id"].tolist())
        return DemandDataset.from_columns(
            subset,
            counties={i: self.counties[i] for i in county_ids},
            grid_resolution=self.grid_resolution,
            description=description or f"{self.description} (bbox subset)",
        )

    def summary(self) -> str:
        """Human-readable one-paragraph summary."""
        return (
            f"{self.description}: {self.total_locations:,} un(der)served "
            f"locations across {self.n_cells:,} cells "
            f"({len(self.counties):,} counties); "
            f"p50={self.percentile(50):.0f}, p90={self.percentile(90):.0f}, "
            f"p99={self.percentile(99):.0f}, "
            f"max={self.max_cell().total_locations} locations/cell"
        )
