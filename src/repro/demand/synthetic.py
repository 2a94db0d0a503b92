"""Seeded synthetic national broadband map, calibrated to the paper.

The generator reproduces the *statistics the paper publishes* about its
FCC-map-derived dataset, by construction:

* per-cell distribution quantiles (Fig 1): p90 = 552, p99 = 1437
  locations per cell, and the Fig 2 color-scale anchor (36 % of cells at
  or below ~62 locations);
* the five densest cells planted explicitly — 5998 (the paper's max),
  4400, 4200, 4000, 3830 — so that locations in cells above the 20:1
  oversubscription cap total 22,428 and the excess beyond the cap totals
  5,128, exactly matching F1 (the four sub-peak values are chosen to
  satisfy the paper's two published aggregates; the paper does not list
  them individually);
* a national total of ~4.66 M un(der)served locations (Fig 3/F4);
* the peak cell placed at ~37 N in Appalachia, the latitude implied by
  back-solving Table 2's constellation sizes through the Walker-density
  enhancement factor.

Everything is driven by one integer seed; two runs with the same config
produce identical datasets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.demand.bsl import County
from repro.demand.census import IncomeModel
from repro.demand.counties import (
    CONUS_COUNTY_COUNT,
    assign_to_nearest_seat,
    county_name,
    sample_county_seats,
)
from repro.demand.dataset import DemandDataset
from repro.demand.quantiles import QuantileCurve
from repro.errors import CalibrationError
from repro.geo.coords import LatLon
from repro.geo.hexgrid import HexGrid, STARLINK_CELL_RESOLUTION
from repro.geo.polygon import Polygon
from repro.geo.us_boundary import conus_polygon

#: Per-cell location-count quantile anchors (probability, locations/cell).
#: (0.36, 62) comes from Fig 2's bottom color anchor; (0.90, 552) and
#: (0.99, 1437) from Fig 1; the curve is capped below the 20:1 cap of 3460
#: because the five densest cells are planted separately.
DEFAULT_CELL_COUNT_ANCHORS: Tuple[Tuple[float, float], ...] = (
    (0.0, 1.0),
    (0.36, 62.0),
    (0.50, 125.0),
    (0.75, 300.0),
    (0.90, 552.0),
    (0.99, 1437.0),
    (0.999, 2600.0),
    (1.0, 3400.0),
)

#: Planted top-5 cells: (locations, preferred latitude, preferred longitude).
#: Sum = 22,428 and sum of (n - 3460) = 5,128, matching F1's aggregates.
DEFAULT_PLANTED_PEAKS: Tuple[Tuple[int, float, float], ...] = (
    (5998, 37.00, -82.50),
    (4400, 36.60, -83.70),
    (4200, 36.45, -84.90),
    (4000, 36.30, -88.20),
    (3830, 36.55, -81.20),
)


@dataclass(frozen=True)
class SyntheticMapConfig:
    """Configuration of the synthetic national broadband map."""

    seed: int = 20250706
    resolution: int = STARLINK_CELL_RESOLUTION
    total_locations: int = 4_660_000
    cell_count_anchors: Tuple[Tuple[float, float], ...] = DEFAULT_CELL_COUNT_ANCHORS
    planted_peaks: Tuple[Tuple[int, float, float], ...] = DEFAULT_PLANTED_PEAKS
    county_count: int = CONUS_COUNTY_COUNT
    income_model: IncomeModel = field(default_factory=IncomeModel)
    #: Fraction of un(der)served locations that are fully unserved (vs
    #: underserved); the capacity model treats both identically.
    unserved_fraction: float = 0.57
    #: Study-region boundary vertices; None means CONUS. See
    #: :mod:`repro.demand.regions` for prebuilt regions and
    #: :meth:`for_region` for the convenient constructor.
    region_outline: Optional[Tuple[Tuple[float, float], ...]] = None
    description: Optional[str] = None

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise CalibrationError(
                f"map seed must be non-negative: {self.seed!r}"
            )
        if self.total_locations <= 0:
            raise CalibrationError("total_locations must be positive")
        if not 0.0 <= self.unserved_fraction <= 1.0:
            raise CalibrationError(
                f"unserved_fraction out of [0, 1]: {self.unserved_fraction!r}"
            )
        planted_sum = sum(n for n, _, _ in self.planted_peaks)
        if planted_sum >= self.total_locations:
            raise CalibrationError("planted peaks exceed the national total")

    @classmethod
    def for_region(cls, region, seed: int = 20250706, **overrides):
        """Config for a :class:`~repro.demand.regions.StudyRegion`."""
        return cls(
            seed=seed,
            total_locations=region.total_locations,
            planted_peaks=region.planted_peaks,
            county_count=region.county_count,
            region_outline=region.outline,
            description=region.name,
            **overrides,
        )

    @classmethod
    def at_resolution(
        cls, resolution: int, seed: int = 20250706, **overrides
    ):
        """The national config rescaled to another H3 grid resolution.

        The paper's calibration anchors are *per-cell* location counts at
        resolution 5; at a finer grid each cell covers proportionally
        less area, so the quantile anchors and the planted peak counts
        are divided by the mean-hex-area ratio (≈ 7× per resolution
        step). The national total is unchanged — the same 4.66 M
        locations spread over ~7× more cells at resolution 6.
        """
        from repro.geo.hexgrid import H3_MEAN_HEX_AREA_KM2

        if not 0 <= resolution < len(H3_MEAN_HEX_AREA_KM2):
            raise CalibrationError(
                f"unsupported grid resolution: {resolution!r}"
            )
        factor = (
            H3_MEAN_HEX_AREA_KM2[STARLINK_CELL_RESOLUTION]
            / H3_MEAN_HEX_AREA_KM2[resolution]
        )
        anchors = tuple(
            (p, max(1.0, count / factor))
            for p, count in DEFAULT_CELL_COUNT_ANCHORS
        )
        peaks = tuple(
            (max(1, round(n / factor)), lat, lon)
            for n, lat, lon in DEFAULT_PLANTED_PEAKS
        )
        return cls(
            seed=seed,
            resolution=resolution,
            cell_count_anchors=anchors,
            planted_peaks=peaks,
            description=f"synthetic national map @ H3 res {resolution}",
            **overrides,
        )


def generate_national_map(
    config: Optional[SyntheticMapConfig] = None,
) -> DemandDataset:
    """Generate the calibrated synthetic national map.

    Deterministic in ``config.seed``. Cell keys, centers, counts and the
    county join stay arrays end to end and become the dataset through
    :meth:`~repro.demand.dataset.DemandDataset.from_columns`, so no
    per-cell object is built (~0.3 s at national res 6). Regional
    studies can generate once and
    :meth:`~repro.demand.dataset.DemandDataset.subset_bbox` afterwards.
    """
    config = config or SyntheticMapConfig()
    rng = np.random.default_rng(config.seed)
    grid = HexGrid(config.resolution)
    if config.region_outline is not None:
        boundary = Polygon(
            [LatLon(lat, lon) for lat, lon in config.region_outline]
        )
    else:
        boundary = conus_polygon()

    all_keys = grid.cells_covering(boundary)
    if all_keys.size == 0:
        raise CalibrationError("study-region polygon covers no cells")
    center_lats, center_lons = grid.centers_many(all_keys)

    curve = QuantileCurve(config.cell_count_anchors)
    planted_total = sum(n for n, _, _ in config.planted_peaks)
    bulk_total = config.total_locations - planted_total
    mean = curve.mean()
    n_occupied = int(round(bulk_total / mean))
    if n_occupied + len(config.planted_peaks) > all_keys.size:
        raise CalibrationError(
            f"need {n_occupied} occupied cells but region only has "
            f"{all_keys.size}"
        )

    # Plant the peak cells at their preferred locations first.
    peak_indices = _nearest_cell_indices(
        center_lats,
        center_lons,
        [(lat, lon) for _, lat, lon in config.planted_peaks],
    )
    if len(set(peak_indices)) != len(peak_indices):
        raise CalibrationError("two planted peaks map to the same cell")
    cell_counts = np.zeros(all_keys.size, dtype=np.int64)
    occupied = np.zeros(all_keys.size, dtype=bool)
    cell_counts[peak_indices] = [n for n, _, _ in config.planted_peaks]
    occupied[peak_indices] = True

    # Choose the bulk occupied cells uniformly among the rest.
    remaining = np.flatnonzero(~occupied)
    chosen = rng.choice(remaining, size=n_occupied, replace=False)

    # Deterministic quantile sample nails the distribution shape; the
    # planted peaks are treated as the top order statistics of the same
    # population (positions run over n_occupied + n_peaks), so combined
    # percentiles like Fig 1's p99 land on their published values. Shuffle
    # so that count magnitude is spatially unstructured (peaks excepted).
    population = n_occupied + len(config.planted_peaks)
    positions = (np.arange(n_occupied) + 0.5) / population
    values = np.asarray(curve.value(positions), dtype=float)
    counts = np.maximum(1, np.rint(values).astype(np.int64))
    # The planted peaks must remain the densest cells: cap the bulk sample
    # below the smallest planted value (regions with modest peaks simply
    # get a truncated tail).
    bulk_cap = int(curve.value(1.0))
    if config.planted_peaks:
        max_planted = max(n for n, _, _ in config.planted_peaks)
        bulk_cap = max(1, min(bulk_cap, max_planted - 1))
    counts = np.minimum(counts, bulk_cap)
    counts = _adjust_total(counts, bulk_total, cap=bulk_cap)
    rng.shuffle(counts)
    cell_counts[chosen] = counts
    occupied[chosen] = True

    # Counties: seats, Voronoi assignment of occupied cells, incomes.
    seats = sample_county_seats(boundary, config.county_count, rng)
    occupied_indices = np.flatnonzero(occupied)
    lats = center_lats[occupied_indices]
    lons = center_lons[occupied_indices]
    totals = cell_counts[occupied_indices]
    county_of_cell = assign_to_nearest_seat(lats, lons, seats)

    county_loads = np.zeros(len(seats), dtype=np.int64)
    np.add.at(county_loads, county_of_cell, totals)
    incomes = config.income_model.assign_incomes(
        dict(enumerate(county_loads.tolist())), rng
    )

    counties = {
        i: County(
            county_id=i,
            name=county_name(i),
            seat=seats[i],
            median_household_income_usd=incomes[i],
        )
        for i in range(len(seats))
    }

    # np.rint rounds half to even, as Python's round() does.
    unserved = np.rint(totals * config.unserved_fraction).astype(np.int64)
    label = config.description or "synthetic national broadband map"
    dataset = DemandDataset.from_columns(
        {
            "cell_key": all_keys[occupied_indices],
            "center_lat": lats,
            "center_lon": lons,
            "county_id": county_of_cell.astype(np.int64),
            "unserved": unserved,
            "underserved": totals - unserved,
        },
        counties=counties,
        grid_resolution=config.resolution,
        description=f"{label} (seed={config.seed})",
    )
    _check_calibration(dataset, config)
    return dataset


def _nearest_cell_indices(
    lat_deg: np.ndarray,
    lon_deg: np.ndarray,
    targets: Sequence[Tuple[float, float]],
) -> List[int]:
    """Index of the center nearest each (lat, lon) target."""
    indices = []
    for lat, lon in targets:
        # Equirectangular metric is fine for nearest-neighbour at this scale.
        d2 = (lat_deg - lat) ** 2 + (
            (lon_deg - lon) * np.cos(np.radians(lat))
        ) ** 2
        indices.append(int(np.argmin(d2)))
    return indices


def _adjust_total(counts: np.ndarray, target: int, cap: int) -> np.ndarray:
    """Nudge integer counts so they sum to ``target`` without passing ``cap``.

    Rounding the quantile sample leaves a residual of a few thousand
    locations; spread it one unit at a time over cells nearest the median
    (where cell density is highest, so tail quantiles like p90/p99 stay at
    their published targets), never crossing ``cap`` or dropping below 1.
    """
    counts = counts.copy()
    residual = int(target - counts.sum())
    if residual == 0:
        return counts
    step = 1 if residual > 0 else -1
    median = np.median(counts)
    order = np.argsort(np.abs(counts - median), kind="stable")
    i = 0
    guard = 0
    while residual != 0:
        guard += 1
        if guard > 100 * len(counts):
            raise CalibrationError(
                f"could not adjust totals: residual {residual} remains"
            )
        index = order[i % len(order)]
        candidate = counts[index] + step
        if 1 <= candidate <= cap:
            counts[index] = candidate
            residual -= step
        i += 1
    return counts


def _check_calibration(dataset: DemandDataset, config: SyntheticMapConfig) -> None:
    """Assert the generated dataset hit its published-statistic targets."""
    if dataset.total_locations != config.total_locations:
        raise CalibrationError(
            f"total locations {dataset.total_locations} != target "
            f"{config.total_locations}"
        )
    expected_max = max(n for n, _, _ in config.planted_peaks)
    actual_max = dataset.max_cell().total_locations
    if actual_max != expected_max:
        raise CalibrationError(
            f"max cell {actual_max} != planted peak {expected_max}"
        )
