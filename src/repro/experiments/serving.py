"""Serving-layer equivalence: indexed service answers vs the batch pipeline.

Not a paper figure — an infrastructure experiment in the spirit of the
validation module: build the :mod:`repro.serve` index over a regional
slice of the dataset, sweep a few scenarios through the engine's
epoch-swap path, and check the service against the batch pipeline's
:class:`~repro.core.oversubscription.OversubscriptionAnalysis` at each
epoch: the aggregate stats, and one point answer per location of the
region, whose ``served`` flags must sum to the batch's served locations
and whose fully served cells must be the batch's count.
"""

from __future__ import annotations

import asyncio

from repro.core.model import StarlinkDivideModel
from repro.core.oversubscription import OversubscriptionAnalysis
from repro.demand.locations import explode_cells_table
from repro.experiments.registry import ExperimentResult
from repro.serve import QueryEngine, ScenarioParams, build_index
from repro.viz.tables import format_table

#: Oversubscription ratios swept through the engine's update path.
SCENARIOS = (10.0, 20.0, 35.0)

#: The Appalachian subset the simulation tests use — big enough to span
#: many cells and counties, small enough to explode in milliseconds.
REGION_BBOX = (37.0, 38.5, -83.5, -81.0)


def run(model: StarlinkDivideModel) -> ExperimentResult:
    """Prove service == batch over a scenario sweep on a regional index."""
    dataset = model.dataset.subset_bbox(*REGION_BBOX, "serving region")
    table = explode_cells_table(dataset, seed=0)
    analysis = OversubscriptionAnalysis(dataset)
    engine = QueryEngine(
        build_index(
            table,
            dataset,
            ScenarioParams(oversubscription=SCENARIOS[0]),
            target_shard_rows=4096,
        )
    )
    rows = []
    all_equal = True
    for epoch_target, ratio in enumerate(SCENARIOS):
        if epoch_target:
            asyncio.run(
                engine.update_params(ScenarioParams(oversubscription=ratio))
            )
        stats = engine.stats()
        batch = analysis.stats(ratio)
        answers = engine.point_by_id(table.location_id)
        point_served = sum(answers["served"])
        point_full_cells = len(
            {
                cell
                for cell, full in zip(
                    answers["cell"], answers["cell_fully_served"]
                )
                if full
            }
        )
        equal = (
            stats["locations_served"]
            == point_served
            == batch.locations_served
        ) and (
            stats["cells_fully_served"]
            == point_full_cells
            == batch.cells_fully_served
        )
        all_equal = all_equal and equal
        rows.append(
            (
                f"{ratio:.0f}",
                stats["epoch"],
                batch.locations_served,
                stats["locations_served"],
                point_served,
                batch.cells_fully_served,
                stats["cells_fully_served"],
                point_full_cells,
                "yes" if equal else "NO",
            )
        )
    headers = (
        "oversub",
        "epoch",
        "batch_served",
        "serve_served",
        "point_served",
        "batch_full_cells",
        "serve_full_cells",
        "point_full_cells",
        "equal",
    )
    text = format_table(
        headers,
        rows,
        title=(
            f"serving index vs batch pipeline "
            f"({len(table)} locations, {engine.index.n_cells} cells, "
            f"{len(engine.index.store.shards)} shards)"
        ),
    )
    return ExperimentResult(
        experiment_id="serve",
        title="Serving index: point/aggregate answers equal the batch pipeline",
        text=text,
        csv_headers=headers,
        csv_rows=rows,
        metrics={
            "locations": float(len(table)),
            "cells": float(engine.index.n_cells),
            "shards": float(len(engine.index.store.shards)),
            "scenarios": float(len(SCENARIOS)),
            "final_epoch": float(engine.epoch),
            "all_equal": float(all_equal),
        },
    )
