"""Experiment registry: one module per paper table/figure.

Each experiment takes a :class:`~repro.core.model.StarlinkDivideModel` and
returns an :class:`ExperimentResult` carrying rendered text, CSV series,
and headline metrics. ``python -m repro run fig1`` etc. drive these from
the command line; ``tests/experiments`` pins each one's headline numbers.
"""

from repro.experiments.registry import (
    ExperimentResult,
    all_experiment_ids,
    get_experiment,
    run_experiment,
    run_experiment_metrics,
)

__all__ = [
    "ExperimentResult",
    "all_experiment_ids",
    "get_experiment",
    "run_experiment",
    "run_experiment_metrics",
]
