"""Shared helpers of the benchmark: paths, statistics, environment fingerprint.

Every script under ``perfbench/`` imports this module first. It puts the
checkout's ``src/`` at the front of ``sys.path`` so the benchmark always
measures the source tree it sits in, never an installed copy.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterable, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / ".out"
MANIFEST = ROOT / "BENCHMARK.json"

#: Grid resolution of the national map every workload runs on.
RESOLUTION = 6
#: The calibrated synthetic map seed and the default location explode seed.
DEFAULT_MAP_SEED = 20250706
DEFAULT_EXPLODE_SEED = 0

WORKLOADS = ("national-static", "national-timeline", "national-serve")


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, a child that died)."""


def use_source_tree() -> None:
    """Import ``repro`` from this checkout's ``src/`` or fail loudly."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise BenchError(f"imported repro from {repro.__file__}, not {SRC}")


def child_env() -> Dict[str, str]:
    """Environment for child processes: this checkout's sources first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """``VmHWM`` (peak resident set) of a live process, in MiB."""
    status = Path(f"/proc/{pid or 'self'}/status").read_text()
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchError("VmHWM missing from /proc status")


def median(values: Iterable[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Iterable[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    import numpy

    return float(numpy.percentile(list(values), q))


def result_metrics(values: Dict[str, float], trace: bool) -> Dict[str, object]:
    """``values`` as the result line's metrics, with the manifest's units.

    Every workload prints every metric of ``BENCHMARK.json``'s
    ``end_to_end`` list (``per_layer`` when traced), so a missing or an
    extra name is a benchmark bug, not a result.
    """
    try:
        manifest = json.loads(MANIFEST.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {MANIFEST.name}: {exc}")
    units = {
        entry["name"]: entry["unit"]
        for entry in manifest["per_layer" if trace else "end_to_end"]
    }
    if set(values) != set(units):
        raise BenchError(
            f"metrics differ from {MANIFEST.name}: missing"
            f" {sorted(set(units) - set(values))}, extra"
            f" {sorted(set(values) - set(units))}"
        )
    return {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in units.items()
    }


def _git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(**seeds: int) -> Dict[str, object]:
    """Seeds plus the machine and library versions a result was taken on."""
    import numpy
    import scipy

    return {
        **seeds,
        "commit": _git_commit(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def emit(payload: Dict[str, object]) -> None:
    """One JSON object on its own stdout line."""
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    sys.stdout.flush()
