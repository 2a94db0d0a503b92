"""Run manifests: the provenance record written next to every output.

A :class:`RunManifest` captures everything needed to audit (or exactly
re-run) one sweep or timeline run: the command and argv, git
commit, a hash of the swept parameters, the dataset
fingerprint, the full span forest, and a metrics snapshot.
``repro-divide report <manifest>`` renders it back (see
:mod:`repro.obs.report`).

Manifests are plain JSON, schema-tagged ``repro-run-manifest/1``, and
live next to the output they describe: ``sweep.csv`` gets
``sweep.manifest.json`` (:func:`manifest_path_for`).
"""

from __future__ import annotations

import json
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.errors import ReproError

__all__ = [
    "MANIFEST_SCHEMA",
    "RunManifest",
    "collect_manifest",
    "git_sha",
    "manifest_path_for",
]

#: Schema tag every manifest carries.
MANIFEST_SCHEMA = "repro-run-manifest/1"


def git_sha() -> str:
    """The repository HEAD commit, or ``"unknown"`` outside a checkout."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            check=True,
            timeout=10,
        ).stdout.strip()
    except Exception:
        return "unknown"


def manifest_path_for(out_path: Union[str, Path]) -> Path:
    """Where the manifest for an output file lives (same stem, same dir)."""
    target = Path(out_path)
    return target.with_name(f"{target.stem}.manifest.json")


@dataclass
class RunManifest:
    """Provenance + telemetry of one run, JSON round-trippable."""

    command: str
    argv: List[str] = field(default_factory=list)
    created_unix: float = 0.0
    commit: str = "unknown"
    params_hash: Optional[str] = None
    dataset_fingerprint: Optional[str] = None
    spans: List[Dict] = field(default_factory=list)
    metrics: Dict[str, Dict] = field(default_factory=dict)
    events_path: Optional[str] = None
    extra: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready form, schema-tagged."""
        return {
            "schema": MANIFEST_SCHEMA,
            "command": self.command,
            "argv": list(self.argv),
            "created_unix": self.created_unix,
            "commit": self.commit,
            "params_hash": self.params_hash,
            "dataset_fingerprint": self.dataset_fingerprint,
            "spans": self.spans,
            "metrics": self.metrics,
            "events_path": self.events_path,
            "extra": self.extra,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "RunManifest":
        """Inverse of :meth:`as_dict`; validates the schema tag.

        Keys this class does not know are ignored, so a manifest written
        by an older version (one with an ``engine`` key, say) still loads.
        """
        schema = payload.get("schema")
        if schema != MANIFEST_SCHEMA:
            raise ReproError(
                f"not a run manifest (schema {schema!r}, "
                f"expected {MANIFEST_SCHEMA!r})"
            )
        return cls(
            command=str(payload.get("command", "")),
            argv=list(payload.get("argv", [])),
            created_unix=float(payload.get("created_unix", 0.0)),
            commit=str(payload.get("commit", "unknown")),
            params_hash=payload.get("params_hash"),
            dataset_fingerprint=payload.get("dataset_fingerprint"),
            spans=list(payload.get("spans", [])),
            metrics=dict(payload.get("metrics", {})),
            events_path=payload.get("events_path"),
            extra=dict(payload.get("extra", {})),
        )

    def write(self, path: Union[str, Path]) -> Path:
        """Persist as pretty-printed JSON; returns the path written."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(
            json.dumps(self.as_dict(), indent=2, sort_keys=True, default=str)
            + "\n"
        )
        return target

    @classmethod
    def load(cls, path: Union[str, Path]) -> "RunManifest":
        """Read a manifest written by :meth:`write`."""
        file_path = Path(path)
        if not file_path.exists():
            raise ReproError(f"no such manifest: {file_path}")
        try:
            payload = json.loads(file_path.read_text())
        except json.JSONDecodeError as exc:
            raise ReproError(f"{file_path}: malformed manifest JSON") from exc
        return cls.from_dict(payload)


def collect_manifest(
    command: str,
    argv: Optional[List[str]] = None,
    params_hash: Optional[str] = None,
    dataset_fingerprint: Optional[str] = None,
    events_path: Optional[Union[str, Path]] = None,
    extra: Optional[Dict[str, object]] = None,
    tracer=None,
    registry=None,
) -> RunManifest:
    """Assemble a manifest from the (global, by default) tracer/registry."""
    from repro import obs

    tracer = tracer if tracer is not None else obs.tracer()
    registry = registry if registry is not None else obs.registry()
    return RunManifest(
        command=command,
        argv=list(argv) if argv is not None else [],
        created_unix=time.time(),
        commit=git_sha(),
        params_hash=params_hash,
        dataset_fingerprint=dataset_fingerprint,
        spans=tracer.as_dicts(),
        metrics=registry.snapshot(),
        events_path=str(events_path) if events_path else None,
        extra=dict(extra or {}),
    )
