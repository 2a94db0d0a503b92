"""Parameter grids: named axes expanded to a deterministic task list.

A :class:`ParameterGrid` is the sweep runner's unit of work description:
an ordered mapping of axis name -> value tuple, expanded row-major
(last axis fastest) into one parameter dict per task. The expansion
order is part of the contract — serial, parallel, and cache-warm runs
all enumerate tasks identically, which is what makes their outputs
byte-comparable.

Grids parse from a compact command-line spec::

    beamspread=1,2,5;oversubscription=10,15,20,25

(axes separated by ``;`` or whitespace, values by ``,``; values become
``int`` where possible, else ``float``, else stay strings; ``nan`` and
``inf`` are refused).
"""

from __future__ import annotations

import itertools
import json
import math
from typing import Dict, Iterator, List, Mapping, Sequence, Tuple, Union

from repro.errors import RunnerError

#: A single task's parameter assignment.
Params = Dict[str, Union[int, float, str]]


def _parse_value(token: str) -> Union[int, float, str]:
    """``"2"`` -> 2, ``"2.5"`` -> 2.5, anything else stays a string."""
    for cast in (int, float):
        try:
            return cast(token)
        except ValueError:
            continue
    return token


def canonical_params(params: Mapping[str, object]) -> str:
    """Canonical JSON encoding of one task's parameters.

    Keys are sorted and integral floats collapse to ints so that
    logically identical assignments (``{"s": 2.0}`` vs ``{"s": 2}``)
    share a cache entry.
    """
    normalised = {}
    for name, value in params.items():
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        normalised[str(name)] = value
    try:
        return json.dumps(normalised, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise RunnerError(f"parameters are not JSON-encodable: {exc}")


class ParameterGrid:
    """An ordered cartesian product of named parameter axes."""

    def __init__(self, axes: Mapping[str, Sequence[object]]):
        if not axes:
            raise RunnerError("parameter grid has no axes")
        self.axes: Dict[str, Tuple[object, ...]] = {}
        for name, values in axes.items():
            if not str(name):
                raise RunnerError("empty axis name")
            values = tuple(values)
            if not values:
                raise RunnerError(f"axis {name!r} has no values")
            if len(set(map(repr, values))) != len(values):
                raise RunnerError(f"axis {name!r} repeats a value")
            self.axes[str(name)] = values

    @classmethod
    def from_spec(cls, spec: str) -> "ParameterGrid":
        """Parse ``"a=1,2;b=x,y"`` (``;`` or whitespace between axes)."""
        axes: Dict[str, List[object]] = {}
        tokens = [t for t in spec.replace(";", " ").split() if t]
        if not tokens:
            raise RunnerError(f"empty grid spec: {spec!r}")
        for token in tokens:
            name, sep, values = token.partition("=")
            if not sep or not name or not values:
                raise RunnerError(
                    f"malformed grid axis {token!r}; expected name=v1,v2,..."
                )
            if name in axes:
                raise RunnerError(f"duplicate grid axis {name!r}")
            texts = [v for v in values.split(",") if v]
            if not texts:
                raise RunnerError(f"axis {name!r} has no values")
            axes[name] = [_parse_value(v) for v in texts]
            for text, value in zip(texts, axes[name]):
                if isinstance(value, float) and not math.isfinite(value):
                    raise RunnerError(
                        f"grid axis {name!r}: {text!r} is not a finite number"
                    )
        return cls(axes)

    def __len__(self) -> int:
        size = 1
        for values in self.axes.values():
            size *= len(values)
        return size

    def __iter__(self) -> Iterator[Params]:
        """Yield one parameter dict per task, last axis varying fastest."""
        names = list(self.axes)
        for combo in itertools.product(*self.axes.values()):
            yield dict(zip(names, combo))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={list(v)!r}" for k, v in self.axes.items())
        return f"ParameterGrid({inner})"
