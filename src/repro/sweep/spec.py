"""Declarative sweep specifications.

Every figure in the paper is a sweep over (machine x runtime x message
size x msg/sync); a :class:`SweepSpec` states that grid once and names a
pure *point runner* — a module-level function ``runner(params, seed) ->
dict`` — instead of hand-rolled nested loops.  The executor
(:mod:`repro.sweep.executor`) then decides *how* the grid runs: serially,
over a process pool, or straight out of the on-disk result cache.

Point runners must be:

* **module-level** (picklable by reference, so process-pool workers can
  import them);
* **pure** — everything the point needs arrives in ``params`` (plain
  JSON-able values; machines are referenced by registry *name* and built
  fresh inside the runner via
  :func:`repro.machines.registry.get_machine`);
* **JSON-valued** — the returned mapping is what gets cached on disk.

The per-point ``seed`` is derived from the point key (sha256), not from
worker order, so parallel runs are bit-identical to serial ones.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any

__all__ = ["PointRunner", "SweepPoint", "SweepSpec", "canonical_json"]

# runner(params, seed) -> JSON-serialisable mapping
PointRunner = Callable[[Mapping[str, Any], int], Mapping[str, Any]]


def canonical_json(value: Any) -> str:
    """Stable JSON text for hashing: sorted keys, tuples as lists."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), default=_jsonify)


def _jsonify(value: Any):
    if isinstance(value, (tuple, set, frozenset)):
        return list(value)
    if hasattr(value, "item"):  # numpy scalars
        return value.item()
    raise TypeError(f"sweep params must be JSON-able, got {type(value).__name__}")


@dataclass(frozen=True)
class SweepPoint:
    """One grid point: a runner plus its frozen parameter assignment."""

    sweep: str
    runner: PointRunner
    params: tuple[tuple[str, Any], ...]

    @property
    def params_dict(self) -> dict[str, Any]:
        return dict(self.params)

    @property
    def runner_id(self) -> str:
        return f"{self.runner.__module__}:{self.runner.__qualname__}"

    @property
    def key(self) -> str:
        """Canonical identity of the point (sweep + runner + params)."""
        return f"{self.sweep}|{self.runner_id}|{canonical_json(self.params_dict)}"

    @property
    def seed(self) -> int:
        """Deterministic RNG seed derived from the point key.

        A pure function of the point's identity — independent of worker
        scheduling — so parallel execution reproduces serial results
        exactly.
        """
        digest = hashlib.sha256(self.key.encode()).digest()
        return int.from_bytes(digest[:8], "little") >> 1  # non-negative

    def label(self) -> str:
        """Short human-readable form for progress/error messages."""
        inner = ", ".join(f"{k}={v}" for k, v in self.params)
        return f"{self.sweep}({inner})"


@dataclass
class SweepSpec:
    """A declarative sweep: a grid of parameter assignments plus a runner.

    Args:
        name: sweep label (usually the experiment name, e.g. ``"fig03"``).
        runner: the point-runner function (see module docstring).
        axes: ordered mapping of axis name to its values; the grid is the
            cross product, with the *last* axis varying fastest.
        points: explicit parameter dicts appended after the ``axes``
            product — for irregular grids (e.g. Fig. 4's CAS cases riding
            along with the flood grid).
        common: parameters merged into every point (e.g. ``iters``); an
            axis or explicit point may override a common key.
        version: bump to invalidate every cached result of this sweep
            (e.g. after changing the runner's semantics without changing
            its signature).
    """

    name: str
    runner: PointRunner
    axes: Mapping[str, Sequence[Any]] | None = None
    points: Sequence[Mapping[str, Any]] | None = None
    common: Mapping[str, Any] = field(default_factory=dict)
    version: int = 1

    def iter_points(self) -> list[SweepPoint]:
        """Expand the grid into concrete points, in deterministic order."""
        assignments: list[dict[str, Any]] = []
        if self.axes:
            names = list(self.axes)
            for combo in itertools.product(*(self.axes[n] for n in names)):
                assignments.append(dict(zip(names, combo)))
        if self.points:
            assignments.extend(dict(p) for p in self.points)
        if not assignments:
            return []
        out = []
        for a in assignments:
            merged = {**self.common, **a}
            out.append(
                SweepPoint(
                    sweep=self.name,
                    runner=self.runner,
                    params=tuple(merged.items()),
                )
            )
        return out
