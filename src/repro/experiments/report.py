"""Shared report helpers for the per-figure experiment runners."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.util.tables import format_table

__all__ = ["ExperimentReport", "index"]


def index(sweep, *keys) -> dict:
    """Each point's value keyed by its params at ``keys`` (a bare value for
    one key, a tuple for several), in the sweep's grid order."""
    if len(keys) == 1:
        return {r.params[keys[0]]: r.value for r in sweep}
    return {tuple(r.params[k] for k in keys): r.value for r in sweep}


@dataclass
class ExperimentReport:
    """Uniform result object for every figure/table experiment.

    ``expectations`` maps a named paper claim ("one_sided_faster_at_high_n")
    to whether this run reproduced it — the benches print these and the
    integration tests assert them.
    """

    experiment: str
    title: str
    headers: list[str]
    rows: list[list[Any]]
    expectations: dict[str, bool] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    charts: list[str] = field(default_factory=list)
    # Observability snapshot (repro.obs.Obs.snapshot()): counters, gauges,
    # histograms, timelines, span breakdowns.  Populated by the CLI's
    # --metrics flag; empty means "not collected" and is omitted from JSON.
    metrics: dict[str, Any] = field(default_factory=dict)

    def render(self) -> str:
        parts = [format_table(self.headers, self.rows, title=f"{self.experiment}: {self.title}")]
        for chart in self.charts:
            parts.append(chart)
        if self.expectations:
            parts.append("paper-shape checks:")
            for name, ok in self.expectations.items():
                parts.append(f"  [{'PASS' if ok else 'FAIL'}] {name}")
        for n in self.notes:
            parts.append(f"note: {n}")
        if self.metrics:
            parts.append(
                f"metrics: {len(self.metrics)} series collected "
                "(embedded in the JSON report)"
            )
        return "\n".join(parts)

    @property
    def all_expectations_met(self) -> bool:
        return all(self.expectations.values())

    def to_dict(self) -> dict[str, Any]:
        """Machine-readable form (rows as header-keyed records)."""
        out = {
            "experiment": self.experiment,
            "title": self.title,
            "rows": [dict(zip(self.headers, row)) for row in self.rows],
            "expectations": dict(self.expectations),
            "all_expectations_met": self.all_expectations_met,
            "notes": list(self.notes),
        }
        if self.metrics:
            out["metrics"] = dict(self.metrics)
        return out

    def to_json(self, *, indent: int | None = 2) -> str:
        """JSON rendering (charts excluded — they are terminal art)."""
        return json.dumps(self.to_dict(), indent=indent, default=float)

    def __str__(self) -> str:
        return self.render()
