"""Shared workload result types.

Every workload runner returns a :class:`WorkloadResult` so the experiment
harness and the Table II instrumentation can treat Stencil, SpTRSV and
HashTable uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.comm.base import OpCounter

__all__ = ["WorkloadResult"]


@dataclass
class WorkloadResult:
    """Outcome of one workload run on one machine and runtime."""

    workload: str
    machine: str
    runtime: str  # a transport backend name (repro.transport.backend_names())
    nranks: int
    time: float  # virtual seconds for the measured region
    counters: OpCounter  # merged across ranks
    per_rank: list[OpCounter]
    extras: dict[str, Any] = field(default_factory=dict)
