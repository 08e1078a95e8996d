"""The paper's three workloads plus the flood microbenchmark.

Each workload exposes a ``run_*`` entry point returning a
:class:`~repro.workloads.base.WorkloadResult`, runs in ``execute``
(real-numerics, verifiable) or ``simulate`` (paper-scale timing) mode, and
implements the two-sided, one-sided-MPI and GPU-SHMEM variants side by side.
"""

from repro.workloads.base import WorkloadResult
from repro.workloads.flood import (
    FloodResult,
    run_cas_flood,
    run_flood,
)

__all__ = [
    "WorkloadResult",
    "FloodResult",
    "run_flood",
    "run_cas_flood",
]
