"""Critical-path analysis of the SpTRSV supernodal DAG.

Before running a solve, :func:`analyze_dag` answers the questions the
paper's Fig. 8 discussion turns on: how deep is the dependency chain, how
much parallel work exists per level, and what is the latency-bound lower
bound on the distributed solve time for a given per-message latency —
i.e. *can* this matrix scale on a given interconnect at all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.validation import check_count, check_non_negative
from repro.workloads.sptrsv.matrix import SupernodalMatrix

__all__ = ["DagProfile", "analyze_dag", "latency_lower_bound"]


@dataclass(frozen=True)
class DagProfile:
    """Structure of a supernodal dependency DAG."""

    n_supernodes: int
    critical_path: int  # longest chain (levels)
    levels: tuple[int, ...]  # supernodes solvable per level
    mean_parallelism: float  # n_supernodes / critical_path
    max_parallelism: int
    serial_fraction: float  # levels with exactly one ready supernode

    def summary(self) -> str:
        return (
            f"{self.n_supernodes} supernodes, critical path "
            f"{self.critical_path}, mean parallelism "
            f"{self.mean_parallelism:.1f}, max {self.max_parallelism}, "
            f"{self.serial_fraction * 100:.0f}% serial levels"
        )


def analyze_dag(matrix: SupernodalMatrix) -> DagProfile:
    """Level-schedule the DAG and profile its parallelism."""
    n = matrix.n_supernodes
    level = [0] * n
    for J, I in matrix.dag_edges():
        level[I] = max(level[I], level[J] + 1)
    depth = max(level) + 1 if n else 0
    counts = np.bincount(level, minlength=depth)
    return DagProfile(
        n_supernodes=n,
        critical_path=depth,
        levels=tuple(int(c) for c in counts),
        mean_parallelism=n / depth if depth else 0.0,
        max_parallelism=int(counts.max()) if depth else 0,
        serial_fraction=float(np.mean(counts == 1)) if depth else 0.0,
    )


def latency_lower_bound(
    matrix: SupernodalMatrix,
    *,
    per_message_latency: float,
    compute_time_total: float = 0.0,
    nranks: int = 1,
) -> float:
    """A lower bound on the distributed solve makespan.

    Every level boundary on the critical path crosses at least one message
    once the matrix is distributed (nranks > 1), so::

        T >= (critical_path - 1) * per_message_latency
             + compute_time_total / nranks

    This is the quantity behind the paper's observation that SpTRSV
    "prefers a lower-latency interconnect": with the paper's 126K matrix
    the chain is hundreds of levels deep, and 5 us vs 4 us per level is
    the whole Perlmutter-vs-Summit story.
    """
    check_non_negative("per_message_latency", per_message_latency)
    check_non_negative("compute_time_total", compute_time_total)
    check_count("nranks", nranks)
    profile = analyze_dag(matrix)
    chain = max(profile.critical_path - 1, 0)
    comm = chain * per_message_latency if nranks > 1 else 0.0
    return comm + compute_time_total / nranks
