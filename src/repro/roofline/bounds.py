"""Workload communication bounds (paper Fig. 6).

Given a workload's instrumented communication profile — its message-size
distribution and messages per synchronization — place it on the Message
Roofline of a machine/runtime and report the bound and the headroom, as the
paper does for HashTable, Stencil and SpTRSV on Perlmutter CPUs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.machines.base import MachineModel
from repro.roofline.model import MessageRoofline
from repro.transport.registry import get_backend
from repro.util.validation import check_count, check_positive

__all__ = ["WorkloadProfile", "WorkloadBound", "bound_workload"]


@dataclass(frozen=True)
class WorkloadProfile:
    """Communication profile of one workload (a Table II row, measured)."""

    name: str
    message_sizes: tuple[float, ...]  # bytes, the tested sizes (Fig. 6 verticals)
    msgs_per_sync: int
    pattern: str  # halo | mailbox | batch | atomic: whose op accounting applies

    def __post_init__(self) -> None:
        if not self.message_sizes:
            raise ValueError("profile needs at least one message size")
        for nbytes in self.message_sizes:
            check_positive("message size", nbytes)
        check_count("msgs_per_sync", self.msgs_per_sync)


@dataclass(frozen=True)
class WorkloadBound:
    """Roofline placement of one workload on one machine/runtime."""

    profile: WorkloadProfile
    machine: str
    runtime: str
    roofline: MessageRoofline
    bound_bandwidth: tuple[float, ...]  # per tested size
    time_per_sync: tuple[float, ...]
    peak_bandwidth: float

    def rows(self) -> list[dict[str, float]]:
        out = []
        for B, bw, t in zip(
            self.profile.message_sizes, self.bound_bandwidth, self.time_per_sync
        ):
            out.append(
                {
                    "message_size_B": B,
                    "msgs_per_sync": self.profile.msgs_per_sync,
                    "bound_GBps": bw / 1e9,
                    "time_per_sync_us": t * 1e6,
                    "fraction_of_peak": bw / self.peak_bandwidth,
                }
            )
        return out


def bound_workload(
    machine: MachineModel,
    runtime: str,
    profile: WorkloadProfile,
    *,
    src: int = 0,
    dst: int = 1,
    nranks: int = 2,
) -> WorkloadBound:
    """Place ``profile`` on the machine's Message Roofline.

    The LogGP parameters are the runtime's
    (:meth:`~repro.transport.TransportBackend.loggp`) under the op
    accounting of the endpoint that serves the workload's pattern (2 ops
    two-sided, 4 ops one-sided CPU, 1 fused op GPU per notified message).
    """
    params = get_backend(runtime).loggp(
        machine, profile.pattern, src, dst, nranks=nranks
    )
    roofline = MessageRoofline(params, name=f"{machine.name}/{runtime}")
    sizes = np.asarray(profile.message_sizes, dtype=float)
    bw = roofline.bandwidth(sizes, profile.msgs_per_sync)
    t = roofline.time(sizes, profile.msgs_per_sync)
    return WorkloadBound(
        profile=profile,
        machine=machine.name,
        runtime=runtime,
        roofline=roofline,
        bound_bandwidth=tuple(float(v) for v in np.atleast_1d(bw)),
        time_per_sync=tuple(float(v) for v in np.atleast_1d(t)),
        peak_bandwidth=roofline.peak_bandwidth,
    )
