"""Communication layers: two-sided MPI, one-sided RMA windows, GPU SHMEM.

All three layers share the :class:`~repro.comm.job.Job` runner and charge
their software costs from the machine's per-runtime
:class:`~repro.machines.base.CommCosts` profile, so the paper's central
accounting — two ops per two-sided message vs. four per one-sided message vs.
one fused GPU put-with-signal — is explicit in the op stream.
"""

from repro.comm.base import (
    ANY_SOURCE,
    ANY_TAG,
    CommError,
    Message,
    OpCounter,
    Request,
    Status,
)
from repro.comm.context import RankContext
from repro.comm.job import Job, JobResult
from repro.comm.matching import MatchingEngine
from repro.comm.shmem import SIGNAL_ADD, SIGNAL_SET, ShmemContext
from repro.comm.window import Window, WindowHandle

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "CommError",
    "Message",
    "OpCounter",
    "Request",
    "Status",
    "RankContext",
    "Job",
    "JobResult",
    "MatchingEngine",
    "ShmemContext",
    "SIGNAL_SET",
    "SIGNAL_ADD",
    "Window",
    "WindowHandle",
]
