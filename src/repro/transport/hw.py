"""Hardware put-with-signal on CPUs: the paper's §V projection.

DESIGN.md ablation #3 asks what happens when the one-sided 4-op emulation
(``Put``/``flush``/``Put(signal)``/``flush`` + Listing-1 software polling)
becomes a single fused op with true receiver notification — "one-sided
MPI can easily outperform the two-sided with hardware-level support".

The entire backend is this file: the op sequences are exactly the fused
NVSHMEM ones (:class:`ShmemBackend` channels, :class:`ShmemContext`
waits), re-costed through the machine's ``"one_sided_hw"`` CommCosts
profile (see ``repro.experiments.ablations._with_hw_put_signal``).  No
workload program knows it exists — which is the point of the seam.
"""

from __future__ import annotations

from repro.faults.plan import FaultSemantics
from repro.transport.api import BackendCaps
from repro.transport.registry import ONE_SIDED_HW, register_backend
from repro.transport.shmem import ShmemBackend

__all__ = ["HwPutSignalBackend"]


class HwPutSignalBackend(ShmemBackend):
    name = ONE_SIDED_HW
    caps = BackendCaps(remote_atomics=True, gpu_initiated=False)
    description = (
        "hypothetical CrayMPI with hardware put-with-signal (DESIGN.md "
        "ablation #3); requires a machine with a 'one_sided_hw' cost profile"
    )
    # NIC-assisted delivery notification detects loss faster than the
    # 4-op software emulation and retries without a window re-sync, but
    # keeps one-sided surface-at-flush error semantics.
    fault_semantics = FaultSemantics(mode="surface", detect_scale=1.5, resync_penalty=True)


register_backend(HwPutSignalBackend())
