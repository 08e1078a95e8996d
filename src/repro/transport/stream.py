"""Stream-triggered backend: device-enqueued, CPU-free communication.

The fifth backend family (ROADMAP item 5): the op sequences are the
fused NVSHMEM ones (:class:`ShmemBackend` channels and its
:class:`~repro.comm.shmem.ShmemContext` PEs), executed under the *derived*
``stream_triggered`` cost profile — cheapest demonstrated issue path
plus a device-initiation term, zero host-side overhead anywhere (see
:func:`repro.comm.stream.derive_stream_costs`).  No machine needs a
calibrated ``stream_triggered`` entry: :meth:`StreamBackend.costs`
derives one from the machine's current profiles, so every workload,
collective and IR program runs on this backend on every machine with a
GPU, with zero per-workload code.  A CPU-only machine has no device
stream, so it refuses the backend as it refuses any runtime it does not
host.

The endpoints are shmem's, the halo one included: a stream-ordered
epoch-open runs no fence, so the sync-elide pass has nothing to drop here.
"""

from __future__ import annotations

from repro.comm.stream import derive_stream_costs
from repro.faults.plan import FaultSemantics
from repro.machines.base import UnhostedRuntimeError
from repro.transport.api import BackendCaps
from repro.transport.registry import STREAM_TRIGGERED, register_backend
from repro.transport.shmem import ShmemBackend

__all__ = ["StreamBackend"]


class StreamBackend(ShmemBackend):
    name = STREAM_TRIGGERED
    caps = BackendCaps(
        remote_atomics=True,
        gpu_initiated=True,
        host_bypass=True,
        stream_ordered=True,
    )
    description = (
        "stream-triggered CPU-free communication: ops enqueued on ordered "
        "device streams, hardware completion with no host synchronisation "
        "(costs derived per machine)"
    )
    # Device-side triggering detects loss as fast as NVSHMEM's NIC path,
    # and stream ordering replays without any host re-sync.
    fault_semantics = FaultSemantics(mode="surface", detect_scale=0.5)

    def costs(self, machine):
        """Derived, never calibrated: no machine carries this profile.  A
        machine with no GPU has no device stream to trigger from, so it
        is refused as a runtime it does not host."""
        if machine.gpu is None:
            raise UnhostedRuntimeError(machine.name, self.name, machine.runtimes)
        return derive_stream_costs(machine)


register_backend(StreamBackend())
