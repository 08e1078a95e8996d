"""Stream-triggered, CPU-free communication (ROADMAP item 5).

The paper's frontier runtimes all keep a host thread in the loop: even
NVSHMEM's device-initiated verbs assume the host launched the kernel
that issues them, and one-sided MPI pays ``o_sync`` host overhead per
synchronisation.  PAPERS.md's "Demystifying NVSHMEM" and "Co-Design of a
CPU-Free MPI GPU Communication Abstraction" describe the next step:
communication ops *enqueued on ordered device streams* behind kernels,
initiated and completed entirely on the device.

What this module models is the *cost profile* of that execution: the
verbs are the NVSHMEM ones (``stream_triggered`` ranks are
:class:`~repro.comm.shmem.ShmemContext` PEs — enqueueing changes when ops
issue and what they cost, not their semantics) and **host bypass** is the
whole difference: no ``o_sync`` host term anywhere, waits are hardware
signal waits (``wait_wakeup = 0`` in the derived profile) and there is no
per-iteration kernel-launch latency.

Costs are *derived*, not calibrated: :func:`derive_stream_costs` builds
a :class:`~repro.machines.base.CommCosts` profile from a machine's
existing host-driven profiles — the cheapest per-message issue cost the
hardware has demonstrated, plus a small device-initiation term
(:data:`STREAM_DEVICE_INITIATION`), with every host-side overhead field
zeroed.  The per-message cost is therefore the initiation term above the
cheapest host issue path, which may be one-sided's own put (perlmutter:
0.40 us against 0.35 us); the backend runs only on machines with a GPU.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.machines.base import CommCosts

if TYPE_CHECKING:  # pragma: no cover
    from repro.machines.base import MachineModel

__all__ = ["STREAM_DEVICE_INITIATION", "derive_stream_costs"]

# Device-side cost (seconds) of triggering one enqueued communication op:
# the proxy-bypass doorbell write described in the CPU-free co-design
# paper — tens of nanoseconds, an order of magnitude under host-driven
# per-op software overheads.
STREAM_DEVICE_INITIATION = 5e-8


def derive_stream_costs(machine: "MachineModel") -> CommCosts:
    """Derive the ``stream_triggered`` cost profile from ``machine``.

    The per-message issue cost is the cheapest demonstrated issue path of
    any calibrated host profile (``put_signal``, ``put`` or ``isend``)
    plus :data:`STREAM_DEVICE_INITIATION`; all host-side fields —
    ``wait_wakeup``, ``poll_slot``, ``wait_poll``, ``flush``,
    ``sync_enter``, ``copy_per_byte`` — are zero (hardware signal waits,
    no host progress thread, no receive-path software copy).  Atomics
    take the cheapest calibrated initiator/target costs, also with the
    device-initiation term.
    """
    profiles = list(machine.runtimes.values())
    issue = [
        v
        for c in profiles
        for v in (c.put_signal, c.put, c.isend)
        if v > 0.0
    ]
    base_issue = min(issue) if issue else 0.0
    fetch = [c.fetch_op for c in profiles if c.fetch_op > 0.0]
    apply_ = [c.atomic_apply for c in profiles if c.atomic_apply > 0.0]
    per_op = base_issue + STREAM_DEVICE_INITIATION
    return CommCosts(
        put_signal=per_op,
        put=per_op,
        get=per_op,
        fetch_op=(min(fetch) if fetch else 0.0) + STREAM_DEVICE_INITIATION,
        atomic_apply=min(apply_) if apply_ else 0.0,
        # Device-initiated RDMA has no eager/rendezvous protocol switch;
        # keep the most permissive threshold so no rendezvous round trip
        # is ever charged.
        eager_threshold=max(c.eager_threshold for c in profiles),
    )
