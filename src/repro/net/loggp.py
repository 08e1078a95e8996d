"""LogGP parameterisation of a communication channel.

The paper grounds its Message Roofline model in LogGP
(Alexandrov et al., SPAA'95):

* ``L`` — network latency, processor independent;
* ``o`` — sender/receiver sequential overhead, processor *dependent*;
* ``g`` — gap: minimum time between consecutive message injections
  (the reciprocal of message rate) — **cannot** be overlapped by sending
  more messages;
* ``G`` — per-byte time (the reciprocal of bandwidth);
* ``P`` — number of processors.

In this reproduction the split of responsibilities is:

* ``L``, ``g`` and ``G`` live on the *links* (:class:`LinkParams`, this
  module + ``repro.net.link``) because they are properties of the wire;
* ``o`` lives on the *runtime profile* (``repro.machines.base.CommCosts``)
  because the paper attributes it to the MPI/NVSHMEM software stack (two
  ops per two-sided message, four per one-sided message, ...).

:class:`LogGPParams` is the *combined* view used by the analytic roofline
model (``repro.roofline``): one latency, one overhead, one gap, one per-byte
time for a (machine, runtime, path) triple.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.validation import check_count, check_non_negative, check_positive

__all__ = ["LogGPParams", "LinkParams"]


@dataclass(frozen=True)
class LogGPParams:
    """Combined LogGP parameters for an end-to-end message path.

    Attributes:
        L: one-way network latency (seconds).
        o: software overhead charged per message (seconds) — serial at the
           sender, so it can never be overlapped by sending more messages.
        g: minimum inter-message gap at the injection port (seconds).
        G: per-byte time (seconds/byte); ``1/G`` is peak bandwidth.
        o_sync: software overhead charged once per *synchronization*
            (seconds): the blocking wait's wake-up for two-sided MPI, the
            flush/put-signal/flush completion sequence for one-sided MPI,
            the ``wait_until`` wake for NVSHMEM.  Amortised over the batch —
            the reason msg/sync is the model's key axis.
    """

    L: float
    o: float
    g: float
    G: float
    o_sync: float = 0.0

    def __post_init__(self) -> None:
        check_non_negative("L", self.L)
        check_non_negative("o", self.o)
        check_non_negative("g", self.g)
        check_positive("G", self.G)
        check_non_negative("o_sync", self.o_sync)

    @property
    def peak_bandwidth(self) -> float:
        """Peak link bandwidth in bytes/second (= 1/G)."""
        return 1.0 / self.G


@dataclass(frozen=True)
class LinkParams:
    """Wire-level parameters of a single physical link (no software ``o``).

    Attributes:
        latency: one-way propagation + switch latency (seconds).
        bandwidth: aggregate per-direction bandwidth (bytes/second).
        gap: minimum spacing between message injections on one channel
            (seconds).  Defaults to 0 (bandwidth-limited only).
        channels: number of independent sub-channels.  A single message
            streams over one sub-channel at ``bandwidth / channels``; the
            aggregate is only reachable with ``channels`` concurrent
            messages.  This models NVLink port groups (the A100's twelve
            ports in three groups) and is what gives the paper's Fig. 10
            split-message speedup.
        name: label for traces and reports ("NVLINK3", "IF CPU-CPU", ...).
    """

    latency: float
    bandwidth: float
    gap: float = 0.0
    channels: int = 1
    name: str = "link"
    # Remote atomics have far lower rate limits than plain stores (they are
    # cacheline-granule read-modify-writes at the far agent); ``atomic_gap``
    # is the per-atomic injection spacing.  None = same as ``gap``.  A large
    # value here is what throttles cross-socket CAS traffic on Summit's
    # X-Bus (the paper's Fig. 9 stall beyond one island).
    atomic_gap: float | None = None

    def __post_init__(self) -> None:
        check_non_negative("latency", self.latency)
        check_positive("bandwidth", self.bandwidth)
        check_non_negative("gap", self.gap)
        if self.atomic_gap is not None:
            check_non_negative("atomic_gap", self.atomic_gap)
        check_count("channels", self.channels)

    @property
    def effective_atomic_gap(self) -> float:
        return self.gap if self.atomic_gap is None else self.atomic_gap

    @property
    def G(self) -> float:
        """Per-byte time of ONE sub-channel (seconds/byte) — the rate a
        single message observes."""
        return self.channels / self.bandwidth

    @property
    def channel_bandwidth(self) -> float:
        """Bandwidth of one sub-channel (bytes/second)."""
        return self.bandwidth / self.channels
