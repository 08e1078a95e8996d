"""The simulated physical link.

A :class:`Link` is full duplex: each direction is an independent
:class:`Channel` with its own injection port.  Injection is serialised —
a channel accepts the next message only ``max(gap, nbytes * G)`` after the
previous one started, which is exactly the LogGP statement that the gap
``g`` *cannot* be overlapped by issuing more messages.  Contention between
concurrent senders sharing a link therefore appears as queueing delay at the
injection port.

A channel is the port's state; the reservation itself is a step of the
hop walk, :meth:`repro.net.fabric.Fabric.send`.  Delivery time for a message
accepted at ``start`` is ``start + latency + nbytes * G`` (cut-through; bytes
stream behind the head).
"""

from __future__ import annotations

from repro.net.loggp import LinkParams

__all__ = ["Link", "Channel"]


class Channel:
    """One direction of a link: ``channels`` parallel serialised sub-ports.

    A message claims the sub-channel that frees up first.  With one
    sub-channel this is plain FIFO serialisation; with ``k`` sub-channels up
    to ``k`` messages stream concurrently, each at ``bandwidth / k`` — the
    NVLink port-group behaviour the paper exploits in Fig. 10.
    """

    __slots__ = (
        "params",
        "_G",
        "_gap",
        "_atomic_gap",
        "_latency",
        "_next_free",
        "bytes_carried",
        "messages_carried",
        "wait_hist",
        "util_timeline",
        "faults",
        "hard",
        "down_stall_seconds",
    )

    def __init__(self, params: LinkParams):
        self.params = params
        # LinkParams is frozen: its LogGP constants are read once here, not
        # through two attribute hops and a property per reservation.
        self._G = params.G
        self._gap = params.gap
        self._atomic_gap = params.effective_atomic_gap
        self._latency = params.latency
        self._next_free: list[float] = [0.0] * params.channels
        self.bytes_carried: float = 0.0
        self.messages_carried: int = 0
        # Optional observability hook (repro.obs.metrics.Histogram): when
        # set, every reservation records its queueing delay — the time the
        # head of the message waited for a sub-channel to free up.
        self.wait_hist = None
        # Optional utilization timeline (repro.obs.metrics.Timeline): each
        # reservation adds its occupancy seconds to the bin it starts in.
        self.util_timeline = None
        # Optional fault parameters (repro.faults.LinkFaults): transient
        # ``down`` windows stall the head here, ``degrade`` scales G.  A
        # fault plan only ever sets this for links whose parameters are not
        # clean, and the walk reads it only on a fabric with a plan.
        self.faults = None
        # Hard (fail-stop) outage windows resolved from element faults
        # (sorted, merged ``[fail_at, recover_at)`` tuples).  Unlike the
        # transient ``faults.down`` windows the head does NOT stall here:
        # a message whose head reaches a hard-down channel is dropped by
        # the fabric (the element is dead, not busy).
        self.hard: tuple | None = None
        self.down_stall_seconds: float = 0.0

    def hard_down_at(self, t: float) -> bool:
        """Is this channel inside a hard (element-failure) outage at ``t``?"""
        if self.hard is None:
            return False
        for a, b in self.hard:
            if a <= t < b:
                return True
            if t < a:
                break
        return False

    @property
    def utilization_until(self) -> float:
        """Time at which some sub-channel becomes free (tests/introspection)."""
        return min(self._next_free)


class Link:
    """A bidirectional connection between two topology endpoints."""

    __slots__ = ("a", "b", "name", "params", "_fwd", "_rev")

    def __init__(self, a: str, b: str, params: LinkParams):
        if a == b:
            raise ValueError(f"link endpoints must differ, got {a!r} twice")
        self.a = a
        self.b = b
        lo, hi = sorted((a, b))
        #: Canonical (sorted) link name used in fault draws and metrics.
        self.name = f"{lo}<->{hi}"
        self.params = params
        self._fwd = Channel(params)
        self._rev = Channel(params)

    def channel(self, src: str, dst: str) -> Channel:
        """The directional channel carrying traffic ``src -> dst``."""
        if (src, dst) == (self.a, self.b):
            return self._fwd
        if (src, dst) == (self.b, self.a):
            return self._rev
        raise KeyError(f"link {self.a}<->{self.b} does not connect {src}->{dst}")

    def attach_wait_hist(self, hist) -> None:
        """Record both directions' reservation queueing delays into ``hist``."""
        self._fwd.wait_hist = hist
        self._rev.wait_hist = hist

    def attach_util_timeline(self, timeline) -> None:
        """Accumulate both directions' occupancy into one utilization
        timeline (:class:`repro.obs.metrics.Timeline`)."""
        self._fwd.util_timeline = timeline
        self._rev.util_timeline = timeline

    def set_faults(self, faults) -> None:
        """Install :class:`repro.faults.LinkFaults` on both directions
        (``None`` restores the pristine fast path)."""
        self._fwd.faults = faults
        self._rev.faults = faults

    def set_hard(self, windows) -> None:
        """Install merged hard-outage windows on both directions (a dead
        element kills the whole link; ``None`` clears)."""
        self._fwd.hard = windows
        self._rev.hard = windows

    @property
    def hard(self):
        """The link's hard-outage windows (both directions share them)."""
        return self._fwd.hard

    def stats(self) -> dict[str, float]:
        """Cumulative per-direction traffic counters."""
        return {
            f"{self.a}->{self.b}.bytes": self._fwd.bytes_carried,
            f"{self.a}->{self.b}.messages": self._fwd.messages_carried,
            f"{self.b}->{self.a}.bytes": self._rev.bytes_carried,
            f"{self.b}->{self.a}.messages": self._rev.messages_carried,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Link {self.a}<->{self.b} {self.params.name}>"
