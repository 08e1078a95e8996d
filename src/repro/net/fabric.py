"""The live network: topology + simulator = message delivery with contention.

:class:`Fabric` instantiates one :class:`~repro.net.link.Link` per topology
edge and exposes a single operation, :meth:`Fabric.send`, which moves
``nbytes`` from one endpoint to another and pushes the caller's record on the
heap for delivery (tail arrival at the destination); :meth:`Fabric.transfer`
sends an event.

Multi-hop routes use cut-through (wormhole) forwarding: the head of the
message reserves each hop's injection port in order; per-hop latencies
accumulate; the tail arrives one bottleneck-``G`` transmission time after the
head.  Contention on any shared hop delays the reservation and is therefore
visible end to end — this is what produces the Summit 42-CPU SpTRSV
contention collapse and the cross-socket hashtable penalty in the paper.

That recurrence lives here once.  :meth:`Fabric.send` is a single
attempt loop over the transfer's ports, and that loop is the port
reservation; outage stalls, degradation, loss/jitter/hard-down draws and
retransmission are per-hop steps taken only under a fault plan.
:class:`TransferPlan` (from :meth:`Fabric.plan`) replays the same walk for a
homogeneous batch on a fabric that is :attr:`Fabric.replayable`.  Both, and
UGAL scoring in :mod:`repro.net.routing`, walk a route's ports as resolved
once per distinct path by :meth:`Fabric._walk`.
"""

from __future__ import annotations

from heapq import heappush
from math import inf
from typing import TYPE_CHECKING

from repro.faults.plan import FaultError
from repro.net.congestion import CongestionConfig, CongestionControl
from repro.net.link import Channel, Link
from repro.net.routing import get_routing
from repro.net.topology import Route, TopologySpec
from repro.sim.event import _NO_CALLBACKS, Event
from repro.sim.trace import NullTracer, Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.inject import FaultInjector
    from repro.net.routing import RoutingPolicy
    from repro.obs.metrics import MetricsRegistry
    from repro.sim.engine import Simulator
    from repro.sim.process import InFlight

__all__ = ["Fabric", "Delivery", "TransferPlan"]

# Queueing-wait histogram edges (seconds): the zero bucket counts
# contention-free reservations; the rest are decades up to 10 ms.
_WAIT_EDGES = (0.0, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2)
# Bytes-over-time bin width (seconds) for the bandwidth timeline.
_TIMELINE_BIN = 1e-4
# Attempt-count histogram edges: bucket k counts transfers delivered on
# attempt <= edge (1 = first try; the retry cap defaults to 8 retries).
_ATTEMPT_EDGES = (1.0, 2.0, 3.0, 5.0, 9.0)


class _Landing(Event):
    """A transfer's event: the walk's details stay on the :class:`Delivery`,
    off the heap entry."""

    __slots__ = ("error",)


class Delivery:
    """Result of a transfer: arrival time plus the completion event.

    ``attempts`` counts fabric traversals (1 = delivered first try);
    ``dropped`` is True when the retry budget was exhausted — the event
    then carries a :class:`repro.faults.FaultError` instead of a value.
    """

    __slots__ = ("event", "start", "arrival", "nbytes", "route", "attempts", "dropped")

    def __init__(
        self,
        event: Event,
        start: float,
        arrival: float,
        nbytes: float,
        route: Route,
        attempts: int = 1,
        dropped: bool = False,
    ):
        self.event = event
        self.start = start
        self.arrival = arrival
        self.nbytes = nbytes
        self.route = route
        self.attempts = attempts
        self.dropped = dropped


class Fabric:
    """Message transport over a :class:`TopologySpec`."""

    def __init__(
        self,
        sim: "Simulator",
        topology: TopologySpec,
        tracer: Tracer | None = None,
        *,
        metrics: "MetricsRegistry | None" = None,
        faults: "FaultInjector | None" = None,
        routing: "str | RoutingPolicy | None" = None,
        congestion: CongestionConfig | None = None,
    ):
        self.sim = sim
        self.topology = topology
        self.tracer = tracer if tracer is not None else NullTracer()
        self.routing = get_routing(routing)
        self.cc = CongestionControl(congestion) if congestion is not None else None
        self._links: dict[frozenset[str], Link] = {
            key: Link(*sorted(key), params=params)
            for key, params in topology.links.items()
        }
        # The one directed-hop table: every walker (transfer, the batch
        # plan, UGAL scoring) resolves a route hop to its port here, so the
        # unordered-key + direction lookup is paid once per link direction.
        self._ports: dict[tuple[str, str], tuple[Channel, Link]] = {
            (u, v): (link.channel(u, v), link)
            for link in self._links.values()
            for u, v in ((link.a, link.b), (link.b, link.a))
        }
        # route.hops -> (walk, ports) of that route (see _walk), resolved on
        # first use.  Routes are memoised by the topology, so the key is
        # almost always the identical tuple and a walker pays one lookup,
        # not one per hop.
        self._walks: dict[tuple, tuple[tuple, tuple]] = {}
        self._injection: dict[str, Channel] = {
            ep: Channel(params) for ep, params in topology.injection.items()
        }
        # Without a routing policy a pair's route never changes, so a
        # transfer reads its route and ports in one lookup.
        self._pairs: dict[tuple[str, str], tuple[Route, tuple]] = {}
        self._loopback_next_free: dict[str, float] = {}
        self.total_messages = 0
        self.total_bytes = 0.0
        # What an adaptive policy counts here (net.routing.<key>).  The
        # decision number seeds its candidate draw, so it is this fabric's:
        # one policy object replays identically on every fabric it serves.
        self.routing_counts = dict.fromkeys(
            ("decisions", "detours", "candidates_scored", "candidates_pruned"), 0
        )
        # (src, dst) -> an adaptive policy's decision entry for the pair
        # (AdaptiveRouting._entry): compiled walks and ports, the candidate
        # pool and the prepared draw state.  Kept here, beside the counts,
        # not in the topology's shared memo.
        self._decisions: dict[tuple[str, str], tuple] = {}
        self.faults = faults
        # Failure-aware policies (FailoverRouting) ask for a fresh routing
        # decision per retry attempt and are told about every detected
        # drop; static policies keep the fixed-route retry loop.
        self._reroutes: bool = getattr(self.routing, "reroutes", False)
        self._on_drop = getattr(self.routing, "on_drop", None)
        # A policy that hands back the winner's ports with its route
        # (AdaptiveRouting.decide) spares the transfer its walk lookup.
        self._decide = getattr(self.routing, "decide", None)
        #: Why homogeneous batches may not be replayed through :meth:`plan`
        #: (None: they may).  Replay needs every transfer to be a pure
        #: function of port state: fault draws are per message, congestion
        #: control feeds each transfer's wait back into the next one's
        #: injection, and a routing policy may pick a different path
        #: per decision.
        self.not_replayable: str | None = None
        if faults is not None:
            self.not_replayable = "faults"
        elif self.cc is not None:
            self.not_replayable = "congestion"
        elif self.routing is not None:
            self.not_replayable = "routing"
        self.replayable: bool = self.not_replayable is None
        # Link key -> merged hard-outage windows (filled by
        # _install_faults when the plan carries element faults).
        self.hard_links: dict[frozenset[str], tuple] = {}
        if faults is not None:
            self._install_faults(faults)
        self.metrics = metrics
        self._m_messages = self._m_bytes = self._m_timeline = None
        if metrics is not None:
            if faults is not None:
                faults.attempts_hist = metrics.histogram(
                    "faults.attempts", _ATTEMPT_EDGES
                )
                metrics.register_collector(faults.metrics_snapshot)
            if self.routing is not None and hasattr(self.routing, "metrics_snapshot"):
                # Failure-aware policies export routing.failover.* gauges.
                metrics.register_collector(self.routing.metrics_snapshot)
            self._m_messages = metrics.counter("net.fabric.messages")
            self._m_bytes = metrics.counter("net.fabric.bytes")
            self._m_timeline = metrics.timeline("net.bytes_timeline", _TIMELINE_BIN)
            inj_hist = metrics.histogram("net.injection_wait_seconds", _WAIT_EDGES)
            for channel in self._injection.values():
                channel.wait_hist = inj_hist
            link_hist = metrics.histogram("net.link_wait_seconds", _WAIT_EDGES)
            for link in self._links.values():
                link.attach_wait_hist(link_hist)
            metrics.register_collector(self._collect)
            if self.cc is not None:
                self.cc.m_marks = metrics.counter("net.cc.marks")
                self.cc.m_backoffs = metrics.counter("net.cc.backoffs")
                # Per-link utilization timelines: each reservation adds its
                # occupancy (seconds) to the bin it starts in, so a bin total
                # divided by _TIMELINE_BIN is that link's utilization there.
                for link in self._links.values():
                    link.attach_util_timeline(
                        metrics.timeline(f"net.link.util.{link.name}", _TIMELINE_BIN)
                    )

    def link(self, a: str, b: str) -> Link:
        try:
            return self._ports[a, b][1]
        except KeyError:
            raise KeyError(f"no link {a!r}<->{b!r} in fabric") from None

    def _walk(self, route: Route) -> tuple[tuple, tuple]:
        """The compiled ``(walk, ports)`` of ``route``: its ``(Channel,
        Link)`` hops, which UGAL scores, and what a transfer reserves — the
        source's injection port (as ``(Channel, None)``) if it has one, the
        endpoint's copy/DMA engine that serialises all its outgoing traffic,
        then the walk.  One walk-table lookup; a miss compiles and stores."""
        hops = route.hops
        entry = self._walks.get(hops)
        if entry is None:
            walk = tuple(map(self._ports.__getitem__, hops))
            inj = self._injection.get(hops[0][0]) if hops else None
            ports = walk if inj is None else ((inj, None),) + walk
            entry = self._walks[hops] = (walk, ports)
        return entry

    def _install_faults(self, injector: "FaultInjector") -> None:
        """Attach per-link fault parameters; links the plan leaves clean
        keep ``faults=None``: the walk's stall and degrade skip them."""
        from repro.faults.hard import resolve_hard_faults

        plan = injector.plan
        for link in self._links.values():
            lf = plan.for_link(link.a, link.b)
            if not lf.clean:
                link.set_faults(lf)
                self._trace_windows("net.link.down", link, lf.down)
        # Hard (fail-stop) element faults: a dead router/node/NIC takes
        # every resolved link down atomically for its windows.
        self.hard_links = resolve_hard_faults(plan, self.topology)
        for key, windows in self.hard_links.items():
            link = self._links[key]
            link.set_hard(windows)
            self._trace_windows("net.link.hard_down", link, windows)

    def _trace_windows(self, kind: str, link: Link, windows) -> None:
        """One record per outage window (rendered as a span on the fabric
        track by the Chrome exporter)."""
        if self.tracer.enabled:
            for a, b in windows:
                self.tracer.emit(
                    self.sim.now, kind, -1, link=link.name, start=a, arrival=b
                )

    def transfer(
        self,
        src: str,
        dst: str,
        nbytes: float,
        *,
        payload: object = None,
        earliest: float | None = None,
        atomic: bool = False,
    ) -> Delivery:
        """Move ``nbytes`` from ``src`` to ``dst``.

        Args:
            src, dst: endpoint names in the topology.
            nbytes: message size (0 is legal: a pure control message still
                pays latency and gap).
            payload: opaque object delivered as the completion event's value.
            earliest: injection may not begin before this time (defaults to
                the current simulated time).

        Returns:
            A :class:`Delivery` whose ``event`` fires with ``payload`` at the
            tail-arrival time (or fails, see :meth:`send`).  A comm verb, whose
            arrival has one consumer, sends its own record instead.
        """
        event = _Landing.__new__(_Landing)  # Event.__init__'s slots, minus its frame
        event.sim, event.callbacks, event._defused = self.sim, _NO_CALLBACKS, False
        start, arrival, route, attempts = self.send(
            src, dst, nbytes, event, earliest=earliest, atomic=atomic
        )
        event._ok = ok = event.error is None  # triggered before anything pops it
        event._value = payload if ok else event.error
        return Delivery(event, start, arrival, nbytes, route, attempts, not ok)

    def send(
        self, src: str, dst: str, nbytes: float, record: "InFlight | _Landing", *,
        earliest: float | None = None, atomic: bool = False,
    ) -> tuple[float, float, Route, int]:
        """The hop walk: move ``nbytes`` from ``src`` to ``dst``, set
        ``record.error`` (None, or the :class:`FaultError` below) and push
        ``record`` on the heap at the arrival time.  Returns the walk's
        ``(start, arrival, route, attempts)``.

        One attempt reserves the injection port and every hop of the route.
        Without a fault plan that first attempt is the whole transfer.  With
        one, each retry re-pays the full LogGP cost: a hop whose link
        samples "lost" (or is hard-down) consumes upstream capacity but
        stops the traversal; the sender detects the loss ``timeout *
        detect_scale * backoff**attempt`` after that attempt started
        injecting and re-enters the fabric then.  Exhausting the budget
        raises :class:`FaultError` (``mode="abort"``: library-internal
        recovery, MPI-style) or hands it to the record (``mode="surface"``:
        the error reaches the program at flush/wait/quiet time).

        Loss and jitter draws are keyed on ``(seed, link, transfer id,
        attempt)``: two runs with the same plan replay identically, and a
        higher loss rate can only turn deliveries into drops, never the
        reverse — degradation curves are monotone by construction.
        """
        if not 0 <= nbytes < inf:
            raise ValueError(f"nbytes must be finite and >= 0, got {nbytes}")
        sim = self.sim
        clock = sim._now  # constant for the whole call: nothing steps the engine
        if earliest is None:
            now = clock
        elif -inf < earliest < inf:
            now = clock if clock > earliest else earliest  # a past earliest means now
        else:
            raise ValueError(f"earliest must be finite, got {earliest}")
        routing = self.routing
        if routing is None:
            pair = self._pairs.get((src, dst))
            if pair is None:
                route = self.topology.route(src, dst)
                pair = self._pairs[src, dst] = (route, self._walk(route)[1])
            route, ports = pair
        elif self._decide is not None:
            # One routing decision per transfer: adaptive policies may pick
            # a different (freshly costed) path for the same pair over time,
            # and hand back the winner's ports with it.
            route, ports = self._decide(self, src, dst, nbytes, now)
        else:
            route = routing.route(self, src, dst, nbytes, now)
            ports = self._walk(route)[1]
        faults = self.faults
        attempts = 1
        error: Exception | None = None
        if route.nhops == 0:
            # Loopback: serialised on the device's local copy engine.
            # Never traverses a link, so fault plans do not apply.
            free = self._loopback_next_free.get(src, 0.0)
            start = free if free > now else now  # max(now, free)
            occupancy = nbytes * route.G
            if not occupancy > route.gap:  # max(gap, nbytes * G)
                occupancy = route.gap
            self._loopback_next_free[src] = start + occupancy
            arrival = start + route.latency + nbytes * route.G
        else:
            cc = self.cc
            metrics = self.metrics
            tid = self.total_messages  # stable per-transfer id for fault draws
            t_ready = now
            if cc is not None:
                # A throttled source stretches its injection: the backoff
                # delay is paid before the message touches any port.
                t_ready = now + cc.injection_delay(src, nbytes * route.G)
            max_wait = 0.0
            start = None
            while True:
                t = t_ready
                sent = None  # when this attempt began injecting
                tail_G = route.G
                lost: str | None = None
                for channel, link in ports:
                    # The port reservation: the head claims the earliest-free
                    # sub-channel (lowest index on ties; only NVLink port
                    # groups have several) for max(gap, nbytes * G).
                    nf = channel._next_free
                    if len(nf) == 1:
                        k = 0
                    else:
                        k = nf.index(min(nf))
                    free = nf[k]
                    begin = t if t >= free else free  # max(t, free)
                    per_byte = channel._G
                    if faults is not None:
                        lf = channel.faults
                        if lf is not None:
                            # Transient outages: the head stalls at the port
                            # until the window closes (windows are sorted, so
                            # one forward pass handles back-to-back outages).
                            for a, b in lf.down:
                                if a <= begin < b:
                                    channel.down_stall_seconds += b - begin
                                    faults.record_down_stall(b - begin)
                                    begin = b
                            per_byte *= lf.degrade
                    occupancy = nbytes * per_byte
                    gap = channel._atomic_gap if atomic else channel._gap
                    if not occupancy > gap:  # max(gap, nbytes * per_byte)
                        occupancy = gap
                    nf[k] = begin + occupancy
                    channel.bytes_carried += nbytes
                    channel.messages_carried += 1
                    if metrics is not None:
                        if channel.wait_hist is not None:
                            channel.wait_hist.observe(begin - t)
                        if channel.util_timeline is not None:
                            channel.util_timeline.observe(begin, occupancy)
                    if cc is not None and begin - t > max_wait:
                        max_wait = begin - t
                    if sent is None:
                        sent = begin
                    # Cut-through: the head reaches the next port this port's
                    # latency after it began; injection there cannot begin earlier.
                    t = begin + channel._latency
                    if faults is not None:
                        if channel.hard is not None and channel.hard_down_at(begin):
                            # The element behind this link is dead: the head
                            # reaches a port that no longer exists.  Upstream
                            # capacity was spent; nothing propagates further.
                            lost = link.name
                            faults.record_hard_drop(lost)
                            break
                        if lf is not None:
                            name = link.name
                            t += faults.jitter(lf, name, tid, attempts - 1)
                            if per_byte > tail_G:  # max(tail_G, per_byte)
                                tail_G = per_byte
                            if faults.lost(lf, name, tid, attempts - 1):
                                # Dropped on this hop: upstream capacity was
                                # spent, downstream hops never see the message.
                                lost = name
                                faults.record_drop(lost)
                                break
                assert sent is not None
                if start is None:
                    start = sent
                if lost is None:
                    # Tail: one bottleneck transmission time behind the head.
                    arrival = t + nbytes * tail_G
                    if cc is not None:
                        # Worst per-hop queueing wait is the ECN signal: past the
                        # threshold the source's rate takes a multiplicative hit.
                        cc.observe(src, max_wait)
                    if faults is not None:
                        faults.record_delivery(attempts)
                    break
                # -- a hop dropped the message (reachable only under a plan) --
                if self.tracer.enabled:
                    self.tracer.emit(
                        sim.now,
                        "net.fault.drop",
                        -1,
                        src=src,
                        dst=dst,
                        link=lost,
                        attempt=attempts - 1,
                        nbytes=nbytes,
                    )
                policy = faults.plan.retransmit
                sem = faults.semantics
                # Sender-side detection, measured from when this attempt began
                # injecting; one-sided runtimes additionally re-synchronise
                # their window state before re-issuing.
                backoff = policy.backoff ** (attempts - 1)
                detect = sent + policy.timeout * sem.detect_scale * backoff
                if self._on_drop is not None:
                    # Feed the failure detector: this is the transfer-attempt
                    # history FailoverRouting's timeout-based detection reads.
                    self._on_drop(self, frozenset((link.a, link.b)), detect)
                if attempts > policy.max_retries:
                    faults.record_exhausted()
                    if self.tracer.enabled:
                        self.tracer.emit(
                            sim.now,
                            "net.fault.exhausted",
                            -1,
                            src=src,
                            dst=dst,
                            link=lost,
                            attempts=attempts,
                            nbytes=nbytes,
                        )
                    error = FaultError(
                        f"transfer {src}->{dst} ({nbytes:g} B) lost on {lost} "
                        f"after {attempts} attempts"
                    )
                    arrival = detect
                    break
                faults.record_retransmit()
                t_ready = detect
                if sem.resync_penalty:
                    t_ready += 2.0 * route.latency
                if self._reroutes:
                    # Ask the policy again with its updated dead-set view: the
                    # retry may take a different (live) path.  A partitioned
                    # pair raises FaultError here — surface it exactly like
                    # retry-budget exhaustion.
                    try:
                        route = routing.route(self, src, dst, nbytes, t_ready)
                    except FaultError as err:
                        faults.record_exhausted()
                        error = err
                        arrival = t_ready
                        break
                    ports = self._walk(route)[1]
                attempts += 1
        delay = arrival - clock
        if not 0 <= delay < inf:  # a past, nan or endless heap key
            raise ValueError(f"delivery delay must be finite and >= 0, got {delay}")
        self.total_messages += 1
        self.total_bytes += nbytes
        if self._m_bytes is not None:
            self._m_messages.inc()
            self._m_bytes.inc(nbytes)
            self._m_timeline.observe(arrival, nbytes)
        if self.tracer.enabled:
            detail = dict(
                src=src, dst=dst, nbytes=nbytes,
                start=start, arrival=arrival, nhops=route.nhops,
            )
            if faults is not None:
                # Clean-fabric records keep their historical keys.
                detail["attempts"] = attempts
            self.tracer.emit(sim.now, "net.transfer", -1, **detail)
        if error is not None and faults.semantics.mode == "abort":
            raise error
        record.error = error
        heappush(sim._heap, (clock + delay, sim._seq, record))
        sim._seq += 1
        return start, arrival, route, attempts

    def _collect(self) -> dict[str, float]:
        """Snapshot-time export (sum-merged across fabrics feeding the same
        registry): the per-link totals the channels already count, the
        adaptive-routing counts, and the sizes of the three route caches
        this fabric's speed is bought with."""
        out = {f"net.link.{k}": float(v) for k, v in self.link_stats().items()}
        out.update((f"net.routing.{k}", float(v)) for k, v in self.routing_counts.items())
        out["net.fabric.compiled_routes"] = float(len(self._walks))
        out["net.topology.route_memo"] = float(len(self.topology._via_cache))
        out["net.routing.decision_memo"] = float(len(self.topology._decision_memo))
        return out

    def link_stats(self) -> dict[str, float]:
        """Traffic counters for every link direction (tests + reports)."""
        out: dict[str, float] = {}
        for link in self._links.values():
            out.update(link.stats())
        return out

    def plan(
        self, src: str, dst: str, nbytes: float, *, atomic: bool = False
    ) -> "TransferPlan":
        """Freeze the ``src -> dst`` walk for one homogeneous message size.

        Only meaningful on a :attr:`replayable` fabric, which the batch
        verbs of :mod:`repro.comm` check before they plan.
        """
        if not 0 <= nbytes < inf:
            raise ValueError(f"nbytes must be finite and >= 0, got {nbytes}")
        return TransferPlan(self, src, dst, nbytes, atomic)


class TransferPlan:
    """:meth:`Fabric.transfer` for one (path, size, atomic?) combination
    with all constants hoisted, minus the event machinery.

    ``time``/``times`` replicate :meth:`Fabric.send`'s walk on a replayable
    fabric — reservations, counters, metrics — and return the simulated
    time at which the delivery event would have been *processed*: the
    scalar path schedules it via ``succeed(delay=arrival - now)``, so the
    heap time is ``now + (arrival - now)``, which can differ from
    ``arrival`` by one ulp.  Everything downstream of a delivery (copy
    engines, atomic units, signal waits) keys off that heap time, so that
    is what we return.

    Per-sub-channel occupancy ``max(gap, nbytes * G)``, hop latency and
    the tail time ``nbytes * route.G`` are pure functions of frozen
    parameters, so computing them once per batch instead of once per
    message yields the identical floats.  Mutable state — ``_next_free``,
    byte counters, histograms — is updated message-by-message in issue
    order, exactly as :meth:`Fabric.transfer` would.
    """

    __slots__ = ("fabric", "src", "nbytes", "ports", "occ", "lat", "tail")

    def __init__(self, fabric: Fabric, src: str, dst: str, nbytes: float, atomic: bool):
        route = fabric.topology.route(src, dst)
        self.fabric = fabric
        self.src = src
        self.nbytes = nbytes
        self.tail = nbytes * route.G
        # Loopback (no ports): the device's local copy engine.
        self.occ = max(route.gap, nbytes * route.G)
        self.lat = route.latency
        channels = [ch for ch, _link in fabric._walk(route)[1]]
        self.ports = [
            (
                ch._next_free,
                max(ch._atomic_gap if atomic else ch._gap, nbytes * ch._G),
                ch._latency,
                ch,
            )
            for ch in channels
        ]

    def time(self, now: float) -> float:
        """One message: full per-message replication (state + counters)."""
        fabric = self.fabric
        nbytes = self.nbytes
        if not self.ports:
            lnf = fabric._loopback_next_free
            free = lnf.get(self.src, 0.0)
            start = now if now >= free else free  # max(now, free)
            lnf[self.src] = start + self.occ
            arrival = start + self.lat + self.tail
        else:
            t = now
            for nf, occ, lat, ch in self.ports:
                if len(nf) == 1:
                    f = nf[0]
                    start = t if t >= f else f  # max(earliest, next_free)
                    nf[0] = start + occ
                else:
                    idx = nf.index(min(nf))
                    f = nf[idx]
                    start = t if t >= f else f
                    nf[idx] = start + occ
                ch.bytes_carried += nbytes
                ch.messages_carried += 1
                wh = ch.wait_hist
                if wh is not None:
                    wh.observe(start - t)
                t = start + lat
            arrival = t + self.tail
        fabric.total_messages += 1
        fabric.total_bytes += nbytes
        if fabric._m_bytes is not None:
            fabric._m_messages.inc()
            fabric._m_bytes.inc(nbytes)
            fabric._m_timeline.observe(arrival, nbytes)
        return now + (arrival - now)

    def times(self, issue: list[float]) -> list[float]:
        """Delivery heap times for the whole batch, in issue order.

        A loopback or single-port single-sub-channel path with no metrics or
        wait histogram attached runs the reservation recurrence in a tight
        loop and advances the float accumulators (``bytes_carried``,
        ``total_bytes``) afterwards by the same per-message ``+=`` sequence
        — each accumulator sees the identical ordered additions either way,
        so the totals are bit-exact.  Everything else (multi-port paths,
        parallel sub-channels, an active obs session) is :meth:`time` per
        message.
        """
        fabric = self.fabric
        ports = self.ports
        observed = fabric._m_bytes is not None or any(
            ch.wait_hist is not None for *_rest, ch in ports
        )
        if observed or len(ports) > 1 or (ports and len(ports[0][0]) > 1):
            return [self.time(t) for t in issue]
        nbytes = self.nbytes
        n = len(issue)
        out = [0.0] * n
        tail = self.tail
        if ports:
            # Single hop, single sub-channel: the flood fast path.
            nf, occ, lat, ch = ports[0]
            free = nf[0]
        else:
            lnf = fabric._loopback_next_free
            free = lnf.get(self.src, 0.0)
            occ = self.occ
            lat = self.lat
        for k in range(n):
            now = issue[k]
            start = now if now >= free else free
            free = start + occ
            arrival = start + lat + tail
            out[k] = now + (arrival - now)
        if ports:
            nf[0] = free
            bc = ch.bytes_carried
            for _ in range(n):
                bc += nbytes
            ch.bytes_carried = bc
            ch.messages_carried += n
        else:
            lnf[self.src] = free
        fabric.total_messages += n
        tb = fabric.total_bytes
        for _ in range(n):
            tb += nbytes
        fabric.total_bytes = tb
        return out
