"""Routing policies: how a transfer picks its path through the fabric.

The fabric asks its policy for a :class:`~repro.net.topology.Route` on
*every* transfer (a routing decision), so policies may pick different paths
for the same (src, dst) pair over time:

* ``"minimal"`` — the static minimum-latency path.  This is the default
  and no policy object: :func:`get_routing` maps it to None, the fabric's
  built-in path over the cached :meth:`TopologySpec.route` objects.
* :class:`AdaptiveRouting` — UGAL-style: at decision time, compare the
  minimal path against Valiant detours through deterministic intermediate
  candidates, estimating each path's head-arrival time from the current
  per-channel queue state, and take the cheapest (minimal wins ties).  The
  decision is a pure function of the simulation clock and link state, so
  same-seed runs replay bit-identically.  The fabric calls its
  :meth:`~AdaptiveRouting.decide`, which hands back the route's ports too.

Each non-minimal path is costed by :meth:`TopologySpec.route_via`
(memoised per path) — bottleneck latency/``G`` come from the hops actually
taken, never from the cached minimal pair.
"""

from __future__ import annotations

from hashlib import blake2b
from math import inf
from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.faults.plan import FaultError
from repro.net.topology import Route
from repro.util.validation import check_count, check_positive

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.fabric import Fabric

__all__ = [
    "RoutingPolicy",
    "AdaptiveRouting",
    "FailoverRouting",
    "get_routing",
]

# Score penalty (seconds) for a candidate path whose hop is hard-down at
# decision time: large enough that any live alternative wins, finite so
# scoring stays a total order when *every* candidate is dead.
_HARD_DOWN_PENALTY = 1.0


@runtime_checkable
class RoutingPolicy(Protocol):
    """Strategy interface the fabric consults once per transfer."""

    name: str

    def route(
        self, fabric: "Fabric", src: str, dst: str, nbytes: float, now: float
    ) -> Route:
        """Pick the path for one transfer of ``nbytes`` at time ``now``."""
        ...


class AdaptiveRouting:
    """UGAL-style adaptive routing: minimal vs Valiant by queue estimate.

    For each decision the policy scores the minimal path and up to
    ``candidates`` Valiant paths (minimal to a deterministic intermediate,
    then minimal onward).  A path's score is its estimated head-arrival
    time: walk the hops accumulating ``max(queue-free time, t) + latency``
    from the live channel state, plus the tail serialisation
    ``nbytes * G`` of the path.  Detours therefore win only when the
    minimal path's queues out-cost the extra hops — exactly UGAL's
    2x-path-length-vs-queue-depth tradeoff, expressed in seconds.

    Intermediates are drawn from a keyed hash of ``(src, dst, decision
    number)``, varying across decisions so flows spread over distinct
    detours.  The fabric counts its decisions; the policy holds no per-run
    state, so one object serves any number of fabrics replayably.
    """

    name = "adaptive"

    def __init__(self, candidates: int = 2):
        check_count("candidates", candidates)
        self.candidates = candidates

    def route(
        self, fabric: "Fabric", src: str, dst: str, nbytes: float, now: float
    ) -> Route:
        return self.decide(fabric, src, dst, nbytes, now)[0]

    def decide(
        self, fabric: "Fabric", src: str, dst: str, nbytes: float, now: float
    ) -> tuple[Route, tuple]:
        """:meth:`route`'s decision with the winner's compiled ports (what
        :meth:`Fabric.send` reserves), read from the fabric's pair entry."""
        # What depends only on the pair, or on (pair, intermediate), is
        # resolved once per fabric (see _entry); the message pays for draws
        # and scores.
        decisions = fabric._decisions
        entry = decisions.get((src, dst))
        if entry is None:  # an unknown endpoint raises here, before any count
            entry = decisions[src, dst] = self._entry(fabric, src, dst)
        minimal, walk, ports, pool, npool, draw, mids = entry
        counts = fabric.routing_counts
        seq = counts["decisions"] = counts["decisions"] + 1
        if not npool:
            return minimal, ports
        score_of = self._score
        best, best_ports = minimal, ports
        best_score = score_of(walk, nbytes * minimal.G, now)
        picked: list[str] = []
        scored = pruned = 0
        for i in range(self.candidates if self.candidates < npool else npool):
            # A copy of the pair's prepared state hashes only "seq|i": the
            # digest of hashing prefix + "seq|i" in one go.
            h = draw.copy()
            h.update(b"%d|%d" % (seq, i))
            mid = pool[int.from_bytes(h.digest(), "big") % npool]
            if mid in picked:
                continue
            picked.append(mid)
            try:
                via = mids[mid]
            except KeyError:
                via = mids[mid] = self._via(fabric, src, mid, dst)
            if via is None:
                continue
            detour, detour_walk, detour_ports = via
            scored += 1
            score = score_of(detour_walk, nbytes * detour.G, now, best_score)
            if score < best_score:
                best, best_ports, best_score = detour, detour_ports, score
            elif score == inf:  # the walk was abandoned: it could not win
                pruned += 1
        counts["candidates_scored"] += scored
        counts["candidates_pruned"] += pruned
        if best is not minimal:
            counts["detours"] += 1
        return best, best_ports

    def _entry(self, fabric: "Fabric", src: str, dst: str) -> tuple:
        """A pair's decision entry on ``fabric``: ``(minimal, walk, ports,
        pool, npool, draw, mids)`` — the minimal route compiled, the
        candidate pool and its length (0 when there is nothing to decide:
        loopback or no intermediate), the ``blake2b`` state that has
        absorbed the pair's hash-key prefix, and the table ``mid -> (detour,
        walk, ports)`` (``None``: no usable detour) that :meth:`_via` fills."""
        memo = fabric.topology._decision_memo
        pair = memo.get((src, dst))
        if pair is None:
            pair = memo[src, dst] = self._pair(fabric.topology, src, dst)
        minimal, pool, prefix = pair
        npool = len(pool) if minimal.nhops else 0
        draw = blake2b(prefix, digest_size=8) if npool else None
        walk, ports = fabric._walk(minimal)
        return minimal, walk, ports, pool, npool, draw, {}

    def _via(self, fabric: "Fabric", src: str, mid: str, dst: str) -> tuple | None:
        """``(detour, walk, ports)`` of the Valiant path through ``mid``,
        costed once per topology (its memo) and compiled once per fabric."""
        memo = fabric.topology._decision_memo
        try:
            detour = memo[src, mid, dst]
        except KeyError:
            detour = memo[src, mid, dst] = self._detour(fabric.topology, src, mid, dst)
        if detour is None:
            return None
        return (detour, *fabric._walk(detour))

    @staticmethod
    def _pair(topo, src: str, dst: str) -> tuple[Route, list[str], bytes]:
        """Memo entry of a pair: its minimal route, the transit endpoints
        off that route (the candidate pool) and the hash-key prefix."""
        minimal = topo.route(src, dst)
        on_minimal = {src, dst}.union(v for _u, v in minimal.hops)
        pool = [m for m in topo._transit_endpoints() if m not in on_minimal]
        return minimal, pool, f"{src}|{dst}|".encode()

    @staticmethod
    def _detour(topo, src: str, mid: str, dst: str) -> Route | None:
        """Minimal(src->mid) + minimal(mid->dst), costed; ``None`` if
        unreachable or if it revisits an endpoint (a looping detour can
        deadlock cut-through orderings)."""
        try:
            path = topo.shortest_path(src, mid) + topo.shortest_path(mid, dst)[1:]
        except KeyError:
            return None
        return topo.route_via(path) if len(set(path)) == len(path) else None

    @staticmethod
    def _score(walk: tuple, tail: float, now: float, bound: float = inf) -> float:
        """Estimated tail-arrival time along a route's compiled ``walk``
        (:meth:`Fabric._walk`) of a message whose tail serialisation
        ``nbytes * route.G`` is ``tail``.

        The estimate walks the hops the same way a reservation would:
        a head arriving inside a transient ``down`` window waits it out,
        so UGAL never *prefers* a link mid-outage; a hop that is
        hard-down (element failure) takes a large fixed penalty, so any
        live candidate outranks a dead one.

        A walk that can no longer come in under ``bound`` is abandoned and
        reads ``inf``.  That is exact for a caller that takes a candidate
        only on ``score < bound``: ``t`` never decreases along the walk and
        IEEE addition is monotone, so the finished score would be
        ``>= t + tail >= bound`` too.
        """
        t = now
        for channel, _link in walk:  # the hops transfer() walks
            nf = channel._next_free
            free = nf[0] if len(nf) == 1 else min(nf)
            if free > t:
                t = free
            lf = channel.faults
            if lf is not None:
                for a, b in lf.down:
                    if a <= t < b:
                        t = b
            if channel.hard is not None and channel.hard_down_at(t):
                t += _HARD_DOWN_PENALTY
            t += channel._latency
            if t + tail >= bound:
                return inf
        return t + tail

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"AdaptiveRouting(candidates={self.candidates})"


class FailoverRouting:
    """Failure-detecting routing: minimal until a link is declared dead,
    then re-route around the dead set.

    Detection is timeout-based and driven purely by transfer-attempt
    history: every retransmission timeout the fabric observes on a link
    is reported through :meth:`on_drop` (mirroring how UGAL reads live
    queue state), and a link whose consecutive-drop count reaches
    ``suspect_after`` is declared dead at that detection time.  The
    policy then drops its own dead-aware route cache (the topology's
    caches are functions of the static graph and stay) and serves
    paths computed on the live subgraph via
    :meth:`~repro.net.topology.TopologySpec.shortest_path_avoiding` +
    :meth:`~repro.net.topology.TopologySpec.route_via`.  When the dead
    set partitions a pair, :class:`~repro.faults.FaultError` is raised —
    failover only falls back to failure once no live path exists.

    With no dead links the policy returns the exact cached minimal
    :class:`Route` object, so a fault-free run is bit-identical to the
    default (golden-pinned) path and the no-fault overhead is one dict
    lookup per decision.

    ``probe_interval`` (seconds) optionally re-admits a dead link that
    age: the next decision after the interval probes it again (a fixed
    recovery model — deterministic given the sim clock).  ``None``
    (default) never re-admits.

    All state transitions are pure functions of the simulated history,
    so same-seed runs replay bit-identically.
    """

    name = "failover"
    # The fabric re-routes every retry attempt through a policy that
    # sets this flag (a static policy keeps the attempt-loop behaviour
    # that existed before failover routing).
    reroutes = True

    def __init__(self, suspect_after: int = 2, probe_interval: float | None = None):
        check_count("suspect_after", suspect_after)
        if probe_interval is not None:
            check_positive("probe_interval", probe_interval)
        self.suspect_after = suspect_after
        self.probe_interval = probe_interval
        self.dead: dict[frozenset[str], float] = {}  # link key -> detection time
        self.drop_counts: dict[frozenset[str], int] = {}
        self.detections = 0
        self.failovers = 0  # decisions served by a non-minimal live path
        self.probes = 0
        self.partitions = 0
        self._cache: dict[tuple[str, str], Route] = {}

    # -- failure detector (fed by the fabric's retry loop) ---------------

    def on_drop(self, fabric: "Fabric", link_key: frozenset, now: float) -> None:
        """One retransmission timeout expired on ``link_key`` at ``now``."""
        n = self.drop_counts.get(link_key, 0) + 1
        self.drop_counts[link_key] = n
        if link_key not in self.dead and n >= self.suspect_after:
            self.dead[link_key] = now
            self.detections += 1
            self._cache.clear()

    def _probe(self, now: float) -> None:
        revived = [
            key
            for key, t in self.dead.items()
            if now - t >= self.probe_interval
        ]
        if revived:
            for key in revived:
                del self.dead[key]
                self.drop_counts[key] = 0
            self.probes += len(revived)
            self._cache.clear()

    # -- routing decisions ----------------------------------------------

    def route(
        self, fabric: "Fabric", src: str, dst: str, nbytes: float, now: float
    ) -> Route:
        if self.probe_interval is not None and self.dead:
            self._probe(now)
        topo = fabric.topology
        if not self.dead:
            # Fault-free fast path: the exact cached minimal Route
            # (bit-identical to the no-policy default).
            return topo.route(src, dst)
        key = (src, dst)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        minimal = topo.route(src, dst)
        if minimal.nhops == 0 or not any(
            frozenset(hop) in self.dead for hop in minimal.hops
        ):
            route = minimal
        else:
            try:
                path = topo.shortest_path_avoiding(src, dst, self.dead)
            except KeyError:
                self.partitions += 1
                raise FaultError(
                    f"no failover path {src!r} -> {dst!r}: "
                    f"{len(self.dead)} dead link(s) partition the topology"
                ) from None
            route = topo.route_via(path)
            self.failovers += 1
        self._cache[key] = route
        return route

    # -- observability ----------------------------------------------------

    def stats(self) -> dict[str, float]:
        return {
            "detections": float(self.detections),
            "dead_links": float(len(self.dead)),
            "failovers": float(self.failovers),
            "probes": float(self.probes),
            "partitions": float(self.partitions),
        }

    def metrics_snapshot(self) -> dict[str, float]:
        """Snapshot-time collector payload (``routing.failover.*``)."""
        out = {f"routing.failover.{k}": v for k, v in self.stats().items()}
        for key, t in self.dead.items():
            lo, hi = sorted(key)
            out[f"routing.failover.dead.{lo}<->{hi}"] = t
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FailoverRouting(suspect_after={self.suspect_after}, "
            f"probe_interval={self.probe_interval}, dead={len(self.dead)})"
        )


_POLICIES = {
    "minimal": None,
    "adaptive": AdaptiveRouting,
    "failover": FailoverRouting,
}


def get_routing(policy: "str | RoutingPolicy | None") -> "RoutingPolicy | None":
    """Resolve a policy name (``"adaptive"``/``"failover"``) and pass
    through a policy instance; ``None`` and ``"minimal"`` are ``None`` (the
    fabric's built-in minimal path)."""
    if policy is None or not isinstance(policy, str):
        return policy
    try:
        policy_cls = _POLICIES[policy]
    except KeyError:
        raise ValueError(
            f"unknown routing policy {policy!r}; valid: {sorted(_POLICIES)}"
        ) from None
    return None if policy_cls is None else policy_cls()
