"""Topology: a graph of endpoints connected by LogGP links.

Endpoints are string-named devices: CPU sockets (``"cpu0"``), GPUs
(``"gpu3"``), NICs (``"nic0"``), and — at cluster scale — switches and
routers (``"switch"``; the generators' ``"g0r1"``, ``"core0"``,
``"pod2"`` and torus coordinates ``"t0-1"``).  The machine models in
``repro.machines`` build one :class:`TopologySpec` each from the paper's
Fig. 2 node diagrams; the parametric generators here (:func:`dragonfly`,
:func:`fat_tree`, :func:`torus`) build the datacenter fabrics those nodes
plug into via :func:`repro.machines.cluster.make_cluster`, which prefixes
every node-internal endpoint with its node, ``n{i}.`` (``"n3.cpu0"``);
:func:`node_of` and :func:`is_nic` read that grammar.

Path *selection* lives in :mod:`repro.net.routing`; this module resolves
static minimum-latency paths (its own bidirectional Dijkstra, cached; ties
break by link insertion order, held by ``tests/net/test_route_oracle.py``) and turns
any explicit hop sequence into a costed :class:`Route` via
:meth:`TopologySpec.route_via` — bottleneck fields are computed from the
actual hops of each path, so adaptive (non-minimal) routes report their own
per-path latency/``G``, not the cached minimal pair's.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from collections.abc import Collection, Sequence
from heapq import heappop, heappush
from itertools import count

from repro.net.loggp import LinkParams
from repro.util.validation import check_count

__all__ = [
    "TopologySpec",
    "Route",
    "FabricBlueprint",
    "dragonfly",
    "fat_tree",
    "torus",
    "node_of",
    "is_nic",
]

_NODE_PREFIX = re.compile(r"^(n\d+)\.")


def node_of(endpoint: str) -> str:
    """The ``n{i}`` node a cluster endpoint belongs to (``"n3.cpu0"`` ->
    ``"n3"``); an endpoint without the prefix is its own node."""
    m = _NODE_PREFIX.match(endpoint)
    return endpoint if m is None else m.group(1)


def is_nic(endpoint: str) -> bool:
    """Whether ``endpoint`` is a NIC (``"nic0"``, ``"n3.nic1"``)."""
    m = _NODE_PREFIX.match(endpoint)
    return endpoint.startswith("nic", 0 if m is None else m.end())


@dataclass(frozen=True, slots=True)
class Route:
    """A resolved path: the ordered endpoints and per-hop link parameters."""

    src: str
    dst: str
    hops: tuple[tuple[str, str], ...]  # directed (u, v) pairs
    latency: float  # sum of per-hop latencies
    bandwidth: float  # min per-hop aggregate bandwidth (bottleneck)
    message_bandwidth: float  # min per-hop single-sub-channel bandwidth
    gap: float  # max per-hop gap
    # Derived once; every transfer reads both.
    nhops: int = field(init=False, repr=False, compare=False)
    #: Per-byte time one message observes (bottleneck sub-channel).
    G: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "nhops", len(self.hops))
        object.__setattr__(self, "G", 1.0 / self.message_bandwidth)


@dataclass
class TopologySpec:
    """Declarative description of a node/system fabric.

    Build with :meth:`add_link`; query with :meth:`route`.  Loopback routes
    (``src == dst``, an endpoint) are legal and resolve to a zero-hop route
    whose parameters come from ``loopback`` (an on-device memcpy model).
    """

    name: str
    loopback: LinkParams = field(
        default_factory=lambda: LinkParams(latency=1e-7, bandwidth=200e9, name="local")
    )
    injection: dict[str, LinkParams] = field(default_factory=dict)
    _links: dict[frozenset[str], LinkParams] = field(default_factory=dict)
    # {endpoint: {neighbour: latency}} in insertion order, which breaks route ties.
    _adj: dict[str, dict[str, float]] = field(default_factory=dict)
    _route_cache: dict[tuple[str, str], Route] = field(default_factory=dict)
    _via_cache: dict[tuple[str, ...], Route] = field(default_factory=dict)
    # (src, intermediate, dst) -> AdaptiveRouting's Valiant detour, or None.
    _detour_cache: dict[tuple[str, str, str], Route | None] = field(default_factory=dict)
    _transit_cache: list[str] | None = None
    _hop_cache: dict[tuple[str, str], tuple[str, str]] = field(default_factory=dict)

    def add_link(self, a: str, b: str, params: LinkParams) -> None:
        """Connect endpoints ``a`` and ``b`` (undirected, full duplex)."""
        if a == b:
            raise ValueError(f"cannot link endpoint {a!r} to itself")
        key = frozenset((a, b))
        if key in self._links:
            raise ValueError(f"duplicate link {a!r}<->{b!r} in topology {self.name!r}")
        self._links[key] = params
        self._adj.setdefault(a, {})[b] = params.latency
        self._adj.setdefault(b, {})[a] = params.latency
        self.invalidate_routes()

    def set_injection(self, endpoint: str, params: LinkParams) -> None:
        """Give ``endpoint`` a serialised injection port.

        All messages leaving the endpoint stream through this port at
        ``params.bandwidth`` before fanning out onto per-peer links.  Models
        the copy/DMA engine an endpoint funnels traffic through; omitting it
        means injection is unconstrained.
        """
        self.injection[endpoint] = params
        self._transit_cache = None
        self._detour_cache.clear()  # an injecting endpoint is no intermediate

    @property
    def endpoints(self) -> list[str]:
        return sorted(self._adj)

    @property
    def links(self) -> dict[frozenset[str], LinkParams]:
        return dict(self._links)

    def link_params(self, a: str, b: str) -> LinkParams:
        key = frozenset((a, b))
        if key not in self._links:
            raise KeyError(f"no link {a!r}<->{b!r} in topology {self.name!r}")
        return self._links[key]

    def has_endpoint(self, name: str) -> bool:
        return name in self._adj

    def neighbors(self, endpoint: str) -> tuple[str, ...]:
        """Endpoints one link from ``endpoint``, in link insertion order."""
        if endpoint not in self._adj:
            raise KeyError(f"endpoint {endpoint!r} not in topology {self.name!r}")
        return tuple(self._adj[endpoint])

    def route(self, src: str, dst: str) -> Route:
        """Resolve the (cached) minimum-latency route ``src -> dst``.

        The cache is sound here because minimal paths are static: the same
        (src, dst) pair always resolves to the same hops, so the cached
        bottleneck fields equal a fresh :meth:`route_via` of that path.
        Policies that pick *different* hops per decision (adaptive routing)
        must cost each chosen path with :meth:`route_via` instead.  An
        endpoint the topology does not have is a ``KeyError``, loopback too.
        """
        key = (src, dst)
        cached = self._route_cache.get(key)
        if cached is not None:
            return cached
        path = self._min_latency_path(src, dst)
        if len(path) > 1:
            route = self.route_via(path)
        else:
            route = Route(
                src=src,
                dst=dst,
                hops=(),
                latency=self.loopback.latency,
                bandwidth=self.loopback.bandwidth,
                message_bandwidth=self.loopback.channel_bandwidth,
                gap=self.loopback.gap,
            )
        self._route_cache[key] = route
        return route

    def route_via(self, path: Sequence[str]) -> Route:
        """Cost an explicit endpoint path into a :class:`Route`.

        Bottleneck fields (latency sum, min bandwidth, max gap) are computed
        from the hops actually given, so every routing *decision* reports
        the parameters of its own path.  The costing is a pure function of
        the path's immutable :class:`LinkParams`, so it is memoised per
        path until :meth:`add_link` or :meth:`invalidate_routes`.  Every
        consecutive pair must be a topology link.
        """
        key = tuple(path)
        cached = self._via_cache.get(key)
        if cached is not None:
            return cached
        if len(path) < 2:
            raise ValueError(f"path needs at least two endpoints, got {list(path)}")
        intern = self._hop_cache.setdefault  # one (u, v) object per directed hop
        hops = tuple(intern(hop, hop) for hop in zip(path[:-1], path[1:]))
        latency = 0.0
        bandwidth = float("inf")
        msg_bandwidth = float("inf")
        gap = 0.0
        for u, v in hops:
            p = self._links.get(frozenset((u, v)))
            if p is None:
                raise KeyError(
                    f"no link {u!r}<->{v!r} in topology {self.name!r} "
                    f"(path {list(path)})"
                )
            latency += p.latency
            bandwidth = min(bandwidth, p.bandwidth)
            msg_bandwidth = min(msg_bandwidth, p.channel_bandwidth)
            gap = max(gap, p.gap)
        route = self._via_cache[key] = Route(
            src=path[0],
            dst=path[-1],
            hops=hops,
            latency=latency,
            bandwidth=bandwidth,
            message_bandwidth=msg_bandwidth,
            gap=gap,
        )
        return route

    def shortest_path(self, src: str, dst: str) -> list[str]:
        """Minimum-latency endpoint sequence ``src -> ... -> dst``: the
        endpoints of :meth:`route`, as a fresh list."""
        return [src, *(v for _u, v in self.route(src, dst).hops)]

    def _min_latency_path(
        self, src: str, dst: str, dead: Collection[frozenset[str]] = ()
    ) -> list[str]:
        """Bidirectional Dijkstra over the live links, ``KeyError`` if none.

        A port of networkx's ``bidirectional_dijkstra`` (BSD-3-Clause,
        ``networkx/algorithms/shortest_paths/weighted.py``), which is what
        ``nx.shortest_path(g, src, dst, weight=...)`` runs.  Its tie rule
        picks among equal-latency paths and must not drift: forward search
        first, ``(dist, counter, node)`` heap entries, neighbours in
        insertion order, strict ``<`` relaxation, best meeting node seen.
        ``dead`` links are skipped where ``nx.restricted_view`` hid them.
        """
        for ep in (src, dst):
            if ep not in self._adj:
                raise KeyError(f"endpoint {ep!r} not in topology {self.name!r}")
        if src == dst:
            return [src]
        settled = (set(), set())  # [forward, backward]
        preds = ({src: None}, {dst: None})
        seen = ({src: 0.0}, {dst: 0.0})  # best distance found so far
        fringe = ([], [])
        c = count()
        heappush(fringe[0], (0.0, next(c), src))
        heappush(fringe[1], (0.0, next(c), dst))

        def walk(node, side):
            out = []
            while node is not None:
                out.append(node)
                node = preds[side][node]
            return out

        finaldist = meetnode = None
        direction = 1
        while fringe[0] and fringe[1]:
            direction = 1 - direction  # 0 forward from src, 1 backward from dst
            dist, _, v = heappop(fringe[direction])
            if v in settled[direction]:
                continue
            settled[direction].add(v)
            if v in settled[1 - direction]:
                return walk(meetnode, 0)[::-1] + walk(preds[1][meetnode], 1)
            for w, latency in self._adj[v].items():
                if w in settled[direction] or (dead and frozenset((v, w)) in dead):
                    continue
                vw = dist + latency
                if w not in seen[direction] or vw < seen[direction][w]:
                    seen[direction][w] = vw
                    heappush(fringe[direction], (vw, next(c), w))
                    preds[direction][w] = v
                    if w in seen[1 - direction]:
                        total = vw + seen[1 - direction][w]
                        if finaldist is None or finaldist > total:
                            finaldist, meetnode = total, w
        raise KeyError(
            f"no {'live ' if dead else ''}path {src!r} -> {dst!r} in topology "
            f"{self.name!r}" + (f" ({len(dead)} dead link(s))" if dead else "")
        )

    def invalidate_routes(self) -> None:
        """Drop every cached route and detour (:meth:`add_link` does).

        Every entry is a pure function of the static graph, so only a graph
        edit invalidates it.  Liveness is not part of the graph: a
        failure-aware policy (:class:`repro.net.routing.FailoverRouting`)
        keeps its dead-aware routes in its own cache.
        """
        self._route_cache.clear()
        self._via_cache.clear()
        self._detour_cache.clear()
        self._transit_cache = None

    def _transit_endpoints(self) -> list[str]:
        """Endpoints a Valiant detour may pass through (cached, sorted).

        Switch/router endpoints only: multi-degree, not a node-internal
        device (:func:`node_of` names a node), and not an injecting compute
        endpoint.  Detouring *through* another node's NIC
        or socket is not a thing real fabrics do.
        """
        if self._transit_cache is None:
            self._transit_cache = sorted(
                n
                for n in self._adj
                if len(self.neighbors(n)) >= 2 and node_of(n) == n
                and n not in self.injection
            )
        return self._transit_cache

    def shortest_path_avoiding(
        self, src: str, dst: str, dead: Collection[frozenset[str]]
    ) -> list[str]:
        """Minimum-latency path that uses none of the ``dead`` links.

        ``dead`` is a collection of unordered link keys (frozensets of the
        two endpoints).  Raises ``KeyError`` when removing those links
        partitions ``src`` from ``dst`` — the caller's signal that no
        failover is possible.
        """
        return self._min_latency_path(src, dst, dead)

    # -- graph-level summaries (repro topo CLI, FabricBlueprint.describe) ----

    def diameter_hops(self) -> int:
        """Longest shortest path (in hops) between any endpoint pair."""
        if not self._adj:
            raise ValueError(f"topology {self.name!r} has no endpoints")
        diameter = 0
        for src in self._adj:
            depth = {src: 0}
            order = [src]  # breadth-first; grows while it is walked
            for v in order:
                for w in self._adj[v]:
                    if w not in depth:
                        depth[w] = depth[v] + 1
                        order.append(w)
            if len(depth) < len(self._adj):
                lost = next(ep for ep in self._adj if ep not in depth)
                raise ValueError(
                    f"topology {self.name!r} is not connected: {src!r} cannot reach {lost!r}"
                )
            diameter = max(diameter, depth[order[-1]])
        return diameter

    def bisection_bandwidth(self) -> float:
        """Bandwidth crossing a balanced min-cut of the fabric (bytes/s).

        Exact for the generated fabrics' sizes: minimum, over all balanced
        bipartitions found by a Kernighan-Lin style sweep, of the summed
        bandwidth of cut links.  For larger graphs this is the standard
        heuristic estimate, not a certificate.
        """
        if len(self._adj) < 2:
            return 0.0
        import networkx as nx

        # Nodes, then links, in insertion order: the bisection the seeded
        # sweep finds depends on both.  A link key unpacks as an edge.
        g = nx.Graph()
        g.add_nodes_from(self._adj)
        g.add_edges_from(self._links)
        half_a, _ = nx.algorithms.community.kernighan_lin_bisection(
            g, partition=None, weight=None, seed=0
        )
        cut = 0.0
        for key, p in self._links.items():
            a, b = tuple(key)
            if (a in half_a) != (b in half_a):
                cut += p.bandwidth
        return cut

    def describe(self) -> str:
        """Human-readable inventory of the fabric (for Table I benches)."""
        lines = [f"topology {self.name}: {len(self.endpoints)} endpoints"]
        for key, p in sorted(self._links.items(), key=lambda kv: sorted(kv[0])):
            a, b = sorted(key)
            lines.append(
                f"  {a} <-> {b}: {p.name}, "
                f"{p.bandwidth / 1e9:.0f} GB/s/dir, {p.latency * 1e6:.2f} us"
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Parametric datacenter fabric generators
# ---------------------------------------------------------------------------

# Wire parameters for generated fabrics: electrical (intra-group / in-rack)
# vs optical (global / inter-rack) links, in the Slingshot class.
_LOCAL_LINK = LinkParams(latency=3e-7, bandwidth=25e9, gap=5e-8, name="local")
_GLOBAL_LINK = LinkParams(latency=9e-7, bandwidth=25e9, gap=5e-8, name="global")


@dataclass(frozen=True)
class FabricBlueprint:
    """A generated switch/router fabric plus its node attachment plan.

    ``topology`` holds only the routers and inter-router links;
    ``attach_points`` lists the router each successive node's NIC should be
    cabled to (round-robin over router ports), so
    :func:`repro.machines.cluster.make_cluster` can embed N node models
    behind NICs.  ``groups`` maps each router to its locality group (a
    dragonfly group, a fat-tree pod, a torus coordinate) — the unit adaptive
    routing detours around.
    """

    kind: str
    topology: TopologySpec
    attach_points: tuple[str, ...]
    attach_link: LinkParams
    groups: dict[str, int]
    params: dict[str, int] = field(default_factory=dict)

    @property
    def max_nodes(self) -> int:
        return len(self.attach_points)

    def describe(self) -> str:
        t = self.topology
        args = ",".join(f"{k}={v}" for k, v in self.params.items())
        return (
            f"{self.kind}({args}): {len(t.endpoints)} routers, "
            f"{len(t.links)} links, {self.max_nodes} node ports"
        )


def dragonfly(
    groups: int, routers_per_group: int, nodes_per_router: int,
    *,
    local_link: LinkParams = _LOCAL_LINK,
    global_link: LinkParams = _GLOBAL_LINK,
) -> FabricBlueprint:
    """A canonical dragonfly: all-to-all routers within a group, one global
    link between every pair of groups (assigned round-robin to routers).

    Minimal routes between groups cross exactly one global link; adaptive
    (UGAL) routing detours through a third group when that link queues —
    the Slingshot behaviour RAMC measures at scale.
    """
    check_count("dragonfly groups", groups, 2)
    check_count("routers_per_group", routers_per_group)
    check_count("nodes_per_router", nodes_per_router)
    topo = TopologySpec(name=f"dragonfly-{groups}g{routers_per_group}r")
    names = [
        [f"g{g}r{r}" for r in range(routers_per_group)] for g in range(groups)
    ]
    group_of: dict[str, int] = {}
    for g in range(groups):
        for r, router in enumerate(names[g]):
            group_of[router] = g
        for i in range(routers_per_group):
            for j in range(i + 1, routers_per_group):
                topo.add_link(names[g][i], names[g][j], local_link)
    # One global link per group pair; the hosting router inside each group
    # advances round-robin so global ports spread across routers.
    ports = [0] * groups
    for a in range(groups):
        for b in range(a + 1, groups):
            ra = names[a][ports[a] % routers_per_group]
            rb = names[b][ports[b] % routers_per_group]
            topo.add_link(ra, rb, global_link)
            ports[a] += 1
            ports[b] += 1
    attach = tuple(
        names[g][r]
        for g in range(groups)
        for r in range(routers_per_group)
        for _ in range(nodes_per_router)
    )
    return FabricBlueprint(
        kind="dragonfly",
        topology=topo,
        attach_points=attach,
        attach_link=local_link,
        groups=group_of,
        params={
            "groups": groups,
            "routers_per_group": routers_per_group,
            "nodes_per_router": nodes_per_router,
        },
    )


def fat_tree(
    k: int,
    *,
    edge_link: LinkParams = _LOCAL_LINK,
    core_link: LinkParams = _GLOBAL_LINK,
) -> FabricBlueprint:
    """A two-level folded-Clos ("fat tree") with ``k`` pods.

    Each pod is one edge router serving ``k`` node ports; ``k // 2`` core
    routers each connect to every pod, giving ``k // 2`` disjoint
    pod-to-pod paths — the path diversity adaptive routing exploits.
    """
    if k < 2 or k % 2:
        raise ValueError(f"fat_tree k must be even and >= 2, got {k}")
    topo = TopologySpec(name=f"fattree-{k}")
    cores = [f"core{c}" for c in range(k // 2)]
    edges = [f"pod{p}" for p in range(k)]
    group_of: dict[str, int] = {c: -1 for c in cores}
    for p, edge in enumerate(edges):
        group_of[edge] = p
        for core in cores:
            topo.add_link(edge, core, core_link)
    attach = tuple(edge for edge in edges for _ in range(k))
    return FabricBlueprint(
        kind="fat_tree",
        topology=topo,
        attach_points=attach,
        attach_link=edge_link,
        groups=group_of,
        params={"k": k},
    )


def torus(
    dims: Sequence[int],
    *,
    link: LinkParams = _LOCAL_LINK,
    nodes_per_router: int = 1,
) -> FabricBlueprint:
    """A wraparound d-dimensional torus of routers, one node port each
    (``nodes_per_router`` to widen).  Rings of length 2 collapse the two
    wraparound directions into one link."""
    dims = tuple(check_count("torus dim", d, 2) for d in dims)
    if not dims:
        raise ValueError("torus needs at least one dimension")
    shape = "x".join(str(d) for d in dims)
    topo = TopologySpec(name=f"torus-{shape}")

    def name(coord: tuple[int, ...]) -> str:
        return "t" + "-".join(str(c) for c in coord)

    coords: list[tuple[int, ...]] = [()]
    for d in dims:
        coords = [c + (i,) for c in coords for i in range(d)]
    group_of: dict[str, int] = {}
    for c in coords:
        group_of[name(c)] = c[0]
        for axis, d in enumerate(dims):
            nxt = list(c)
            nxt[axis] = (c[axis] + 1) % d
            nxt = tuple(nxt)
            if nxt == c:
                continue
            key = frozenset((name(c), name(nxt)))
            if key not in topo.links:
                topo.add_link(name(c), name(nxt), link)
    attach = tuple(name(c) for c in coords for _ in range(nodes_per_router))
    return FabricBlueprint(
        kind="torus",
        topology=topo,
        attach_points=attach,
        attach_link=link,
        groups=group_of,
        params={
            **{f"dim{i}": d for i, d in enumerate(dims)},
            "nodes_per_router": nodes_per_router,
        },
    )
