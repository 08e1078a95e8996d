"""Property: ``Fabric.transfer`` equals an independent hop-by-hop walk.

The fabric resolves a route's ports once (the compiled walk), reads each
port's LogGP constants once, and skips the sub-channel scan on single-lane
ports.  None of that may move a float.  The reference below knows nothing
of ``Channel``, ``Route`` costing or the walk table: it keeps its own
next-free times per directed port and recomputes every term from
``topology.link_params`` / ``topology.injection`` for every message.  The
fabric tells it only *which* path each transfer took (path selection is
the routing tests' subject), and must then agree on ``(start, arrival)``
bit for bit — across generator topologies, every routing policy, zero-byte
and atomic messages, interleaved pairs, a node whose link has several
sub-channels behind an injection port, and fault plans whose links have
transient ``down`` windows and ``degrade`` factors (no loss, jitter or hard
faults, so the walk stays deterministic).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultInjector, FaultPlan, LinkFaults
from repro.net import AdaptiveRouting, Fabric, LinkParams, dragonfly, fat_tree, torus
from repro.sim import Simulator

_GENERATORS = {
    "dragonfly": lambda: dragonfly(3, 2, 1),
    "fat_tree": lambda: fat_tree(4),
    "torus": lambda: torus((3, 3)),
}
_LANES = LinkParams(
    latency=2e-7, bandwidth=12e9, gap=4e-8, channels=3, atomic_gap=2.5e-7, name="lanes"
)
_DMA = LinkParams(latency=1e-7, bandwidth=20e9, gap=3e-8, name="dma")
# Outage windows a link may carry; overlapping ones chain (one forward pass).
_WINDOWS = ((0.0, 2e-6), (1e-6, 5e-6), (4e-6, 3e-5), (2e-5, 6e-5))


def _topology(kind: str):
    """A fresh generated fabric plus two nodes on multi-lane links, one of
    them injecting through a DMA port."""
    blueprint = _GENERATORS[kind]()
    topo = blueprint.topology
    topo.add_link("nodeA", blueprint.attach_points[0], _LANES)
    topo.add_link("nodeB", blueprint.attach_points[-1], _LANES)
    topo.set_injection("nodeA", _DMA)
    return topo


def _reference(topo, free, path, nbytes, atomic, now, faulty=None):
    """``(start, arrival)`` of one message along ``path``, from link
    parameters alone; ``free`` maps a directed port to its sub-channels'
    next-free times and is updated in place, ``faulty`` maps an unordered
    link to its ``(down windows, degrade)``."""
    if len(path) == 1:  # loopback: the endpoint's local copy engine
        p = topo.loopback
        per_byte = 1.0 / (p.bandwidth / p.channels)
        lane = free.setdefault(("loop", path[0]), [0.0])
        begin = max(now, lane[0])
        lane[0] = begin + max(p.gap, nbytes * per_byte)
        return begin, begin + p.latency + nbytes * per_byte
    links = [((u, v), topo.link_params(u, v)) for u, v in zip(path, path[1:])]
    ports = list(links)
    if path[0] in topo.injection:
        ports.insert(0, (("inject", path[0]), topo.injection[path[0]]))
    # The tail trails the head by one transmission on the slowest lane.
    tail = 1.0 / min(p.bandwidth / p.channels for _, p in links)
    t, start = now, None
    for key, p in ports:
        lanes = free.setdefault(key, [0.0] * p.channels)
        k = lanes.index(min(lanes))  # earliest free; lowest index on ties
        begin = max(t, lanes[k])
        per_byte = p.channels / p.bandwidth
        down, degrade = (faulty or {}).get(frozenset(key), ((), None))
        for a, b in sorted(down):  # the head waits out an outage, in order
            if a <= begin < b:
                begin = b
        if degrade is not None:  # a degraded lane is slower for the tail too
            per_byte *= degrade
            tail = max(tail, per_byte)
        gap = p.atomic_gap if atomic and p.atomic_gap is not None else p.gap
        lanes[k] = begin + max(gap, nbytes * per_byte)
        start = begin if start is None else start
        t = begin + p.latency  # cut-through: the head moves on after L
    return start, t + nbytes * tail


@st.composite
def scenarios(draw):
    kind = draw(st.sampled_from(sorted(_GENERATORS)))
    routing = draw(st.sampled_from((None, "minimal", "adaptive", "failover")))
    endpoints = _topology(kind).endpoints
    pairs = draw(
        st.lists(st.tuples(st.sampled_from(endpoints), st.sampled_from(endpoints)),
                 min_size=1, max_size=4)
    )
    messages = draw(
        st.lists(
            st.tuples(
                st.integers(0, len(pairs) - 1),
                st.sampled_from((0, 1, 64, 4096, 65536, 1 << 20)),
                st.booleans(),  # atomic
                st.sampled_from((None, 0.0, 1e-7, 3e-6, 5e-5)),  # earliest
            ),
            min_size=1, max_size=40,
        )
    )
    faults = draw(
        st.lists(
            st.tuples(
                st.integers(0, 63),  # a link, modulo the topology's
                st.lists(st.sampled_from(_WINDOWS), max_size=3, unique=True),
                st.sampled_from((1.0, 1.5, 2.0, 3.0)),  # degrade
            ),
            max_size=6,
        )
    )
    return kind, routing, pairs, messages, faults


@settings(max_examples=120, deadline=None)
@given(scenarios())
def test_transfer_equals_reference_walk(scenario):
    kind, routing, pairs, messages, faults = scenario
    topo = _topology(kind)
    links = sorted(tuple(sorted(key)) for key in topo.links)
    faulty = {}  # a later draw for a link replaces an earlier one
    for i, down, degrade in faults:
        if down or degrade != 1.0:
            faulty[frozenset(links[i % len(links)])] = (tuple(down), degrade)
    plan = FaultPlan(
        links={tuple(key): LinkFaults(down=down, degrade=d) for key, (down, d) in faulty.items()}
    )
    injector = FaultInjector(plan) if faulty else None
    fabric = Fabric(Simulator(), topo, routing=routing, faults=injector)
    free: dict = {}
    for pair, nbytes, atomic, earliest in messages:
        src, dst = pairs[pair]
        d = fabric.transfer(src, dst, nbytes, atomic=atomic, earliest=earliest)
        path = [d.route.src] + [v for _u, v in d.route.hops]
        assert (path[0], path[-1]) == (src, dst)
        expect = _reference(topo, free, path, nbytes, atomic, earliest or 0.0, faulty)
        assert (d.start, d.arrival) == expect


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(_GENERATORS)),
    st.data(),
    st.sampled_from((0, 64, 4096, 1 << 20)),
)
def test_ugal_score_is_the_arrival_on_an_idle_fabric(kind, data, nbytes):
    """The estimate walks the same compiled ports as the transfer; with
    nothing queued (and no injection port ahead of the route, which the
    estimate leaves out) it is the arrival, exactly."""
    topo = _topology(kind)
    sources = [e for e in topo.endpoints if e not in topo.injection]
    src = data.draw(st.sampled_from(sources))
    dst = data.draw(st.sampled_from([e for e in topo.endpoints if e != src]))
    fabric = Fabric(Simulator(), topo, routing="adaptive")
    route = topo.route(src, dst)
    score = AdaptiveRouting._score(fabric._walk(route)[0], nbytes * route.G, 0.0)
    delivery = fabric.transfer(src, dst, nbytes)
    assert delivery.route is route  # idle: minimal wins every tie
    assert score == delivery.arrival == _reference(
        topo, {}, [src] + [v for _u, v in route.hops], nbytes, False, 0.0
    )[1]
