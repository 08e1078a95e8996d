"""Property: ``AdaptiveRouting.route`` equals the decision written out longhand.

The policy resolves what depends only on ``(src, dst)`` or ``(src, mid,
dst)`` once per topology (the decision memo) and abandons the scoring walk
of a detour as soon as it can no longer beat the best score so far.  None
of that may change a decision.  The reference below knows nothing of the
memo, the bound or the compiled walk: for every decision it rebuilds the
candidate pool from the topology's links, redraws the intermediates from
the hash, recomposes each Valiant path and scores every one of them to the
end, from ``TopologySpec`` and the channels' queue / outage state alone.
The policy must return the very ``Route`` object the reference names and
count the same decisions, detours, scored and abandoned candidates — on
loaded ports, inside transient ``down`` windows, with dead routers (up to
all of them), and on fabrics that offer no intermediate at all.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from math import inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultInjector, FaultPlan, LinkFaults, RouterFaults
from repro.net import AdaptiveRouting, Fabric, dragonfly, fat_tree, torus
from repro.sim import Simulator

_GENERATORS = {
    "dragonfly": lambda: dragonfly(3, 2, 1),
    "fat_tree": lambda: fat_tree(4),
    "torus": lambda: torus((3, 3)),
    # No intermediate to offer: two routers of degree one; a single core
    # that sits on every minimal path.
    "dragonfly-pair": lambda: dragonfly(2, 1, 1),
    "fat_tree-one-core": lambda: fat_tree(2),
}
_WINDOWS = ((0.0, 5e-6), (2e-6, 4e-5), (1e-5, inf), (0.0, inf))
_HARD_DOWN_PENALTY = 1.0  # repro.net.routing's, restated


def _score(fabric, route, nbytes, now):
    """Estimated tail arrival along ``route``, every hop walked."""
    t = now
    for u, v in route.hops:
        channel = fabric.link(u, v).channel(u, v)
        t = max(t, channel.utilization_until)
        if channel.faults is not None:
            for a, b in channel.faults.down:
                if a <= t < b:
                    t = b
        if any(a <= t < b for a, b in channel.hard or ()):
            t += _HARD_DOWN_PENALTY
        t += channel.params.latency
    return t + nbytes * (1.0 / route.message_bandwidth)


def _occupy(fabric, u, v, nbytes, now):
    """One ``nbytes`` message reaches port ``u -> v`` at ``now``: it claims
    the earliest-free sub-channel for max(g, B*G)."""
    channel = fabric.link(u, v).channel(u, v)
    nf = channel._next_free
    k = nf.index(min(nf))
    nf[k] = max(now, nf[k]) + max(channel._gap, nbytes * channel._G)


def _decide(fabric, seq, src, dst, nbytes, now, candidates, counts):
    """Decision number ``seq`` of ``fabric``; adds to ``counts``."""
    topo = fabric.topology
    counts["decisions"] += 1
    minimal = topo.route(src, dst)
    if not minimal.hops:
        return minimal
    degree = Counter(ep for key in topo.links for ep in key)
    on_minimal = {src, dst} | {v for _u, v in minimal.hops}
    pool = [
        m for m in topo.endpoints
        if degree[m] >= 2 and "." not in m and m not in topo.injection
        and m not in on_minimal
    ]
    picked = []
    for i in range(min(candidates, len(pool))):
        h = hashlib.blake2b(f"{src}|{dst}|{seq}|{i}".encode(), digest_size=8).digest()
        mid = pool[int.from_bytes(h, "big") % len(pool)]
        if mid not in picked:
            picked.append(mid)
    best, best_score = minimal, _score(fabric, minimal, nbytes, now)
    for mid in picked:
        try:
            path = topo.shortest_path(src, mid) + topo.shortest_path(mid, dst)[1:]
        except KeyError:
            continue
        if len(set(path)) != len(path):
            continue
        counts["candidates_scored"] += 1
        route = topo.route_via(path)
        score = _score(fabric, route, nbytes, now)
        if score < best_score:
            best, best_score = route, score
        else:  # it could not win, so the bounded walk gave up on it
            counts["candidates_pruned"] += 1
    counts["detours"] += best is not minimal
    return best


def _check(policy, kind, loads, down, dead, decisions):
    """Run ``decisions`` through ``policy`` and the reference side by side.

    Every argument after ``kind`` indexes the topology modulo its size:
    ``loads`` are ``(link, forward?, nbytes, count)`` reservations made at
    t=0, ``down`` / ``dead`` map a link / a router to an entry of
    ``_WINDOWS``, ``decisions`` are ``(src, dst, nbytes, now)``.
    """
    topo = _GENERATORS[kind]().topology
    routers = topo.endpoints
    links = sorted(tuple(sorted(key)) for key in topo.links)
    dead = {routers[i % len(routers)]: _WINDOWS[w] for i, w in dead}  # one entry a router
    plan = FaultPlan(
        links={links[i % len(links)]: LinkFaults(down=(_WINDOWS[w],)) for i, w in down},
        hard=tuple(RouterFaults(r, windows=(window,)) for r, window in dead.items()),
    )
    faults = FaultInjector(plan) if down or dead else None
    fabric = Fabric(Simulator(), topo, routing=policy, faults=faults)
    for i, forward, nbytes, count in loads:
        u, v = links[i % len(links)][:: 1 if forward else -1]
        for _ in range(count):
            _occupy(fabric, u, v, nbytes, 0.0)
    expected = dict.fromkeys(fabric.routing_counts, 0)
    for seq, (s, d, nbytes, now) in enumerate(decisions, start=1):
        src, dst = routers[s % len(routers)], routers[d % len(routers)]
        want = _decide(fabric, seq, src, dst, nbytes, now, policy.candidates, expected)
        got = policy.route(fabric, src, dst, nbytes, now)
        assert got is want, (seq, src, dst)
        for u, v in got.hops:  # the message goes where it was sent
            _occupy(fabric, u, v, nbytes, now)
    assert fabric.routing_counts == expected
    return expected


_index = st.integers(0, 63)
_window = st.integers(0, len(_WINDOWS) - 1)
_nbytes = st.sampled_from((0, 64, 4096, 1 << 20))


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(sorted(_GENERATORS)),
    candidates=st.integers(1, 4),
    loads=st.lists(st.tuples(_index, st.booleans(), _nbytes, st.integers(1, 40)), max_size=8),
    down=st.lists(st.tuples(_index, _window), max_size=3),
    # Up to every router of the largest fabric: each candidate is dead.
    dead=st.lists(st.tuples(_index, _window), max_size=12),
    pairs=st.lists(st.tuples(_index, _index), min_size=1, max_size=3),
    decisions=st.lists(
        st.tuples(st.integers(0, 2), _nbytes, st.sampled_from((0.0, 1e-6, 3e-5))),
        min_size=1, max_size=30,
    ),
)
def test_decision_equals_reference(kind, candidates, loads, down, dead, pairs, decisions):
    decisions = [(*pairs[p % len(pairs)], nbytes, now) for p, nbytes, now in decisions]
    _check(AdaptiveRouting(candidates), kind, loads, down, dead, decisions)


# One queued minimal path, large and small messages from both ends of it:
# detours win, detours lose with the tail deciding, and a pair repeats.
_QUEUED = dict(
    kind="dragonfly",
    loads=[(i, forward, 1 << 20, 6) for i in (0, 3, 7) for forward in (True, False)],
    down=[],
    dead=[],
    decisions=[(s, d, nbytes, 0.0) for nbytes in (1 << 20, 4096, 0)
               for s, d in ((0, 3), (3, 0), (1, 4), (0, 3))],
)


def test_the_queued_scenario_takes_and_abandons_detours():
    counts = _check(AdaptiveRouting(4), **_QUEUED)
    assert counts["detours"] > 0
    assert 0 < counts["candidates_pruned"] < counts["candidates_scored"]


def test_every_router_dead_and_no_intermediate_still_decide():
    everywhere = [(i, 3) for i in range(9)]  # (0, inf) on each torus router
    decisions = [(0, 4, 4096, 1e-6), (4, 0, 0, 0.0), (2, 2, 64, 0.0)]
    counts = _check(AdaptiveRouting(4), "torus", [], [], everywhere, decisions)
    assert counts["candidates_scored"] > 0 and counts["detours"] == 0
    for kind in ("dragonfly-pair", "fat_tree-one-core"):
        counts = _check(AdaptiveRouting(4), kind, [(0, True, 1 << 20, 20)], [], [],
                        [(0, 1, 4096, 0.0), (1, 0, 4096, 0.0)])
        assert counts == {"decisions": 2, "detours": 0,
                          "candidates_scored": 0, "candidates_pruned": 0}


def _mutant(gives_up):
    """An ``AdaptiveRouting`` whose bounded walk stops on ``gives_up(t,
    tail, bound)`` instead of ``t + tail >= bound``."""

    class Mutant(AdaptiveRouting):
        @staticmethod
        def _score(walk, tail, now, bound=inf):
            t = now
            for channel, _link in walk:
                t = max(t, channel.utilization_until) + channel._latency
                if gives_up(t, tail, bound):
                    return inf
            return t + tail

    return Mutant(4)


@pytest.mark.parametrize(
    "gives_up",
    [
        pytest.param(lambda t, tail, bound: t > bound, id="latency-so-far-without-the-tail"),
        pytest.param(lambda t, tail, bound: t + tail <= bound, id="less-or-equal"),
    ],
)
def test_a_wrong_bound_fails_the_reference(gives_up):
    _check(_mutant(lambda t, tail, bound: t + tail >= bound), **_QUEUED)
    with pytest.raises(AssertionError):
        _check(_mutant(gives_up), **_QUEUED)
