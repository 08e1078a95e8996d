"""Routing policies: minimal byte-identity, adaptive detours, determinism."""

import copy
import gc
import pickle
import sys
from collections import Counter

import pytest

from repro.net import (
    AdaptiveRouting,
    CongestionConfig,
    Fabric,
    FailoverRouting,
    dragonfly,
    fat_tree,
    get_routing,
)
from repro.sim import Simulator


def _df_fabric(sim, routing=None):
    """A router-only dragonfly fabric (endpoints are the routers)."""
    return Fabric(sim, dragonfly(4, 2, 1).topology, routing=routing)


def _queue(fabric, hops, nbytes, count):
    """Queue ``count`` ``nbytes`` messages issued at t=0 on each port of
    ``hops``: each claims the earliest-free sub-channel for max(g, B*G)."""
    for u, v in hops:
        ch = fabric.link(u, v).channel(u, v)
        nf = ch._next_free
        for _ in range(count):
            k = nf.index(min(nf))
            nf[k] += max(ch._gap, nbytes * ch._G)


def _arrivals(schedule):
    _fabric, deliveries = schedule
    return [d.arrival for d in deliveries]


class TestResolver:
    def test_none_passthrough(self):
        assert get_routing(None) is None

    def test_names_resolve(self):
        assert get_routing("minimal") is None  # the fabric's built-in path
        assert isinstance(get_routing("adaptive"), AdaptiveRouting)

    def test_instance_passthrough(self):
        policy = AdaptiveRouting(candidates=3)
        assert get_routing(policy) is policy

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="adaptive"):
            get_routing("ecmp")

    def test_candidate_validation(self):
        with pytest.raises(ValueError):
            AdaptiveRouting(candidates=0)

    @pytest.mark.parametrize("candidates", [1.5, 2.0, True, "2", None])
    def test_candidates_must_be_an_int(self, candidates):
        """1.5 and True used to construct and run; "2" died in the
        comparison with a TypeError instead of naming the argument."""
        with pytest.raises(ValueError, match="candidates must be an integer >= 1"):
            AdaptiveRouting(candidates=candidates)


class TestMinimal:
    def test_returns_cached_route_object(self, sim):
        """"minimal" is the no-policy default: a transfer takes the exact
        cached Route object, not an equal copy."""
        f = _df_fabric(sim, routing="minimal")
        assert f.routing is None and f.replayable
        f.transfer("g0r0", "g1r1", 1024)
        assert f._pairs["g0r0", "g1r1"][0] is f.topology.route("g0r0", "g1r1")

    def test_fabric_arrivals_match_default(self, loaded_schedule):
        f_default = _df_fabric(Simulator())
        f_minimal = _df_fabric(Simulator(), routing="minimal")
        for src, dst in [("g0r0", "g1r1"), ("g0r0", "g1r1"), ("g2r0", "g0r1")]:
            a = f_default.transfer(src, dst, 65536).arrival
            b = f_minimal.transfer(src, dst, 65536).arrival
            assert a == b  # exact, not approx
        # ...and with every port queued, not only on an idle fabric.
        assert _arrivals(loaded_schedule()) == _arrivals(loaded_schedule("minimal"))


class TestAdaptive:
    def test_idle_fabric_takes_minimal_path(self, sim):
        f = _df_fabric(sim, routing="adaptive")
        minimal = f.topology.route("g0r0", "g1r1")
        chosen = f.routing.route(f, "g0r0", "g1r1", 1024, 0.0)
        assert chosen.hops == minimal.hops

    def test_loopback_short_circuits(self, sim):
        f = _df_fabric(sim, routing="adaptive")
        assert f.routing.route(f, "g0r0", "g0r0", 64, 0.0).nhops == 0

    @pytest.mark.parametrize("nbytes", [0, 4096, 1 << 20])
    def test_score_equals_transfer_arrival_on_idle_fabric(self, nbytes):
        """UGAL's estimate and the real hop walk read the same port table:
        with nothing queued the estimate is the arrival, exactly."""
        for src, dst in [("g0r0", "g0r1"), ("g0r0", "g1r1"), ("g3r1", "g1r0")]:
            f = _df_fabric(Simulator(), routing="adaptive")
            route = f.topology.route(src, dst)
            score = f.routing._score(f._walk(route)[0], nbytes * route.G, 0.0)
            delivery = f.transfer(src, dst, nbytes)
            assert delivery.route is route
            assert score == delivery.arrival

    def test_detours_around_queued_links(self, sim, loaded_schedule):
        """Queue every link of the minimal path; UGAL must pick a Valiant
        detour whose hops differ — and real traffic alone must queue
        enough for some transfer to leave its minimal path."""
        f = _df_fabric(sim, routing=AdaptiveRouting(candidates=4))
        minimal = f.topology.route("g0r0", "g1r0")
        _queue(f, minimal.hops, 262144, 50)  # ~10.5 us occupancy each
        chosen = f.routing.route(f, "g0r0", "g1r0", 4096, 0.0)
        assert chosen.hops != minimal.hops
        assert chosen.nhops > minimal.nhops  # a real detour, freshly costed
        assert chosen.latency > minimal.latency
        loaded, deliveries = loaded_schedule(
            AdaptiveRouting(candidates=2), congestion=CongestionConfig()
        )
        assert any(
            d.route.nhops > loaded.topology.route(d.route.src, d.route.dst).nhops
            for d in deliveries
        )

    def test_detour_reports_per_path_parameters(self, sim):
        f = _df_fabric(sim, routing=AdaptiveRouting(candidates=4))
        minimal = f.topology.route("g0r0", "g1r0")
        _queue(f, minimal.hops, 262144, 50)
        chosen = f.routing.route(f, "g0r0", "g1r0", 4096, 0.0)
        # The fresh costing must equal route_via of the same hop sequence.
        path = [chosen.src] + [v for _u, v in chosen.hops]
        fresh = f.topology.route_via(path)
        assert chosen.latency == fresh.latency
        assert chosen.G == fresh.G

    def test_intermediates_are_routers_only(self, sim):
        from repro.machines import get_machine

        m = get_machine("perlmutter-cpu-x4@dragonfly(2,2,1)")
        f = Fabric(sim, m.topology, routing="adaptive")
        mids = f.topology._transit_endpoints()
        assert mids  # the generated routers qualify
        assert all("." not in mid for mid in mids)  # never node internals

    def test_reused_instance_still_detours_on_a_second_topology(self, sim):
        """The intermediate pool belongs to the topology, not the policy
        instance: a policy that served a dragonfly used to carry its
        routers onto a fat tree and silently fall back to minimal."""
        policy = AdaptiveRouting(candidates=4)
        first = _df_fabric(sim, routing=policy)
        policy.route(first, "g0r0", "g1r0", 4096, 0.0)
        second = Fabric(Simulator(), fat_tree(4).topology, routing=policy)
        minimal = second.topology.route("pod0", "pod1")
        _queue(second, minimal.hops, 262144, 50)
        detours = [
            policy.route(second, "pod0", "pod1", 4096, 0.0).hops != minimal.hops
            for _ in range(8)  # the candidate draw varies per decision
        ]
        assert any(detours)

    def test_intermediate_pool_follows_topology_edits(self):
        topo = dragonfly(2, 2, 1).topology
        before = list(topo._transit_endpoints())
        topo.add_link("g0r0", "extra", dragonfly(2, 2, 1).attach_link)
        topo.add_link("extra", "g1r1", dragonfly(2, 2, 1).attach_link)
        after = topo._transit_endpoints()
        assert "extra" not in before and "extra" in after
        assert after == sorted(after)

    def test_decision_memo_follows_topology_edits(self):
        """The detours a decision remembers per (src, intermediate, dst)
        are dropped by every call that can change them or the candidate
        pool they are drawn from — on a topology that fabrics and policies
        share — and by nothing else."""
        topo = dragonfly(3, 2, 1).topology
        attach = dragonfly(3, 2, 1).attach_link
        policy = AdaptiveRouting(candidates=4)
        memo = topo._detour_cache

        def pool(src="g0r0", dst="g1r1"):
            # A fabric per decision: the memo is the topology's, not theirs;
            # the candidate pool is the fabric's pair entry.
            fabric = Fabric(Simulator(), topo, routing=policy)
            assert policy.route(fabric, src, dst, 4096, 0.0) is topo.route(src, dst)
            assert any(key[::2] == (src, dst) for key in memo)
            return fabric._pairs[src, dst][3]

        first = pool()
        kept = dict(memo)
        assert pool() == first  # the detours are remembered, not rebuilt
        assert memo.keys() == kept.keys()
        assert all(memo[key] is detour for key, detour in kept.items())
        # add_link: a new transit router joins the pool of a known pair.
        topo.add_link("g2r0", "extra", attach)
        topo.add_link("extra", "g2r1", attach)
        assert not memo
        assert "extra" in pool()
        # set_injection: an injecting endpoint is no intermediate.
        topo.set_injection("extra", attach)
        assert not memo
        assert "extra" not in pool()
        # A FailoverRouting detection is no topology edit: the memo stays,
        # equal to what a rebuild computes.
        kept = dict(memo)
        failover = FailoverRouting(suspect_after=1)
        fabric = Fabric(Simulator(), topo, routing=failover)
        failover.on_drop(fabric, frozenset(("g2r0", "g2r1")), 0.0)
        assert failover.dead and all(memo[key] is d for key, d in kept.items())
        topo.invalidate_routes()
        assert not memo
        pool()
        assert memo == kept

    def test_decision_memo_is_plain_data(self):
        """After an adaptive run the topology pickles and deep-copies (a
        sweep worker may be handed it), and each detour memo entry is
        exactly what a rebuild computes: the per-fabric pair entries, draw
        state included, are not in it."""
        topo = dragonfly(3, 2, 1).topology
        fabric = Fabric(Simulator(), topo, routing=AdaptiveRouting(candidates=4))
        routers = topo.endpoints
        for i in range(300):
            src, dst = routers[i % len(routers)], routers[(5 * i + 1) % len(routers)]
            fabric.transfer(src, dst, (64, 4096, 1 << 20)[i % 3])
        memo = topo._detour_cache
        assert fabric.routing_counts["candidates_scored"] > 0
        assert any(detour is not None for detour in memo.values())
        for key, detour in memo.items():
            assert detour == AdaptiveRouting._detour(topo, *key)
        for clone in (pickle.loads(pickle.dumps(topo)), copy.deepcopy(topo)):
            assert clone._detour_cache == memo

    def test_deterministic_replay(self, loaded_schedule):
        """Same transfer sequence, fresh fabrics: bit-identical schedules."""

        def run():
            f = _df_fabric(Simulator(), routing="adaptive")
            pairs = [("g0r0", "g1r0"), ("g0r1", "g2r0"), ("g0r0", "g1r0")]
            return [
                f.transfer(src, dst, 131072).arrival
                for _ in range(10)
                for src, dst in pairs
            ]

        assert run() == run()

        def loaded():
            return _arrivals(
                loaded_schedule(
                    AdaptiveRouting(candidates=2), congestion=CongestionConfig()
                )
            )

        assert loaded() == loaded()

    def test_decisions_vary_candidates(self):
        """Successive decisions draw different intermediates (the decision
        counter feeds the hash) — and the counter is the fabric's: the same
        policy object draws the same sequence again on a fresh fabric."""
        drawn = []

        class Spy(AdaptiveRouting):
            @staticmethod
            def _detour(topo, src, mid, dst):
                drawn.append(mid)
                return AdaptiveRouting._detour(topo, src, mid, dst)

        policy = Spy(candidates=2)

        def draws(n=6):
            f = _df_fabric(Simulator(), routing=policy)
            out = []
            for _ in range(n):
                # Every pick is looked up anew: in the topology's detour memo
                # and in the fabric's pair entry that compiled what it found.
                f.topology._detour_cache.clear()
                f._pairs.clear()
                del drawn[:]
                policy.route(f, "g0r0", "g1r0", 4096, 0.0)
                out.append(list(drawn))
            assert f.routing_counts["decisions"] == n
            return out

        first = draws()
        assert all(first) and first[0] != first[1]
        assert len({mid for decision in first for mid in decision}) > 2
        assert draws() == first

    def test_a_reused_policy_object_replays(self, loaded_schedule):
        """The decision number that seeds the candidate draw is counted by
        the fabric, so a policy built once (a runner, ``Cluster(routing=p)``)
        gives every fresh fabric the schedule a fresh policy gives it."""

        def run(policy):
            fabric, deliveries = loaded_schedule(
                policy, congestion=CongestionConfig(), n=3000
            )
            assert fabric.routing_counts["decisions"] == 3000
            assert fabric.routing_counts["detours"] > 0
            return [(d.arrival, d.route.hops) for d in deliveries]

        p = AdaptiveRouting(2)
        assert not vars(p).keys() - {"candidates"}  # no per-run state to carry
        first = run(p)
        assert run(p) == first
        assert run(AdaptiveRouting(2)) == first


def _calls(fn):
    """Python and C calls made under ``fn()``, by function name, as
    ``sys.setprofile`` reports them (the same on CPython 3.11 and 3.12)."""
    seen = Counter()

    def profile(frame, event, arg):
        if event == "call":
            seen[frame.f_code.co_name] += 1
        elif event == "c_call" and arg is not sys.setprofile:
            seen[arg.__name__] += 1

    gc.disable()  # no collection, and no finaliser, inside the count
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
        gc.enable()
    del seen[fn.__name__]
    return seen


class TestCallBudget:
    """What a steady-state adaptive decision and a routed transfer cost, in
    calls: every pair entry and detour of the fabric is built, so a decision
    is one pair-entry lookup, its draws (``copy`` / ``update`` / ``digest``
    / ``from_bytes``) and its scores, and a transfer takes the winner's
    ports from the decision, with no walk-table lookup.  The counts repeat
    exactly; a change that moves them moves this budget on purpose."""

    def _warm(self):
        f = Fabric(
            Simulator(), dragonfly(4, 2, 1).topology,
            routing=AdaptiveRouting(2), congestion=CongestionConfig(),
        )
        routers = f.topology.endpoints
        traffic = [
            (routers[i % len(routers)], routers[(3 * i + 1) % len(routers)],
             (64, 4096, 65536)[i % 3])
            for i in range(24)
        ]
        for _ in range(20):  # builds every pair entry and detour it meets
            for src, dst, nbytes in traffic:
                f.transfer(src, dst, nbytes)
        return f, traffic

    def test_a_decision(self):
        f, traffic = self._warm()

        def decisions():
            for src, dst, nbytes in traffic:
                f.routing.route(f, src, dst, nbytes, 0.0)

        assert _calls(decisions) == {
            "route": 24, "decide": 24,
            "get": 24,  # the pair entry; a detour is a subscript of its table
            "copy": 48, "update": 48, "digest": 48, "from_bytes": 48,  # 2 draws
            "append": 44,  # intermediates picked
            "_score": 34, "len": 58,  # scores, hops walked by them
        }
        assert f.routing_counts == {
            "decisions": 504, "detours": 13,
            "candidates_scored": 264, "candidates_pruned": 249,
        }

    def test_a_routed_transfer(self):
        f, traffic = self._warm()

        def transfers():
            for src, dst, nbytes in traffic:
                f.transfer(src, dst, nbytes)

        assert _calls(transfers) == {
            "transfer": 24, "__new__": 24, "send": 24, "__init__": 24,
            "decide": 24,  # route and ports in one call
            "get": 72,  # the pair entry, and the source's rate twice (cc)
            "copy": 48, "update": 48, "digest": 48, "from_bytes": 48,
            "append": 44, "_score": 34,
            "len": 90,  # hops scored, and ports reserved
            "injection_delay": 24, "observe": 24, "heappush": 24,
        }

    @pytest.mark.parametrize(
        "dst, nhops", [("g0r1", 1), ("g1r1", 2), ("g0r0", 0)],
        ids=["single-hop", "multi-hop", "loopback"],
    )
    def test_a_policy_free_transfer(self, dst, nhops):
        """``fabric_clean``'s per-message path: one pair-table lookup (the
        loopback reads its copy engine's free time too), one ``len`` per
        port reserved, and no routing call."""
        f = Fabric(Simulator(), dragonfly(4, 2, 1).topology)
        f.transfer("g0r0", dst, 64)  # builds the pair's entry
        assert f.topology.route("g0r0", dst).nhops == nhops

        def one_transfer():
            f.transfer("g0r0", dst, 4096)

        budget = {"transfer": 1, "__new__": 1, "send": 1, "__init__": 1, "heappush": 1}
        budget.update({"get": 2} if nhops == 0 else {"get": 1, "len": nhops})
        assert _calls(one_transfer) == budget


class TestAdaptiveWithDownWindows:
    """UGAL must treat a link mid-outage as expensive, not free."""

    def _down_fabric(self, routing, windows, pair=("g0r0", "g1r0")):
        from repro.faults import FaultPlan, LinkFaults
        from repro.faults.inject import FaultInjector

        plan = FaultPlan(links={pair: LinkFaults(down=windows)})
        return Fabric(
            Simulator(),
            dragonfly(4, 2, 1).topology,
            faults=FaultInjector(plan),
            routing=routing,
        )

    def test_detours_around_link_in_outage_window(self):
        f = self._down_fabric(AdaptiveRouting(candidates=4), ((0.0, 50e-6),))
        minimal = f.topology.route("g0r0", "g1r0")
        chosen = f.routing.route(f, "g0r0", "g1r0", 4096, 1e-6)
        # The direct link is down until 50 us: any live detour wins.
        assert chosen.hops != minimal.hops
        assert all(
            frozenset(hop) != frozenset(("g0r0", "g1r0")) for hop in chosen.hops
        )

    def test_minimal_path_returns_after_window(self):
        f = self._down_fabric(AdaptiveRouting(candidates=4), ((0.0, 50e-6),))
        minimal = f.topology.route("g0r0", "g1r0")
        chosen = f.routing.route(f, "g0r0", "g1r0", 4096, 60e-6)
        assert chosen.hops == minimal.hops

    def test_score_waits_out_downtime(self):
        f = self._down_fabric(AdaptiveRouting(candidates=4), ((0.0, 50e-6),))
        route = f.topology.route("g0r0", "g1r0")
        walk, tail = f._walk(route)[0], 4096 * route.G
        inside = f.routing._score(walk, tail, 1e-6)
        outside = f.routing._score(walk, tail, 60e-6)
        assert inside >= 50e-6  # the head cannot leave before the window ends
        assert outside - 60e-6 < inside - 1e-6  # less residual cost after it

    def test_deterministic_replay_with_down_windows(self):
        def run():
            f = self._down_fabric(
                AdaptiveRouting(candidates=4), ((0.0, 40e-6), (80e-6, 120e-6))
            )
            pairs = [("g0r0", "g1r0"), ("g0r1", "g2r0"), ("g0r0", "g1r0")]
            return [
                f.transfer(src, dst, 131072).arrival
                for _ in range(8)
                for src, dst in pairs
            ]

        assert run() == run()
