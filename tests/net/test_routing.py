"""Routing policies: minimal byte-identity, adaptive detours, determinism."""

import copy
import pickle

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
        """What a decision remembers per pair (minimal route, candidate
        pool, detours) is dropped by every call that can change it — on a
        topology that fabrics and policies share — and by nothing else."""
        topo = dragonfly(3, 2, 1).topology
        attach = dragonfly(3, 2, 1).attach_link
        policy = AdaptiveRouting(candidates=4)
        memo = topo._decision_memo

        def pool(src="g0r0", dst="g1r1"):
            # A fabric per decision: the memo is the topology's, not theirs.
            fabric = Fabric(Simulator(), topo, routing=policy)
            assert policy.route(fabric, src, dst, 4096, 0.0) is topo.route(src, dst)
            minimal, candidates, _prefix = memo[src, dst]
            assert minimal is topo.route(src, dst)
            assert any(key[::2] == (src, dst) for key in memo if len(key) == 3)
            return candidates

        assert pool() is pool()  # remembered, not rebuilt
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
        kept = memo["g0r0", "g1r1"]
        failover = FailoverRouting(suspect_after=1)
        fabric = Fabric(Simulator(), topo, routing=failover)
        failover.on_drop(fabric, frozenset(("g2r0", "g2r1")), 0.0)
        assert failover.dead and memo["g0r0", "g1r1"] is kept
        topo.invalidate_routes()
        assert pool() == kept[1] and memo["g0r0", "g1r1"] == kept

    def test_decision_memo_is_plain_data(self):
        """After an adaptive run the topology pickles and deep-copies (a
        sweep worker may be handed it), and each memo entry is exactly what
        a rebuild computes: the per-fabric draw state is not in it."""
        topo = dragonfly(3, 2, 1).topology
        fabric = Fabric(Simulator(), topo, routing=AdaptiveRouting(candidates=4))
        routers = topo.endpoints
        for i in range(300):
            src, dst = routers[i % len(routers)], routers[(5 * i + 1) % len(routers)]
            fabric.transfer(src, dst, (64, 4096, 1 << 20)[i % 3])
        memo = topo._decision_memo
        assert fabric.routing_counts["candidates_scored"] > 0
        assert any(len(key) == 3 for key in memo)
        for key, entry in memo.items():
            if len(key) == 2:
                assert entry == AdaptiveRouting._pair(topo, *key)
            else:
                assert entry == AdaptiveRouting._detour(topo, *key)
        for clone in (pickle.loads(pickle.dumps(topo)), copy.deepcopy(topo)):
            assert clone._decision_memo == memo

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
                f.topology._decision_memo.clear()  # every pick is looked up anew
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
