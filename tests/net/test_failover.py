"""FailoverRouting: detection, re-routing, partitions, clean parity."""

import math

import pytest

from repro.faults import FaultError, FaultPlan, RouterFaults
from repro.faults.inject import FaultInjector
from repro.net import (
    Fabric,
    FailoverRouting,
    dragonfly,
    get_routing,
)
from repro.sim import Simulator

INF = math.inf


def _fabric(routing=None, plan=None):
    sim = Simulator()
    faults = FaultInjector(plan) if plan is not None else None
    return Fabric(sim, dragonfly(4, 2, 2).topology, faults=faults, routing=routing)


def _dead_router_plan(name="g1r0", start=0.0):
    return FaultPlan(hard=(RouterFaults(name, windows=((start, INF),)),))


# ``loaded_schedule`` options: g3r2 is dead from t=0; the traffic crosses
# it (g3 <-> g2) but never starts or ends there.
TRANSIT_KILL = {"plan": _dead_router_plan("g3r2"), "avoid": ("g3r2",)}


class TestConstruction:
    def test_resolves_by_name(self):
        assert isinstance(get_routing("failover"), FailoverRouting)

    def test_reroutes_flag(self):
        assert FailoverRouting.reroutes is True

    def test_validation(self):
        with pytest.raises(ValueError, match="suspect_after"):
            FailoverRouting(suspect_after=0)
        with pytest.raises(ValueError, match="probe_interval"):
            FailoverRouting(probe_interval=0.0)


class TestCleanParity:
    def test_returns_cached_route_object(self, loaded_schedule):
        f = _fabric(routing="failover")
        route = f.routing.route(f, "g0r0", "g1r1", 1024, 0.0)
        assert route is f.topology.route("g0r0", "g1r1")
        # With no fault the policy costs a lookup and nothing else: under
        # load too, every transfer rides the topology's memoised Route and
        # the detector never stirs.
        f, deliveries = loaded_schedule("failover")
        assert all(
            d.route is f.topology.route(d.route.src, d.route.dst) for d in deliveries
        )
        assert not any(f.routing.stats().values())

    def test_arrivals_bit_identical_to_default(self, loaded_schedule):
        f_default = _fabric()
        f_failover = _fabric(routing="failover")
        for src, dst in [("g0r0", "g1r1"), ("g2r0", "g0r1"), ("g0r0", "g1r1")]:
            a = f_default.transfer(src, dst, 65536).arrival
            b = f_failover.transfer(src, dst, 65536).arrival
            assert a == b  # exact, not approx
        _f, default = loaded_schedule()
        _f, failover = loaded_schedule("failover")
        assert [d.arrival for d in default] == [d.arrival for d in failover]

    def test_dormant_hard_plan_stays_bit_identical(self):
        """A plan whose hard fault never fires must not perturb timing,
        even though transfers take the faulty (retry-loop) path."""
        plan = _dead_router_plan(start=1e9)
        f_clean = _fabric()
        f_dormant = _fabric(routing="failover", plan=plan)
        a = f_clean.transfer("g0r1", "g1r1", 65536).arrival
        b = f_dormant.transfer("g0r1", "g1r1", 65536).arrival
        assert a == b


class TestRouterFailure:
    def test_minimal_routing_dies(self, loaded_schedule):
        f = _fabric(plan=_dead_router_plan())
        with pytest.raises(FaultError, match="lost on"):
            f.transfer("g0r1", "g1r1", 65536)
        with pytest.raises(FaultError, match="lost on"):
            loaded_schedule("minimal", **TRANSIT_KILL)

    def test_failover_delivers_around_dead_router(self, loaded_schedule):
        f = _fabric(routing="failover", plan=_dead_router_plan())
        d = f.transfer("g0r1", "g1r1", 65536)
        assert d.arrival > 0
        stats = f.routing.stats()
        assert stats["detections"] >= 1
        assert stats["failovers"] >= 1
        assert stats["partitions"] == 0
        # A whole schedule that transits the victim is delivered too.
        f, deliveries = loaded_schedule("failover", **TRANSIT_KILL)
        assert len(deliveries) == 2000 and not any(d.dropped for d in deliveries)
        assert f.routing.stats()["failovers"] > 0
        assert f.routing.stats()["partitions"] == 0

    def test_detour_avoids_dead_links(self):
        f = _fabric(routing="failover", plan=_dead_router_plan())
        f.transfer("g0r1", "g1r1", 65536)
        route = f.routing.route(f, "g0r1", "g1r1", 65536, f.sim.now)
        assert all("g1r0" not in hop for hop in route.hops)

    def test_unaffected_pairs_keep_minimal_path(self):
        f = _fabric(routing="failover", plan=_dead_router_plan())
        f.transfer("g0r1", "g1r1", 65536)  # marks g1r0's links dead
        route = f.routing.route(f, "g2r0", "g2r1", 1024, f.sim.now)
        assert [tuple(h) for h in route.hops] == [
            tuple(h) for h in f.topology.route("g2r0", "g2r1").hops
        ]

    def test_transfer_to_dead_router_partitions(self):
        f = _fabric(routing="failover", plan=_dead_router_plan())
        with pytest.raises(FaultError, match="partition|no failover path"):
            f.transfer("g0r0", "g1r0", 65536)
        assert f.routing.stats()["partitions"] >= 1


class TestDetector:
    def test_suspect_threshold(self):
        f = _fabric(routing=FailoverRouting(suspect_after=2))
        key = frozenset(("g0r0", "g1r0"))
        f.routing.on_drop(f, key, 1e-6)
        assert key not in f.routing.dead
        f.routing.on_drop(f, key, 2e-6)
        assert f.routing.dead[key] == 2e-6
        assert f.routing.detections == 1

    def test_dead_set_change_drops_memoised_costings(self):
        """A detection drops the policy's dead-aware routes; the topology's
        costings are functions of the static graph and stay memoised."""
        f = _fabric(routing=FailoverRouting(suspect_after=1))
        topo = f.topology
        path = topo.shortest_path("g0r0", "g1r1")
        before = topo.route_via(path)
        minimal = topo.route("g0r0", "g1r1")
        f.routing.on_drop(f, frozenset(path[:2]), 1e-6)
        assert f.routing.route(f, "g0r0", "g1r1", 1024, 2e-6) is not minimal
        assert ("g0r0", "g1r1") in f.routing._cache
        other = next(key for key in topo.links if key != frozenset(path[:2]))
        f.routing.on_drop(f, other, 3e-6)
        assert not f.routing._cache
        assert topo.route_via(path) is before
        assert topo.route("g0r0", "g1r1") is minimal
        fresh = dragonfly(4, 2, 2).topology
        assert fresh.route_via(path) == before
        assert fresh.route("g0r0", "g1r1") == minimal

    def test_probe_revives_after_interval(self):
        f = _fabric(routing=FailoverRouting(suspect_after=1, probe_interval=10e-6))
        key = frozenset(("g0r0", "g1r0"))
        f.routing.on_drop(f, key, 0.0)
        assert key in f.routing.dead
        # Next decision before the interval keeps it dead...
        f.routing.route(f, "g0r0", "g1r1", 1024, 5e-6)
        assert key in f.routing.dead
        # ...and after the interval the link is probed back in.
        route = f.routing.route(f, "g0r0", "g1r1", 1024, 20e-6)
        assert key not in f.routing.dead
        assert f.routing.probes == 1
        assert route is f.topology.route("g0r0", "g1r1")

    def test_metrics_snapshot_keys(self):
        f = _fabric(routing="failover", plan=_dead_router_plan())
        f.transfer("g0r1", "g1r1", 65536)
        snap = f.routing.metrics_snapshot()
        assert snap["routing.failover.detections"] >= 1
        assert snap["routing.failover.failovers"] >= 1


class TestDeterminism:
    def test_bit_identical_replay(self, loaded_schedule):
        def run():
            f = _fabric(routing="failover", plan=_dead_router_plan())
            arrivals = [
                f.transfer(src, dst, 65536).arrival
                for src, dst in [
                    ("g0r1", "g1r1"),
                    ("g2r0", "g3r0"),
                    ("g0r1", "g1r1"),
                ]
            ]
            return arrivals, f.routing.stats()

        assert run() == run()

        def loaded():
            f, deliveries = loaded_schedule("failover", **TRANSIT_KILL)
            return [d.arrival for d in deliveries], f.routing.stats()

        assert loaded() == loaded()
