"""Fabric.transfer edge cases: zero-byte messages, self-routes, and
single-link topologies — with and without an active fault plan — and the
record-less Fabric.send a replayed batch reserves through."""

import math
import random

import pytest

from repro.faults import FaultPlan, RouterFaults
from repro.faults.inject import FaultInjector
from repro.net import CongestionConfig, Fabric, LinkParams, TopologySpec, dragonfly
from repro.sim import Simulator


def _single_link(sim, plan=None):
    topo = TopologySpec(name="one")
    topo.add_link("a", "b", LinkParams(latency=1e-6, bandwidth=10e9))
    inj = FaultInjector(plan) if plan is not None else None
    return Fabric(sim, topo, faults=inj)


class TestZeroByte:
    def test_pays_latency_only(self, sim):
        d = _single_link(sim).transfer("a", "b", 0)
        assert d.arrival == pytest.approx(1e-6)

    def test_can_still_be_lost(self, sim):
        """A zero-byte control message has a header to drop: under heavy
        loss it retransmits like any other transfer."""
        f = _single_link(sim, FaultPlan.uniform(loss=0.5, seed=0, max_retries=20))
        deliveries = [f.transfer("a", "b", 0) for _ in range(20)]
        assert any(d.attempts > 1 for d in deliveries)
        assert all(d.arrival >= 1e-6 for d in deliveries)

    def test_jitter_applies(self, sim):
        f = _single_link(sim, FaultPlan.uniform(jitter=4e-6, seed=1))
        arrivals = [f.transfer("a", "b", 0).arrival for _ in range(20)]
        assert all(1e-6 <= a < 5e-6 for a in arrivals)
        assert len(set(arrivals)) > 1  # jitter actually varies per message


class TestSelfRoute:
    def test_loopback_below_wire_latency(self, sim):
        d = _single_link(sim).transfer("a", "a", 1000)
        assert d.arrival < 1e-6

    def test_loopback_ignores_fault_plan(self, sim):
        clean = _single_link(sim).transfer("a", "a", 1000)
        f = _single_link(sim, FaultPlan.uniform(loss=0.9, jitter=1e-3, seed=0))
        faulty = f.transfer("a", "a", 1000)
        assert faulty.arrival == clean.arrival
        assert faulty.attempts == 1 and not faulty.dropped

    def test_zero_byte_loopback(self, sim):
        d = _single_link(sim).transfer("a", "a", 0)
        assert d.arrival >= 0.0
        assert d.route.nhops == 0


class TestSingleLink:
    def test_route_has_one_hop(self, sim):
        d = _single_link(sim).transfer("a", "b", 10000)
        assert d.route.nhops == 1
        assert d.arrival == pytest.approx(2e-6)

    def test_unknown_endpoint_rejected(self, sim):
        with pytest.raises(KeyError):
            _single_link(sim).transfer("a", "z", 8)

    @pytest.mark.parametrize("nbytes", [-1, float("nan"), float("inf")])
    @pytest.mark.parametrize("dst", ["a", "b"])  # loopback and routed
    def test_negative_and_non_finite_nbytes_rejected(self, sim, nbytes, dst):
        """nan used to reach the heap as a nan-keyed entry; inf parked the
        port's next-free time at inf for every later transfer."""
        f = _single_link(sim)
        with pytest.raises(ValueError):
            f.transfer("a", dst, nbytes)
        with pytest.raises(ValueError):
            f.send("a", dst, nbytes, None)
        assert f.total_messages == 0 and sim.peek() == math.inf
        assert f.transfer("a", "b", 10000).arrival == pytest.approx(2e-6)

    def test_payload_round_trip(self, sim):
        f = _single_link(sim)
        d = f.transfer("a", "b", 8, payload={"k": 1})
        assert sim.run(until=d.event) == {"k": 1}

    def test_faulty_payload_survives_retransmit(self, sim):
        f = _single_link(sim, FaultPlan.uniform(loss=0.5, seed=0, max_retries=20))
        payloads = [
            sim.run(until=f.transfer("a", "b", 8, payload=i).event)
            for i in range(10)
        ]
        assert payloads == list(range(10))


def _port_state(fabric):
    """Everything the walk writes: every port's sub-channel next-free
    times and traffic counters, the loopback engines and the totals."""
    channels = [ch for ch, _link in fabric._ports.values()]
    channels += fabric._injection.values()
    return (
        [(list(ch._next_free), ch.bytes_carried, ch.messages_carried) for ch in channels],
        dict(fabric._loopback_next_free),
        fabric.total_messages,
        fabric.total_bytes,
    )


class TestRecordlessSend:
    """``Fabric.send(..., None, earliest=t)`` is what a replayed batch sends
    per message: the walk of a transfer issued at ``t``, nothing pushed."""

    @pytest.mark.parametrize(
        ("pair", "atomic"),
        [("loopback", False), ("routed", False), ("routed", True)],
        ids=["loopback", "routed", "routed-atomic"],
    )
    def test_reserves_like_a_transfer_at_issue_time(self, pair, atomic):
        topology = dragonfly(4, 2, 2).topology
        endpoints = sorted(topology.endpoints)
        src = endpoints[0]
        dst = src if pair == "loopback" else next(
            e for e in endpoints if topology.route(src, e).nhops > 1
        )
        topology.set_injection(src, LinkParams(latency=1e-7, bandwidth=25e9))
        sim, twin_sim = Simulator(), Simulator()
        fabric, twin = Fabric(sim, topology), Fabric(twin_sim, topology)
        for t in (0.0, 0.0, 1e-7, 5e-6, 5e-6):  # contended, then idle ports
            twin_sim.run(until=t)
            expected = twin.transfer(src, dst, 4096, atomic=atomic).arrival
            got = fabric.send(src, dst, 4096, None, earliest=t, atomic=atomic)
            assert got[1] == expected
        assert sim.peek() == math.inf
        assert twin.total_messages == 5
        assert _port_state(fabric) == _port_state(twin)


class TestDormantFaultPlan:
    """A plan whose only fault is a hard window that never opens puts every
    transfer through the per-hop fault steps of the one hop walk; nothing
    fires, so the schedule must equal the plan-free one bit for bit."""

    @pytest.mark.parametrize("congestion", [False, True], ids=["cc-off", "cc-on"])
    @pytest.mark.parametrize("routing", [None, "minimal", "adaptive", "failover"])
    def test_multi_hop_schedule_identical_to_no_plan(self, routing, congestion):
        topology = dragonfly(4, 2, 2).topology
        rng = random.Random(7)
        endpoints = sorted(topology.endpoints)
        # Same-endpoint pairs included: loopback under a plan reports too.
        traffic = [
            (rng.choice(endpoints), rng.choice(endpoints), rng.choice((0, 64, 65536)))
            for _ in range(400)
        ]

        def schedule(plan):
            fabric = Fabric(
                Simulator(),
                topology,
                faults=FaultInjector(plan) if plan is not None else None,
                routing=routing,
                congestion=CongestionConfig() if congestion else None,
            )
            deliveries = [fabric.transfer(*t) for t in traffic]
            assert any(d.route.nhops > 1 for d in deliveries)
            return [(d.start, d.arrival, d.attempts) for d in deliveries]

        dormant = FaultPlan(
            hard=(RouterFaults("g1r0", windows=((1e9, math.inf),)),)
        )
        assert schedule(dormant) == schedule(None)
