"""Topology construction, routing, loopback, route parameters."""

import pytest

from repro.net import Fabric, LinkParams, TopologySpec
from repro.sim import Simulator


def _topo():
    t = TopologySpec(name="test")
    t.add_link("a", "b", LinkParams(latency=1e-6, bandwidth=10e9))
    t.add_link("b", "c", LinkParams(latency=2e-6, bandwidth=5e9, gap=3e-7))
    return t


class TestConstruction:
    def test_endpoints_sorted(self):
        assert _topo().endpoints == ["a", "b", "c"]

    def test_duplicate_link_rejected(self):
        t = _topo()
        with pytest.raises(ValueError):
            t.add_link("b", "a", LinkParams(latency=1e-6, bandwidth=1e9))

    def test_self_link_rejected(self):
        t = TopologySpec(name="x")
        with pytest.raises(ValueError):
            t.add_link("a", "a", LinkParams(latency=0, bandwidth=1e9))

    def test_link_params_lookup(self):
        t = _topo()
        assert t.link_params("a", "b").bandwidth == 10e9
        assert t.link_params("b", "a").bandwidth == 10e9  # undirected
        with pytest.raises(KeyError):
            t.link_params("a", "c")

    def test_describe_mentions_links(self):
        text = _topo().describe()
        assert "a <-> b" in text and "10 GB/s" in text


class TestRouting:
    def test_direct_route(self):
        r = _topo().route("a", "b")
        assert r.hops == (("a", "b"),)
        assert r.latency == pytest.approx(1e-6)
        assert r.bandwidth == 10e9

    def test_multi_hop_route_accumulates(self):
        r = _topo().route("a", "c")
        assert r.hops == (("a", "b"), ("b", "c"))
        assert r.latency == pytest.approx(3e-6)
        assert r.bandwidth == 5e9  # bottleneck
        assert r.gap == pytest.approx(3e-7)  # max over hops

    def test_route_uses_min_latency_path(self):
        t = _topo()
        t.add_link("a", "c", LinkParams(latency=10e-6, bandwidth=100e9))
        # Direct a-c has higher latency than a-b-c (3 us): routing is by
        # latency, so the two-hop path wins.
        r = t.route("a", "c")
        assert r.nhops == 2

    def test_loopback_route(self):
        r = _topo().route("a", "a")
        assert r.nhops == 0
        assert r.bandwidth > 0

    def test_message_bandwidth_uses_subchannel(self):
        t = TopologySpec(name="x")
        t.add_link("a", "b", LinkParams(latency=0, bandwidth=100e9, channels=4))
        r = t.route("a", "b")
        assert r.bandwidth == 100e9
        assert r.message_bandwidth == pytest.approx(25e9)
        assert r.G == pytest.approx(1 / 25e9)

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(KeyError):
            _topo().route("a", "zzz")

    @pytest.mark.parametrize("src, dst", [("a", "zzz"), ("zzz", "a"), ("zzz", "zzz")])
    def test_unknown_endpoint_has_no_route_or_path(self, src, dst):
        """A loopback to an endpoint the topology does not have is no route
        either (it used to cost a zero-hop one)."""
        t = _topo()
        for query in (t.route, t.shortest_path):
            with pytest.raises(KeyError, match="'zzz' not in topology 'test'"):
                query(src, dst)

    @pytest.mark.parametrize("routing", [None, "adaptive"])
    @pytest.mark.parametrize("src, dst", [("a", "zzz"), ("zzz", "zzz")])
    def test_transfer_to_an_unknown_endpoint_raises(self, routing, src, dst):
        fabric = Fabric(Simulator(), _topo(), routing=routing)
        with pytest.raises(KeyError, match="'zzz' not in topology 'test'"):
            fabric.transfer(src, dst, 64)
        assert fabric.total_messages == 0 and not fabric._pairs
        assert fabric.routing_counts["decisions"] == 0

    def test_shortest_path_is_the_routes_endpoints(self):
        t = _topo()
        assert t.shortest_path("a", "c") == ["a", "b", "c"]
        assert t.shortest_path("c", "a") == ["c", "b", "a"]
        assert t.shortest_path("b", "b") == ["b"]
        path = t.shortest_path("a", "c")
        path.append("d")  # a fresh list: the caller may extend it
        assert t.shortest_path("a", "c") == ["a", "b", "c"]

    def test_disconnected_raises(self):
        t = _topo()
        t.add_link("x", "y", LinkParams(latency=0, bandwidth=1e9))
        with pytest.raises(KeyError, match="no path"):
            t.route("a", "x")

    def test_route_cache_consistency(self):
        t = _topo()
        r1 = t.route("a", "c")
        r2 = t.route("a", "c")
        assert r1 is r2  # cached
        t.add_link("a", "d", LinkParams(latency=0, bandwidth=1e9))
        r3 = t.route("a", "c")
        assert r3.latency == r1.latency  # cache invalidated but same answer

    def test_route_via_memo_is_dropped_with_the_route_caches(self):
        t = _topo()
        via = t.route_via(["a", "b", "c"])
        assert t.route_via(("a", "b", "c")) is via  # memoised per path
        assert via.latency == 3e-6 and via.gap == 3e-7 and via.nhops == 2
        t.invalidate_routes()
        fresh = t.route_via(["a", "b", "c"])
        assert fresh is not via and fresh == via
        t.add_link("c", "d", LinkParams(latency=4e-6, bandwidth=1e9))
        again = t.route_via(["a", "b", "c"])
        assert again is not fresh and again == via
        assert t.route_via(["a", "b", "c", "d"]).latency == 7e-6

    def test_route_via_rejects_bad_paths_every_time(self):
        t = _topo()
        for _ in range(2):  # a failed costing must not poison the memo
            with pytest.raises(KeyError, match="no link"):
                t.route_via(["a", "c"])
            with pytest.raises(ValueError):
                t.route_via(["a"])

    def test_injection_registration(self):
        t = _topo()
        t.set_injection("a", LinkParams(latency=0.0, bandwidth=200e9))
        assert "a" in t.injection
