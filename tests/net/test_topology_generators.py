"""Parametric fabric generators: dragonfly, fat tree, torus, cluster grammar."""

import pytest

from repro.machines import get_machine, machine_fingerprint
from repro.net import LinkParams, TopologySpec, dragonfly, fat_tree, torus


class TestDragonfly:
    def test_shape(self):
        bp = dragonfly(4, 2, 2)
        assert bp.kind == "dragonfly"
        assert len(bp.topology.endpoints) == 8  # 4 groups x 2 routers
        # 1 local link per group (C(2,2)) + one global per group pair.
        locals_ = [p for p in bp.topology.links.values() if p.name == "local"]
        globals_ = [p for p in bp.topology.links.values() if p.name == "global"]
        assert len(locals_) == 4
        assert len(globals_) == 6
        assert bp.max_nodes == 16  # 8 routers x 2 node ports

    def test_groups_partition_routers(self):
        bp = dragonfly(3, 2, 1)
        assert sorted(set(bp.groups.values())) == [0, 1, 2]
        assert bp.groups["g0r0"] == 0 and bp.groups["g2r1"] == 2

    def test_intergroup_route_crosses_one_global_link(self):
        bp = dragonfly(4, 2, 1)
        route = bp.topology.route("g0r0", "g1r1")
        crossed = [
            bp.topology.link_params(u, v).name == "global" for u, v in route.hops
        ]
        assert crossed.count(True) == 1

    def test_global_ports_spread_round_robin(self):
        bp = dragonfly(4, 2, 1)
        # With 3 global ports per group and 2 routers, both routers of every
        # group must host at least one global link.
        hosts = set()
        for key, p in bp.topology.links.items():
            if p.name == "global":
                hosts.update(key)
        assert hosts == set(bp.topology.endpoints)

    def test_validation(self):
        with pytest.raises(ValueError):
            dragonfly(1, 2, 1)
        with pytest.raises(ValueError):
            dragonfly(2, 0, 1)
        with pytest.raises(ValueError):
            dragonfly(2, 1, 0)


class TestFatTree:
    def test_shape(self):
        bp = fat_tree(4)
        # 4 pod edge routers + 2 cores; every pod connects to every core.
        assert len(bp.topology.endpoints) == 6
        assert len(bp.topology.links) == 8
        assert bp.max_nodes == 16  # k ports per pod

    def test_path_diversity(self):
        bp = fat_tree(4)
        # Two disjoint pod->pod paths, one through each core.
        r1 = bp.topology.shortest_path("pod0", "pod1")
        assert len(r1) == 3  # pod - core - pod
        assert bp.topology.diameter_hops() == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            fat_tree(3)  # odd
        with pytest.raises(ValueError):
            fat_tree(0)


class TestTorus:
    def test_2d_shape(self):
        bp = torus((3, 3))
        assert len(bp.topology.endpoints) == 9
        # Each axis contributes one ring of 3 per row/column: 2 * 9 links.
        assert len(bp.topology.links) == 18
        assert bp.max_nodes == 9

    def test_length2_rings_collapse(self):
        bp = torus((2, 2))
        # +1 and -1 wrap to the same neighbour: 4 links, not 8.
        assert len(bp.topology.links) == 4

    def test_wraparound_shortens_routes(self):
        bp = torus((4,))
        # 3 -> 0 wraps in one hop instead of walking the ring.
        assert bp.topology.route("t3", "t0").nhops == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            torus(())
        with pytest.raises(ValueError):
            torus((1, 3))


class TestBlueprintSummaries:
    def test_describe_mentions_parameters(self):
        text = dragonfly(2, 2, 1).describe()
        assert "dragonfly" in text and "groups=2" in text

    def test_diameter_and_bisection(self):
        topo = dragonfly(4, 2, 1).topology
        assert topo.diameter_hops() >= 2
        assert topo.bisection_bandwidth() > 0

    def test_summaries_of_an_empty_topology(self):
        empty = TopologySpec(name="x")
        with pytest.raises(ValueError, match="topology 'x' has no endpoints"):
            empty.diameter_hops()
        assert empty.bisection_bandwidth() == 0.0

    def test_diameter_of_a_disconnected_topology_names_the_pair(self):
        topo = TopologySpec(name="split")
        link = LinkParams(latency=1e-6, bandwidth=1e9)
        topo.add_link("a", "b", link)
        topo.add_link("c", "d", link)
        with pytest.raises(
            ValueError, match="'split' is not connected: 'a' cannot reach 'c'"
        ):
            topo.diameter_hops()

    def test_neighbors_in_link_insertion_order(self):
        topo = TopologySpec(name="star")
        link = LinkParams(latency=1e-6, bandwidth=1e9)
        for leaf in ("z", "m", "a"):
            topo.add_link("hub", leaf, link)
        assert topo.neighbors("hub") == ("z", "m", "a")
        assert topo.neighbors("m") == ("hub",)
        with pytest.raises(KeyError, match="'nope' not in topology 'star'"):
            topo.neighbors("nope")


class TestRouteVia:
    """Satellite: bottleneck fields come from the hops actually taken."""

    def _topo(self):
        t = TopologySpec(name="tri")
        t.add_link("a", "b", LinkParams(latency=1e-6, bandwidth=10e9))
        t.add_link("b", "c", LinkParams(latency=1e-6, bandwidth=10e9))
        t.add_link("a", "c", LinkParams(latency=5e-6, bandwidth=2e9, gap=1e-7))
        return t

    def test_detour_reports_its_own_bottleneck(self):
        t = self._topo()
        minimal = t.route("a", "c")  # a-b-c: 2 us, 10 GB/s
        detour = t.route_via(["a", "c"])  # direct slow link
        assert minimal.hops == (("a", "b"), ("b", "c"))
        assert minimal.latency == pytest.approx(2e-6)
        assert detour.latency == pytest.approx(5e-6)
        assert detour.bandwidth == pytest.approx(2e9)
        assert detour.gap == pytest.approx(1e-7)
        assert detour.G > minimal.G

    def test_route_via_rejects_non_links(self):
        t = self._topo()
        with pytest.raises(KeyError):
            t.route_via(["a", "b", "nope"])
        with pytest.raises(ValueError):
            t.route_via(["a"])

    def test_cached_minimal_matches_fresh_costing(self):
        t = self._topo()
        cached = t.route("a", "c")
        fresh = t.route_via(["a", "b", "c"])
        assert cached.hops == fresh.hops
        assert cached.latency == fresh.latency
        assert cached.G == fresh.G


class TestClusterGrammar:
    def test_generated_cluster_machine(self):
        m = get_machine("perlmutter-cpu-x4@dragonfly(2,2,1)")
        assert "dragonfly" in m.topology.name
        # Node internals exist behind each router.
        assert m.topology.has_endpoint("n0.cpu0")
        assert m.topology.has_endpoint("g0r0")

    def test_plain_cluster_still_works(self):
        m = get_machine("perlmutter-cpu-x2")
        assert m.topology.has_endpoint("n1.cpu0")

    def test_too_many_nodes_rejected(self):
        with pytest.raises(ValueError):
            get_machine("perlmutter-cpu-x9@dragonfly(2,2,1)")  # 8 ports

    def test_bad_arity_rejected(self):
        with pytest.raises(ValueError):
            get_machine("perlmutter-cpu-x2@dragonfly(2)")

    def test_unknown_name_mentions_cluster_grammar(self):
        with pytest.raises(KeyError, match="dragonfly"):
            get_machine("not-a-machine")

    def test_fingerprint_distinguishes_fabrics(self):
        a = machine_fingerprint("perlmutter-cpu-x4@dragonfly(2,2,1)")
        b = machine_fingerprint("perlmutter-cpu-x4@fattree(4)")
        assert a != b
