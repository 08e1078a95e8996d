"""Minimal routes against networkx, the test oracle.

``TopologySpec`` runs its own bidirectional Dijkstra; which of several
equal-latency paths it returns is what the goldens depend on.  Here every
ordered pair of every topology below must come out as
``nx.shortest_path(g, a, b, weight="weight")`` does on a graph built from the
same links in the same order, and dead-link sets as ``nx.restricted_view``.
"""

import itertools
import random

import networkx as nx
import pytest

from repro.machines import get_machine, machine_names
from repro.net import dragonfly, fat_tree, torus

FABRICS = {
    "dragonfly(8,4,2)": lambda: dragonfly(8, 4, 2),
    "dragonfly(9,4,1)": lambda: dragonfly(9, 4, 1),
    "fat_tree(4)": lambda: fat_tree(4),
    "fat_tree(6)": lambda: fat_tree(6),
    "torus((4,4))": lambda: torus((4, 4)),
    "torus((3,3,3))": lambda: torus((3, 3, 3)),
}
MACHINES = [
    *machine_names(),
    "perlmutter-gpu-x8@dragonfly(4,2,2)",
    "perlmutter-cpu-x4@dragonfly(2,2,1)",
]


def _topology(name):
    if name in FABRICS:
        return FABRICS[name]().topology
    return get_machine(name).topology


def _oracle_graph(topo):
    g = nx.Graph()
    for key, params in topo.links.items():  # insertion order
        g.add_edge(*key, weight=params.latency)
    return g


@pytest.mark.parametrize("name", [*MACHINES, *FABRICS])
class TestAgainstNetworkx:
    def test_every_ordered_pair(self, name):
        topo = _topology(name)
        g = _oracle_graph(topo)
        for a, b in itertools.permutations(topo.endpoints, 2):
            want = nx.shortest_path(g, a, b, weight="weight")
            assert topo.shortest_path(a, b) == want, (a, b)
            assert [u for u, _ in topo.route(a, b).hops] == want[:-1], (a, b)

    def test_dead_link_subsets(self, name):
        topo = _topology(name)
        g = _oracle_graph(topo)
        links = list(topo.links)
        endpoints = topo.endpoints
        rng = random.Random(f"dead:{name}")
        for _ in range(200):
            dead = frozenset(rng.sample(links, rng.randint(1, max(1, len(links) // 3))))
            a, b = rng.sample(endpoints, 2)
            view = nx.restricted_view(g, [], [tuple(key) for key in dead])
            try:
                want = nx.shortest_path(view, a, b, weight="weight")
            except nx.NetworkXNoPath:
                with pytest.raises(KeyError, match="no live path"):
                    topo.shortest_path_avoiding(a, b, dead)
            else:
                assert topo.shortest_path_avoiding(a, b, dead) == want, (a, b, dead)


def test_tie_rule_in_literals():
    """Three equal-latency choices written out, so that a networkx release
    breaking ties differently is told apart from a regression here.  Each
    comes out differently under ``<=`` relaxation and under backward-first
    alternation."""
    path = torus((4, 4)).topology.shortest_path
    assert path("t0-0", "t1-2") == ["t0-0", "t1-0", "t1-1", "t1-2"]
    assert path("t0-0", "t3-2") == ["t0-0", "t0-1", "t0-2", "t3-2"]
    assert path("t0-1", "t2-3") == ["t0-1", "t0-0", "t0-3", "t1-3", "t2-3"]
