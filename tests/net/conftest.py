"""A loaded fabric schedule shared by the routing/congestion/failover suites."""

from __future__ import annotations

import pytest

from repro.faults.inject import FaultInjector
from repro.net import Fabric, dragonfly
from repro.sim import Simulator


def _loaded_schedule(routing=None, *, congestion=None, plan=None, avoid=(), n=2000):
    """``n`` 64 KiB transfers over 64 all-groups router pairs of a
    dragonfly(4,4,1), all issued at t=0 so ports queue, marks fire and
    UGAL sees real load.  ``avoid`` names routers that may be transited
    but never addressed.  Returns ``(fabric, deliveries)``."""
    faults = FaultInjector(plan) if plan is not None else None
    f = Fabric(
        Simulator(),
        dragonfly(4, 4, 1).topology,
        routing=routing,
        congestion=congestion,
        faults=faults,
    )
    routers = [r for r in f.topology.endpoints if r not in avoid]
    k = len(routers)
    pairs = [(routers[i % k], routers[(i * 7 + 3) % k]) for i in range(64)]
    pairs = [(src, dst) for src, dst in pairs if src != dst]
    return f, [f.transfer(*pairs[i % len(pairs)], 65536) for i in range(n)]


@pytest.fixture
def loaded_schedule():
    return _loaded_schedule
