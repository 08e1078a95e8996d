"""Network fabric model: LogGP links, topologies, routing, contention."""

from repro.net.congestion import CongestionConfig, CongestionControl
from repro.net.fabric import Delivery, Fabric
from repro.net.link import Channel, Link
from repro.net.loggp import LinkParams, LogGPParams
from repro.net.routing import (
    AdaptiveRouting,
    FailoverRouting,
    RoutingPolicy,
    get_routing,
)
from repro.net.topology import (
    FabricBlueprint,
    Route,
    TopologySpec,
    dragonfly,
    fat_tree,
    torus,
)

__all__ = [
    "AdaptiveRouting",
    "CongestionConfig",
    "CongestionControl",
    "Delivery",
    "Fabric",
    "FabricBlueprint",
    "FailoverRouting",
    "Channel",
    "Link",
    "LinkParams",
    "LogGPParams",
    "Route",
    "RoutingPolicy",
    "TopologySpec",
    "dragonfly",
    "fat_tree",
    "torus",
    "get_routing",
]
