"""Multi-node clusters: nodes joined through their NICs by a switched fabric.

The paper's Fig. 3 evaluates "two-sided and one-sided MPI on CPUs over
InfiniBand and Slingshot-11"; the on-node models in this package stop at the
NIC.  :func:`make_cluster` replicates a node model N times, prefixes its
endpoints (``n0.cpu0``, ``n1.gpu2``, ...), and connects every node's NIC(s)
to a central switch with the interconnect's LogGP parameters.

Interconnect presets follow public microbenchmark figures:

* **Slingshot-11** (Perlmutter, Frontier): ~25 GB/s/direction per NIC,
  ~1.8 us switch-traversal latency;
* **InfiniBand EDR** (Summit): ~12.5 GB/s/direction, ~1.3 us.
"""

from __future__ import annotations

import dataclasses

from repro.machines.base import MachineModel
from repro.net.loggp import LinkParams
from repro.net.topology import FabricBlueprint, TopologySpec, is_nic
from repro.util.units import GBps, us
from repro.util.validation import check_count

__all__ = ["make_cluster", "FABRICS", "SLINGSHOT11", "INFINIBAND_EDR"]

SLINGSHOT11 = LinkParams(
    latency=us(0.9), bandwidth=GBps(25), gap=us(0.05), name="Slingshot-11"
)
# One switch traversal = two link hops (node->switch->node) = 1.8 us total.

INFINIBAND_EDR = LinkParams(
    latency=us(0.65), bandwidth=GBps(12.5), gap=us(0.08), name="IB EDR"
)

# Named fabric presets, so sweep points can reference an interconnect by a
# plain JSON-able string (like machines are referenced by registry name).
FABRICS: dict[str, LinkParams] = {
    "slingshot11": SLINGSHOT11,
    "infiniband-edr": INFINIBAND_EDR,
}


def make_cluster(
    node: MachineModel,
    nnodes: int,
    interconnect: LinkParams = SLINGSHOT11,
    *,
    name: str | None = None,
    fabric: FabricBlueprint | None = None,
) -> MachineModel:
    """Build an ``nnodes``-node cluster from one node model.

    Every endpoint of the node topology is replicated with an ``n{i}.``
    prefix.  With the default star fabric, each node NIC connects to a
    shared ``switch`` endpoint with the interconnect parameters.  With a
    :class:`~repro.net.topology.FabricBlueprint` (from
    :func:`~repro.net.topology.dragonfly` / ``fat_tree`` / ``torus``), the
    blueprint's router graph is embedded instead and node ``i``'s NICs cable
    to ``fabric.attach_points[i]`` — multi-hop routes, path diversity, and
    adaptive routing then apply between nodes.  Rank placement, runtimes,
    and compute rates carry over unchanged, so all workloads and experiments
    run on clusters exactly as they do on single nodes.
    """
    check_count("nnodes", nnodes)
    if fabric is not None and nnodes > fabric.max_nodes:
        raise ValueError(
            f"{nnodes} nodes exceed the {fabric.max_nodes} node ports of "
            f"{fabric.describe()}"
        )
    nics = [ep for ep in node.topology.endpoints if is_nic(ep)]
    if not nics:
        raise ValueError(
            f"node model {node.name!r} has no NIC endpoints to attach to a fabric"
        )
    suffix = f"-x{nnodes}" if fabric is None else f"-x{nnodes}@{fabric.topology.name}"
    topo = TopologySpec(
        name=f"{node.name}{suffix}",
        loopback=node.topology.loopback,
    )
    if fabric is not None:
        for key, params in fabric.topology.links.items():
            a, b = sorted(key)
            topo.add_link(a, b, params)
    for i in range(nnodes):
        for key, params in node.topology.links.items():
            a, b = sorted(key)
            topo.add_link(f"n{i}.{a}", f"n{i}.{b}", params)
        for ep, inj in node.topology.injection.items():
            topo.set_injection(f"n{i}.{ep}", inj)
        attach = "switch" if fabric is None else fabric.attach_points[i]
        for nic in nics:
            topo.add_link(f"n{i}.{nic}", attach, interconnect)
    compute_endpoints = [
        f"n{i}.{ep}" for i in range(nnodes) for ep in node.compute_endpoints
    ]
    fabric_desc = interconnect.name if fabric is None else fabric.describe()
    return MachineModel(
        name=name or f"{node.name}{suffix}",
        description=(
            f"{nnodes} x [{node.description}] over {fabric_desc} "
            f"({interconnect.bandwidth / 1e9:.1f} GB/s/dir per NIC)"
        ),
        topology=topo,
        compute_endpoints=compute_endpoints,
        runtimes=dict(node.runtimes),
        cores_per_endpoint=node.cores_per_endpoint,
        mem_bandwidth_per_endpoint=node.mem_bandwidth_per_endpoint,
        mem_bandwidth_per_core=node.mem_bandwidth_per_core,
        flop_rate_per_core=node.flop_rate_per_core,
        gpu=dataclasses.replace(node.gpu) if node.gpu else None,
        nominal_link_specs={
            **node.nominal_link_specs,
            interconnect.name: (
                f"{interconnect.bandwidth / 1e9:.1f} GB/s/direction, "
                f"{2 * interconnect.latency * 1e6:.1f} us node-to-node"
            ),
        },
    )
