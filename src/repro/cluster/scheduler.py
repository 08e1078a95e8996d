"""Placement policies and the co-scheduling :class:`Cluster`.

Placement is node-exclusive and node-granular, like a production batch
scheduler: each job is handed whole nodes (a cluster machine's endpoints
are named ``n{i}.cpu0`` etc.; single-node machines degrade to one endpoint
per "node"), one rank per node while nodes last, wrapping onto successive
endpoints when a job has more ranks than nodes.  Policies differ in *which*
free nodes a job gets:

* ``packed`` — the first free nodes in natural order.  Consecutive nodes
  attach to the same routers, so a packed job's traffic stays in one corner
  of the fabric;
* ``scattered`` — free nodes interleaved by attachment router, so
  consecutive ranks land behind *different* routers and the job's traffic
  spreads over (and shares) the whole fabric;
* ``random`` — a deterministic keyed-hash shuffle of the free nodes; same
  seed, same placement, bit for bit.

The cluster tracks node ownership across submissions, so co-scheduled jobs
never share a node — interference happens on the fabric, where the
experiments can see it.
"""

from __future__ import annotations

import hashlib
from typing import Any

from repro.comm.job import Job, JobResult
from repro.faults.inject import injector_for
from repro.faults.plan import FaultPlan
from repro.machines.base import MachineModel
from repro.machines.registry import get_machine
from repro.net.congestion import CongestionConfig
from repro.net.fabric import Fabric
from repro.net.topology import node_of
from repro.obs.session import current as _obs_current
from repro.sim.engine import Simulator
from repro.sim.trace import NullTracer, Tracer
from repro.util.validation import check_count

__all__ = ["Cluster", "PLACEMENTS", "place_ranks"]

PLACEMENTS = ("packed", "scattered", "random")


def _attach_router(machine: MachineModel, node: str, eps: list[str]) -> str:
    """The fabric router/switch a node's NIC cables to (the node itself
    when nothing outside the node is adjacent)."""
    topo = machine.topology
    prefix = f"{node}."
    for ep in topo.endpoints:
        if not ep.startswith(prefix):
            continue
        for other in topo.neighbors(ep):
            if not other.startswith(prefix):
                return other
    return node


def _interleave_by_router(nodes: list[str], router: dict[str, str]) -> list[str]:
    """Round-robin nodes across their attachment routers, so consecutive
    picks land behind different routers."""
    buckets: dict[str, list[str]] = {}
    order: list[str] = []
    for node in nodes:
        r = router[node]
        if r not in buckets:
            buckets[r] = []
            order.append(r)
        buckets[r].append(node)
    out: list[str] = []
    while len(out) < len(nodes):
        for r in order:
            if buckets[r]:
                out.append(buckets[r].pop(0))
    return out


def _shuffled(nodes: list[str], seed: int, key: str) -> list[str]:
    def rank(node: str) -> bytes:
        return hashlib.blake2b(
            f"{seed}|{key}|{node}".encode(), digest_size=8
        ).digest()

    return sorted(nodes, key=rank)


class PlacementLedger:
    """Node ownership + per-endpoint slot usage across submissions."""

    def __init__(self, machine: MachineModel):
        self.machine = machine
        self.cap = 1 if machine.is_gpu_machine else machine.cores_per_endpoint
        self.node_eps: dict[str, list[str]] = {}
        for ep in machine.compute_endpoints:
            self.node_eps.setdefault(node_of(ep), []).append(ep)
        self.free_nodes: list[str] = list(self.node_eps)
        self.router = {
            node: _attach_router(machine, node, eps)
            for node, eps in self.node_eps.items()
        }
        self.used: dict[str, int] = {ep: 0 for ep in machine.compute_endpoints}
        self.drained: set[str] = set()

    def take(self, nodes: list[str]) -> None:
        self.free_nodes = [n for n in self.free_nodes if n not in nodes]

    def drain(self, node: str) -> None:
        """Remove a hard-failed node from service: it is neither free nor
        placeable again (recovery respawns ranks onto *other* nodes)."""
        if node not in self.node_eps:
            raise KeyError(f"unknown node {node!r} on {self.machine.name!r}")
        self.drained.add(node)
        self.free_nodes = [n for n in self.free_nodes if n != node]

    def spares(self) -> list[str]:
        """The nodes still free to host respawned ranks (natural order)."""
        return list(self.free_nodes)


def place_ranks(
    machine: MachineModel,
    nranks: int,
    policy: str,
    *,
    ledger: PlacementLedger | None = None,
    seed: int = 0,
    key: str = "",
    nodes: list[str] | None = None,
) -> list[str]:
    """Choose one hosting endpoint per rank under ``policy``.

    ``ledger`` carries node ownership and slot occupancy across successive
    placements (the cluster passes its own; omitting it places against a
    fresh, empty machine); ``seed``/``key`` feed the ``random`` hash.
    ``nodes`` pins the job to an explicit node list instead of the policy
    (resilience experiments pin victims to known routers; recovery
    respawns ranks onto chosen spares) — the nodes must exist and be free.
    """
    check_count("nranks", nranks)
    if policy not in PLACEMENTS:
        raise ValueError(f"unknown placement {policy!r}; valid: {PLACEMENTS}")
    if ledger is None:
        ledger = PlacementLedger(machine)
    free = ledger.free_nodes
    if nodes is not None:
        unknown = [n for n in nodes if n not in ledger.node_eps]
        if unknown:
            raise ValueError(
                f"unknown node(s) {unknown} on {machine.name!r}; "
                f"valid: {sorted(ledger.node_eps)}"
            )
        busy = [n for n in nodes if n not in free]
        if busy:
            raise ValueError(
                f"node(s) {busy} are not free on {machine.name!r}"
            )
        job_nodes = list(nodes)
    else:
        if not free:
            raise ValueError(
                f"cannot place {nranks} ranks: no free nodes remain on "
                f"{machine.name!r}"
            )
        if policy == "scattered":
            free = _interleave_by_router(free, ledger.router)
        elif policy == "random":
            free = _shuffled(free, seed, key)
        job_nodes = free[: min(nranks, len(free))]
    capacity = sum(ledger.cap * len(ledger.node_eps[n]) for n in job_nodes)
    if nranks > capacity:
        raise ValueError(
            f"cannot place {nranks} ranks: the {len(job_nodes)} free nodes "
            f"hold only {capacity} slots on {machine.name!r}"
        )
    ledger.take(job_nodes)
    chosen: list[str] = []
    while len(chosen) < nranks:
        for node in job_nodes:
            for ep in ledger.node_eps[node]:
                if ledger.used[ep] < ledger.cap:
                    chosen.append(ep)
                    ledger.used[ep] += 1
                    break
            if len(chosen) == nranks:
                break
    return chosen


class Cluster:
    """One shared simulator + fabric hosting several co-scheduled jobs."""

    def __init__(
        self,
        machine: str | MachineModel,
        *,
        routing: Any = None,
        congestion: CongestionConfig | None = None,
        seed: int = 0,
        faults: FaultPlan | None = None,
        placement: str = "packed",
    ):
        self.machine = get_machine(machine) if isinstance(machine, str) else machine
        self.seed = seed
        if placement not in PLACEMENTS:
            raise ValueError(f"unknown placement {placement!r}; valid: {PLACEMENTS}")
        self.placement = placement
        self.sim = Simulator()
        obs = _obs_current()
        self.obs = obs
        tracer: Tracer | NullTracer = (
            obs.tracer_for(f"cluster/{self.machine.name}")
            if obs is not None
            else NullTracer()
        )
        self.metrics = obs.metrics if obs is not None else None
        self.fault_injector = injector_for(faults)
        self.fabric = Fabric(
            self.sim,
            self.machine.topology,
            tracer,
            metrics=self.metrics,
            faults=self.fault_injector,
            routing=routing,
            congestion=congestion,
        )
        self._ledger = PlacementLedger(self.machine)
        self._jobs: list[tuple[str, Job, Any]] = []

    @property
    def ledger(self) -> PlacementLedger:
        """The cluster's node-ownership ledger (drain/spares live here)."""
        return self._ledger

    def submit(
        self,
        name: str,
        make_program: Any,
        *,
        nranks: int,
        runtime: str,
        placement: str | None = None,
        seed: int | None = None,
        nodes: list[str] | None = None,
    ) -> Job:
        """Place and register one job; its rank programs run at :meth:`run`.

        ``make_program(job)`` is called immediately with the placed
        :class:`~repro.comm.Job` (so it can allocate windows/channels) and
        must return the per-rank generator function ``program(ctx)``.
        ``placement`` defaults to the cluster's own policy; ``nodes`` pins
        the job to explicit free nodes instead.
        """
        if any(name == existing for existing, _j, _p in self._jobs):
            raise ValueError(f"duplicate job name {name!r}")
        endpoints = place_ranks(
            self.machine,
            nranks,
            self.placement if placement is None else placement,
            ledger=self._ledger,
            seed=self.seed if seed is None else seed,
            key=name,
            nodes=nodes,
        )
        job = Job(
            self.machine,
            nranks,
            runtime,
            sim=self.sim,
            fabric=self.fabric,
            endpoints=endpoints,
        )
        self._jobs.append((name, job, make_program(job)))
        return job

    def run(self, max_events: int | None = None) -> dict[str, JobResult]:
        """Launch every submitted job's ranks into the shared simulator,
        run to completion, and collect per-job results (keyed by name)."""
        if not self._jobs:
            raise ValueError("no jobs submitted")
        launched = [
            (name, job, job.launch(program)) for name, job, program in self._jobs
        ]
        done = self.sim.all_of([p for _n, _j, procs in launched for p in procs])
        self.sim.run(until=done, max_events=max_events)
        return {name: job.collect(procs) for name, job, procs in launched}
