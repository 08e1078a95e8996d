"""Job runner: launch N rank programs on a machine and collect results.

A :class:`Job` owns the simulator, the fabric, and one context per rank.
Rank programs are generator functions ``program(ctx, *args)``; the job runs
them to completion and reports the virtual makespan plus per-rank
instrumentation::

    job = Job(perlmutter_cpu(), nranks=4, runtime="two_sided")
    result = job.run(my_program, some_arg)
    print(result.time, result.counters.msgs_per_sync())
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Callable
from functools import reduce
from typing import Any

import numpy as np

from repro.comm.base import OpCounter
from repro.comm.context import RankContext
from repro.comm.window import Window
from repro.faults.inject import injector_for
from repro.machines.base import MachineModel, Placement
from repro.net.fabric import Fabric
from repro.obs.session import current as _obs_current
from repro.obs.spans import SpanTracker
from repro.sim.engine import Simulator
from repro.sim.event import Event
from repro.sim.trace import NullTracer, Tracer
from repro.transport.registry import TransportBackend, get_backend
from repro.util.validation import check_count

__all__ = ["Job", "JobResult", "barrier_delay"]


def barrier_delay(machine: MachineModel, costs, endpoints: list[str]) -> float:
    """Per-rank cost of one dissemination barrier/allreduce release among
    ranks on ``endpoints`` (one entry per rank) under ``costs``:
    ``ceil(log2 P)`` rounds of small-message exchange over the worst route."""
    if len(endpoints) == 1:
        return 0.0
    rounds = math.ceil(math.log2(len(endpoints)))
    eps = sorted(set(endpoints))
    worst = max(machine.topology.route(a, b).latency for a in eps for b in eps)
    return rounds * (max(costs.isend, costs.put, costs.put_signal) + worst)


@dataclass
class JobResult:
    """Outcome of a job run."""

    time: float  # virtual makespan (seconds)
    results: list[Any]  # per-rank program return values
    per_rank: list[OpCounter]
    counters: OpCounter  # merged across ranks
    events_processed: int

    def gups(self, total_updates: int) -> float:
        """Giga-updates/s for ``total_updates`` completed in this run."""
        if self.time <= 0:
            raise ValueError("run time is zero; cannot compute GUPS")
        return total_updates / self.time / 1e9


class Job:
    """N simulated ranks on one machine under one runtime profile."""

    def __init__(
        self,
        machine: MachineModel,
        nranks: int,
        runtime: str | TransportBackend,
        *,
        placement: Placement = "block",
        sim: Simulator | None = None,
        fabric: Fabric | None = None,
        endpoints: list[str] | None = None,
    ):
        """``sim``/``fabric``/``endpoints`` support co-scheduling: a
        :class:`repro.cluster.Cluster` hands several jobs one shared
        simulator + fabric and pins each job's ranks to the endpoints its
        placement policy chose.  All three default to ``None``, which keeps
        the original single-job path — and its arithmetic — untouched.  A
        job-owned fabric takes the ambient fault plan
        (:func:`repro.faults.inject`).
        """
        check_count("nranks", nranks)
        if endpoints is None and nranks > machine.max_ranks:
            raise ValueError(
                f"{nranks} ranks exceed {machine.name!r} capacity {machine.max_ranks}"
            )
        if endpoints is not None and len(endpoints) != nranks:
            raise ValueError(
                f"endpoints list has {len(endpoints)} entries for {nranks} ranks"
            )
        self.machine = machine
        self.nranks = nranks
        # The backend registry supplies the context class, the cost
        # profile, and the channel factory (repro.transport).
        self.backend = (
            runtime if isinstance(runtime, TransportBackend) else get_backend(runtime)
        )
        self.runtime_name = self.backend.name
        self.costs = self.backend.costs(machine)
        self.placement = placement
        self.sim = sim if sim is not None else Simulator()
        # An ambient observation session (repro.obs.observe) supplies the
        # tracer, metrics registry and span tracker; outside one, the
        # zero-overhead defaults apply (NullTracer, no metrics).
        self.obs = _obs_current()
        self.tracer: Tracer = (
            self.obs.tracer_for(f"{machine.name}/{self.runtime_name}/P{nranks}")
            if self.obs is not None
            else NullTracer()
        )
        self.metrics = self.obs.metrics if self.obs is not None else None
        self.spans: SpanTracker = (
            self.obs.spans if self.obs is not None else SpanTracker()
        )
        self.fault_injector = injector_for(None, self.backend.fault_semantics)
        if fabric is not None:
            self.fabric = fabric
        else:
            self.fabric = Fabric(
                self.sim,
                machine.topology,
                self.tracer,
                metrics=self.metrics,
                faults=self.fault_injector,
            )
        if self.metrics is not None:
            self.metrics.register_collector(self._collect_comm_metrics)
        if endpoints is not None:
            for ep in endpoints:
                if not machine.topology.has_endpoint(ep):
                    raise KeyError(
                        f"endpoint {ep!r} not in machine {machine.name!r}"
                    )
            self.endpoints = list(endpoints)
            self.sharing = {
                ep: self.endpoints.count(ep) for ep in set(self.endpoints)
            }
        else:
            self.endpoints = [
                machine.endpoint_of_rank(r, nranks, placement) for r in range(nranks)
            ]
            self.sharing = machine.ranks_per_endpoint(nranks, placement)
        ctx_cls = self.backend.context_cls
        self.contexts: list[RankContext] = [
            ctx_cls(self, r) for r in range(nranks)
        ]
        self.windows: list[Window] = []
        # Rendezvous state: a barrier is the allreduce of nothing.
        self._barrier_delay = barrier_delay(machine, self.costs, self.endpoints)
        self._rendezvous: Event | None = None
        self._arrived = 0
        self._sum = 0.0

    # ------------------------------------------------------------------
    # topology helpers
    # ------------------------------------------------------------------

    def route_latency(self, a: int, b: int) -> float:
        """Wire latency between the endpoints hosting ranks ``a`` and ``b``."""
        return self.machine.topology.route(self.endpoints[a], self.endpoints[b]).latency

    def max_route_latency(self, rank: int) -> float:
        """Worst-case wire latency from ``rank`` to any other rank."""
        src = self.endpoints[rank]
        eps = set(self.endpoints)
        return max(self.machine.topology.route(src, dst).latency for dst in eps)

    # ------------------------------------------------------------------
    # collectives (rendezvous machinery used by the contexts)
    # ------------------------------------------------------------------

    def _arrive(self, value: float) -> Event:
        """Join the current rendezvous with ``value``; the returned event
        fires with the sum a barrier's charge after the last rank arrives."""
        if self._rendezvous is None:
            self._rendezvous = self.sim.event()
            self._sum = 0.0
        ev = self._rendezvous
        self._sum += value
        self._arrived += 1
        if self._arrived == self.nranks:
            ev.succeed(self._sum, delay=self._barrier_delay)
            self._arrived = 0
            self._rendezvous = None
        return ev

    # ------------------------------------------------------------------
    # windows
    # ------------------------------------------------------------------

    def window(self, count: int, dtype=np.float64, fill: Any = 0) -> Window:
        """Allocate a symmetric RMA window (``count`` elems per rank).

        Like ``MPI_Win_allocate`` this is logically collective; here it is
        performed before the run starts, at zero simulated cost.
        """
        win = Window(self, count, dtype=dtype, fill=fill)
        self.windows.append(win)
        return win

    def channel(self, spec: Any):
        """Open a transport channel for ``spec`` through this job's backend
        (see :mod:`repro.transport`).  Collective, zero simulated cost."""
        return self.backend.open(self, spec)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def run(
        self,
        program: Callable[..., Any],
        *args: Any,
        max_events: int | None = None,
        **kwargs: Any,
    ) -> JobResult:
        """Run ``program(ctx, *args, **kwargs)`` on every rank to completion.

        ``max_events`` caps the processed-event count as a livelock guard
        (see :meth:`repro.sim.Simulator.run`).
        """
        with self.spans.span(f"job:{self.machine.name}:{self.runtime_name}"):
            with self.spans.span("spawn"):
                procs = self.launch(program, *args, **kwargs)
                done = self.sim.all_of(procs)
            with self.spans.span("simulate"):
                self.sim.run(until=done, max_events=max_events)
            with self.spans.span("collect"):
                result = self.collect(procs)
        return result

    def launch(self, program: Callable[..., Any], *args: Any, **kwargs: Any) -> list:
        """Spawn one process per rank without driving the simulator.

        The co-scheduling entry point: :class:`repro.cluster.Cluster`
        launches several jobs' rank programs into one shared simulator,
        runs it once, then calls :meth:`collect` per job.
        """
        return [
            self.sim.process(program(ctx, *args, **kwargs), name=f"rank{ctx.rank}")
            for ctx in self.contexts
        ]

    def collect(self, procs: list) -> JobResult:
        """Gather per-rank results/counters after the simulator has run
        the processes returned by :meth:`launch` to completion."""
        results = [p.value for p in procs]
        per_rank = [ctx.counter for ctx in self.contexts]
        merged = reduce(OpCounter.merge, per_rank, OpCounter())
        return JobResult(
            time=self.sim.now,
            results=results,
            per_rank=per_rank,
            counters=merged,
            events_processed=self.sim.event_count,
        )

    def _collect_comm_metrics(self) -> dict[str, float]:
        """Snapshot-time per-runtime op counters (fed by the comm layers'
        :class:`OpCounter` bookkeeping and the ranks' path-choice counts;
        sum-merged across jobs)."""
        merged = reduce(
            OpCounter.merge, (ctx.counter for ctx in self.contexts), OpCounter()
        )
        prefix = f"comm.{self.runtime_name}"
        return {
            f"{prefix}.jobs": 1.0,
            f"{prefix}.messages": float(merged.messages),
            f"{prefix}.bytes_sent": merged.bytes_sent,
            f"{prefix}.operations": float(merged.operations),
            f"{prefix}.syncs": float(merged.syncs),
            f"{prefix}.atomics": float(merged.atomics),
            f"{prefix}.recv_messages": float(merged.recv_messages),
            f"{prefix}.bytes_received": merged.bytes_received,
            f"{prefix}.rendezvous": float(sum(ctx.rendezvous for ctx in self.contexts)),
            f"{prefix}.held": float(sum(ctx.held for ctx in self.contexts)),
        }
