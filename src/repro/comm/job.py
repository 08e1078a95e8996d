"""Job runner: launch N rank programs on a machine and collect results.

A :class:`Job` owns the simulator, the fabric, and one context per rank.
Rank programs are generator functions ``program(ctx, *args)``; the job runs
them to completion and reports the virtual makespan plus per-rank
instrumentation::

    job = Job(perlmutter_cpu(), nranks=4, runtime="two_sided")
    result = job.run(my_program, some_arg)
    print(result.time, result.counters.msg_per_sync())
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
from repro.faults.plan import FaultPlan
from repro.machines.base import MachineModel, Placement
from repro.net.fabric import Fabric
from repro.obs.session import current as _obs_current
from repro.obs.spans import SpanTracker
from repro.sim.engine import Simulator
from repro.sim.event import Event
from repro.sim.trace import NullTracer, Tracer
from repro.transport.registry import TransportBackend, get_backend

__all__ = ["Job", "JobResult"]


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
        trace: bool = False,
        faults: FaultPlan | None = None,
        sim: Simulator | None = None,
        fabric: Fabric | None = None,
        endpoints: list[str] | None = None,
        routing: Any = None,
        congestion: Any = None,
    ):
        """``sim``/``fabric``/``endpoints`` support co-scheduling: a
        :class:`repro.cluster.Cluster` hands several jobs one shared
        simulator + fabric and pins each job's ranks to the endpoints its
        placement policy chose.  ``routing``/``congestion`` configure a
        job-owned fabric (ignored when ``fabric`` is passed); all five
        default to ``None``, which keeps the original single-job path —
        and its arithmetic — untouched.
        """
        if nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {nranks}")
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
        # The backend registry supplies the context class, the cost-profile
        # key, and the channel factory (repro.transport).
        self.backend = (
            runtime if isinstance(runtime, TransportBackend) else get_backend(runtime)
        )
        self.runtime_name = self.backend.name
        self.costs = machine.runtime(self.backend.resolve_costs_key())
        self.placement = placement
        self.sim = sim if sim is not None else Simulator()
        # An ambient observation session (repro.obs.observe) supplies the
        # tracer, metrics registry and span tracker; outside one, the
        # zero-overhead defaults apply (NullTracer, no metrics).
        self.obs = _obs_current()
        if trace:
            self.tracer: Tracer = Tracer()
        elif self.obs is not None:
            self.tracer = self.obs.tracer_for(
                f"{machine.name}/{self.runtime_name}/P{nranks}"
            )
        else:
            self.tracer = NullTracer()
        self.metrics = self.obs.metrics if self.obs is not None else None
        self.spans: SpanTracker = (
            self.obs.spans if self.obs is not None else SpanTracker()
        )
        self.fault_injector = injector_for(faults, self.backend.fault_semantics)
        if fabric is not None:
            self.fabric = fabric
        else:
            self.fabric = Fabric(
                self.sim,
                machine.topology,
                self.tracer,
                metrics=self.metrics,
                faults=self.fault_injector,
                routing=routing,
                congestion=congestion,
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
        # Barrier state.
        self._barrier_gen = 0
        self._barrier_count = 0
        self._barrier_event: Event | None = None
        self._barrier_delay = self._collective_delay()
        # Allreduce state.
        self._allreduce_count = 0
        self._allreduce_event: Event | None = None
        self._allreduce_acc = 0.0

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

    def _collective_delay(self) -> float:
        """Per-rank cost of one dissemination barrier/allreduce release:
        ``ceil(log2 P)`` rounds of small-message exchange."""
        if self.nranks == 1:
            return 0.0
        rounds = math.ceil(math.log2(self.nranks))
        eps = sorted(set(self.endpoints))
        worst = max(
            self.machine.topology.route(a, b).latency for a in eps for b in eps
        )
        per_round = (
            max(self.costs.isend, self.costs.put, self.costs.put_signal) + worst
        )
        return rounds * per_round

    # ------------------------------------------------------------------
    # collectives (rendezvous machinery used by the contexts)
    # ------------------------------------------------------------------

    def _barrier_arrive(self) -> tuple[Event, float]:
        if self._barrier_event is None:
            self._barrier_event = self.sim.event()
        ev = self._barrier_event
        self._barrier_count += 1
        if self._barrier_count == self.nranks:
            ev.succeed(self._barrier_gen)
            self._barrier_gen += 1
            self._barrier_count = 0
            self._barrier_event = None
        return ev, self._barrier_delay

    def _allreduce_arrive(self, rank: int, value: float):
        if self._allreduce_event is None:
            self._allreduce_event = self.sim.event()
            self._allreduce_acc = 0.0
        ev = self._allreduce_event
        self._allreduce_acc += value
        self._allreduce_count += 1
        if self._allreduce_count == self.nranks:
            ev.succeed(self._allreduce_acc)
            self._allreduce_count = 0
            self._allreduce_event = None
        return ev, self._barrier_delay, ev

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
        :class:`OpCounter` bookkeeping; sum-merged across jobs)."""
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
        }
