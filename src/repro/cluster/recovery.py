"""Checkpoint/restart recovery for training jobs on a failing fabric.

The fabric layer can now kill routers, nodes and NICs
(:class:`repro.faults.RouterFaults` et al.) and route around them
(:class:`repro.net.FailoverRouting`); this module adds the *job-level*
protocol that production ML schedulers run on top:

* **failure detection** — a transfer into a dead element surfaces as a
  :class:`~repro.faults.FaultError`; the job confirms the failure after
  ``detect_timeout`` (the ms-scale health-check consensus real
  schedulers pay before acting);
* **node drain** — every node behind the dead element is
  :meth:`drained <repro.cluster.scheduler.PlacementLedger.drain>` from
  the cluster ledger: it is neither free nor placeable again;
* **respawn on spares** — each lost rank is re-hosted on a spare node
  from the ledger (natural order, so the choice is deterministic),
  paying ``restart_cost``;
* **replay from the last checkpoint** — the job rolls its step counter
  back to the last checkpoint (written every ``checkpoint_interval``
  steps at ``checkpoint_cost`` each) and re-executes the lost steps.

The *placement policy decides the blast radius*: a packed job loses
every rank behind a dead router, a scattered job loses one.  Everything
is a pure function of the simulated history, so same-seed runs replay
bit-identically — ``experiments/resilience.py`` sweeps failure count x
placement x routing on exactly this runner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.faults.hard import elements_down_at
from repro.faults.plan import FaultError
from repro.net.topology import node_of
from repro.util.validation import check_count, check_in_range, check_non_negative
from repro.workloads.ml.training import RecoverableTrainingSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.scheduler import Cluster, PlacementLedger

__all__ = ["RecoveryConfig", "RecoveryResult", "run_recoverable_training"]


@dataclass(frozen=True)
class RecoveryConfig:
    """Knobs of the checkpoint/restart protocol."""

    checkpoint_interval: int = 4  # steps between checkpoints
    checkpoint_cost: float = 20e-6  # seconds to write one checkpoint
    detect_timeout: float = 100e-6  # failure-confirmation delay
    restart_cost: float = 500e-6  # respawn + rejoin per recovery event
    straggler_factor: float = 3.0  # step slower than this x baseline
    max_restarts: int = 4  # recovery events before giving up

    def __post_init__(self) -> None:
        check_count("checkpoint_interval", self.checkpoint_interval)
        for name in ("checkpoint_cost", "detect_timeout", "restart_cost"):
            check_non_negative(name, getattr(self, name))
        check_in_range("straggler_factor", self.straggler_factor, 1, math.inf)
        check_count("max_restarts", self.max_restarts, 0)


@dataclass
class RecoveryResult:
    """What one recoverable training run went through."""

    completed: bool = False
    steps_done: int = 0
    failures: int = 0  # recovery events (confirmed hard failures)
    restarts: int = 0  # ranks respawned, total
    blast_radius: int = 0  # max ranks lost in one failure event
    checkpoints: int = 0
    replayed_steps: int = 0  # completed steps lost and re-executed
    stragglers: int = 0  # steps slower than straggler_factor x baseline
    recovery_seconds: float = 0.0  # failure -> caught-back-up, summed
    makespan: float = 0.0
    nodes: list[str] = field(default_factory=list)  # final hosting nodes
    events: list[str] = field(default_factory=list)


def _dead_job_nodes(plan, ledger: "PlacementLedger", t: float) -> set[str]:
    """The nodes unusable at time ``t`` under the plan's hard faults:
    their own node/NIC died, or their attachment router did."""
    dead: set[str] = set()
    for hf in elements_down_at(plan, t):
        if hf.kind == "node":
            dead.add(hf.element)
        elif hf.kind == "nic":
            node = node_of(hf.element)
            if node != hf.element:
                dead.add(node)
        elif hf.kind == "router":
            for node, router in ledger.router.items():
                if router == hf.element:
                    dead.add(node)
    return dead


def run_recoverable_training(
    cluster: "Cluster",
    spec: RecoverableTrainingSpec | None = None,
    *,
    nranks: int,
    config: RecoveryConfig | None = None,
    placement: str | None = None,
    nodes: list[str] | None = None,
    name: str = "train",
) -> RecoveryResult:
    """Run one recoverable data-parallel training job to completion.

    Places ``nranks`` ranks through the cluster's ledger (``placement``
    defaults to the cluster's policy; ``nodes`` pins them), then drives
    ``spec.steps`` synchronous steps — per-rank compute plus a ring
    gradient exchange on the shared fabric — under the checkpoint/restart
    protocol of ``config``.  Owns the cluster's simulator run: call it on
    a cluster whose jobs you have not yet launched.

    A failure the fault plan cannot explain (no hard element is down when
    a transfer dies) is re-raised: soft-loss exhaustion is a fabric
    problem, not something respawning a node can fix.
    """
    from repro.cluster.scheduler import place_ranks

    spec = spec if spec is not None else RecoverableTrainingSpec()
    config = config if config is not None else RecoveryConfig()
    sim = cluster.sim
    fabric = cluster.fabric
    ledger = cluster.ledger
    result = RecoveryResult()
    endpoints = place_ranks(
        cluster.machine,
        nranks,
        cluster.placement if placement is None else placement,
        ledger=ledger,
        seed=cluster.seed,
        key=name,
        nodes=nodes,
    )
    plan = cluster.fault_injector.plan if cluster.fault_injector is not None else None
    shard = spec.shard_bytes(nranks)

    def _respawn(dead_nodes: list[str], now: float) -> bool:
        """Drain the dead nodes and re-host their ranks on spares.
        Returns False when the spare pool is too small."""
        for node in dead_nodes:
            ledger.drain(node)
        # Spares behind an element that is down right now would re-fail
        # immediately: the health checks that confirmed this failure
        # exclude them too.
        unusable = _dead_job_nodes(plan, ledger, now) if plan is not None else set()
        alive = {node_of(ep) for ep in endpoints} - set(dead_nodes)
        spares = [s for s in ledger.spares() if s not in alive and s not in unusable]
        if len(spares) < len(dead_nodes):
            result.events.append(
                f"t={now * 1e6:.1f}us: {len(dead_nodes)} node(s) lost, "
                f"only {len(spares)} spare(s) — giving up"
            )
            return False
        chosen = spares[: len(dead_nodes)]
        ledger.take(chosen)
        for dead, spare in zip(sorted(dead_nodes), chosen):
            for r, ep in enumerate(endpoints):
                if node_of(ep) != dead:
                    continue
                slot = ledger.node_eps[dead].index(ep)
                new_ep = ledger.node_eps[spare][slot]
                endpoints[r] = new_ep
                ledger.used[new_ep] += 1
                result.restarts += 1
        result.events.append(
            f"t={now * 1e6:.1f}us: drained {sorted(dead_nodes)}, "
            f"respawned on {chosen}"
        )
        return True

    def manager():
        step = 1
        last_ckpt = 0
        baseline = None
        open_recoveries: list[tuple[int, float]] = []  # (failed step, fail time)
        while step <= spec.steps:
            t0 = sim.now
            try:
                if spec.compute_seconds > 0:
                    yield float(spec.compute_seconds)
                # Ring allreduce: 2(n-1) neighbour-exchange phases, each
                # rank streaming its shard to the next rank.
                for _phase in range(2 * (nranks - 1)):
                    events = []
                    for r in range(nranks):
                        src, dst = endpoints[r], endpoints[(r + 1) % nranks]
                        if src == dst:
                            continue
                        d = fabric.transfer(src, dst, shard)
                        events.append(d.event)
                    if events:
                        yield sim.all_of(events)
            except FaultError:
                fail_time = sim.now
                # Confirm the failure (health-check consensus) before
                # acting; the hard windows are live by now.
                if config.detect_timeout > 0:
                    yield float(config.detect_timeout)
                dead = sorted(
                    _dead_job_nodes(plan, ledger, sim.now) if plan is not None else ()
                )
                dead = [d for d in dead if d in {node_of(ep) for ep in endpoints}]
                if not dead:
                    raise  # unexplained: not a hard element failure
                result.failures += 1
                lost_ranks = sum(1 for ep in endpoints if node_of(ep) in set(dead))
                result.blast_radius = max(result.blast_radius, lost_ranks)
                if result.failures > config.max_restarts or not _respawn(
                    dead, sim.now
                ):
                    result.steps_done = step - 1
                    return
                if config.restart_cost > 0:
                    yield float(config.restart_cost)
                result.replayed_steps += (step - 1) - last_ckpt
                open_recoveries.append((step, fail_time))
                step = last_ckpt + 1
                continue
            duration = sim.now - t0
            if baseline is None:
                baseline = duration
            elif duration > config.straggler_factor * baseline:
                result.stragglers += 1
            for failed_step, fail_time in list(open_recoveries):
                if step >= failed_step:
                    # Caught back up to where the failure struck.
                    result.recovery_seconds += sim.now - fail_time
                    open_recoveries.remove((failed_step, fail_time))
            if step % config.checkpoint_interval == 0 and step < spec.steps:
                if config.checkpoint_cost > 0:
                    yield float(config.checkpoint_cost)
                result.checkpoints += 1
                last_ckpt = step
            result.steps_done = step
            step += 1
        result.completed = True

    proc = sim.process(manager(), name=f"recovery/{name}")
    sim.run(until=proc)
    result.makespan = sim.now
    result.nodes = sorted({node_of(ep) for ep in endpoints})
    metrics = cluster.metrics
    if metrics is not None:
        metrics.counter("cluster.recovery.failures").inc(result.failures)
        metrics.counter("cluster.recovery.restarts").inc(result.restarts)
        metrics.counter("cluster.recovery.replayed_steps").inc(result.replayed_steps)
        metrics.counter("cluster.recovery.checkpoints").inc(result.checkpoints)
        metrics.counter("cluster.recovery.stragglers").inc(result.stragglers)
        metrics.counter("cluster.recovery.seconds").inc(result.recovery_seconds)
    return result
