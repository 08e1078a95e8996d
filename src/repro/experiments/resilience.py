"""Fabric-scale failure domains: hard faults, failover, and recovery.

The paper measures one-sided transports on a *healthy* fabric; at
datacenter scale the fabric is never entirely healthy — Slingshot-class
networks lose routers and NICs routinely and survive through re-routing
plus job-level checkpoint/restart.  This experiment asks the follow-on
question on the reproduced stack: **when a router hard-fails mid-run,
what does each layer of the resilience story buy?**  Two sweeps on one
8-node dragonfly cluster:

* **victim** — a 2-rank latency probe pinned across the fabric
  (``n2 -> n6``) while router ``g1r0`` on its minimal path dies mid-run.
  Under minimal routing the probe's transfers retry
  into the dead link until the retry budget exhausts and the job dies
  with a :class:`~repro.faults.FaultError`; under
  :class:`~repro.net.FailoverRouting` the detector confirms the link
  dead after two drop detections, invalidates the path caches, and
  re-routes around the corpse — the job completes with a bounded p99
  inflation.  With no fault injected the failover rows are bit-identical
  to minimal (the policy fast-paths to the cached minimal routes).
* **train** — a 4-rank recoverable training job
  (:func:`~repro.cluster.run_recoverable_training`) while router
  ``g0r0`` dies mid-step-8.  Placement picks the blast radius (packed
  n0-n3 loses two ranks behind g0r0; scattered n0/n2/n4/n6 loses one);
  the checkpoint interval picks the replay bill — time-to-recovery
  grows monotonically in the interval, while with *no* failure the
  shorter intervals are pure overhead.  A second cascading failure
  (node ``n4``, the first respawn target) is also survived.

Everything is a pure function of (seed, clock): rows are bit-identical
across runs, and CI diffs two back-to-back executions.
"""

from __future__ import annotations

import math

from repro.cluster import (
    Cluster,
    RecoveryConfig,
    attach_victim,
    run_recoverable_training,
    sample_quantile,
)
from repro.experiments.report import ExperimentReport, index
from repro.faults import FaultError, FaultPlan, NodeFaults, RouterFaults
from repro.net import FailoverRouting
from repro.sweep import SweepSpec, run_sweep
from repro.workloads.ml import RecoverableTrainingSpec

__all__ = ["run_resilience"]

_MACHINE = "perlmutter-cpu-x8@dragonfly(4,2,2)"
_SEED = 7

_VICTIM_MSGS = 200
_VICTIM_NODES = ["n2", "n6"]  # minimal path crosses g0r0 and g1r0
_VICTIM_KILL = 150e-6  # router g1r0 dies mid-probe

_TRAIN_RANKS = 4
_TRAIN_KILL = 660e-6  # router g0r0 dies during step 8 (of 12)
_TRAIN_KILL2 = 1500e-6  # cascading: node n4 (first spare) dies too
_PACKED_NODES = ["n0", "n1", "n2", "n3"]  # all four behind g0r0/g0r1
_SCATTERED_NODES = ["n0", "n2", "n4", "n6"]  # one node per router


def _victim_point(params):
    samples: list[float] = []
    plan = None
    if params["fault"]:
        plan = FaultPlan(
            hard=(RouterFaults("g1r0", windows=((_VICTIM_KILL, math.inf),)),)
        )
    cluster = Cluster(
        params["machine"],
        routing=FailoverRouting() if params["routing"] == "failover" else None,
        seed=params["seed"],
        faults=plan,
    )
    cluster.submit(
        "victim",
        attach_victim(samples, nmsgs=_VICTIM_MSGS),
        nranks=2,
        runtime="one_sided",
        nodes=list(_VICTIM_NODES),
    )
    completed = True
    try:
        cluster.run()
    except FaultError:
        completed = False
    routing = cluster.fabric.routing
    stats = (
        routing.stats()
        if routing is not None and hasattr(routing, "stats")
        else {}
    )
    return {
        "completed": completed,
        "nmsgs": len(samples),
        "p50": sample_quantile(samples, 0.50) if samples else math.nan,
        "p99": sample_quantile(samples, 0.99) if samples else math.nan,
        "failovers": int(stats.get("failovers", 0)),
    }


def _train_point(params):
    hard = [RouterFaults("g0r0", windows=((_TRAIN_KILL, math.inf),))]
    if params["faults"] >= 2:
        hard.append(NodeFaults("n4", windows=((_TRAIN_KILL2, math.inf),)))
    plan = FaultPlan(hard=tuple(hard)) if params["faults"] else None
    cluster = Cluster(
        params["machine"],
        routing=FailoverRouting(),
        seed=params["seed"],
        faults=plan,
    )
    nodes = _PACKED_NODES if params["placement"] == "packed" else _SCATTERED_NODES
    result = run_recoverable_training(
        cluster,
        RecoverableTrainingSpec(),
        nranks=_TRAIN_RANKS,
        config=RecoveryConfig(
            checkpoint_interval=params["interval"],
            checkpoint_cost=params["ckpt_cost"],
        ),
        nodes=list(nodes),
    )
    return {
        "completed": result.completed,
        "failures": result.failures,
        "blast": result.blast_radius,
        "restarts": result.restarts,
        "replayed": result.replayed_steps,
        "recovery": result.recovery_seconds,
        "makespan": result.makespan,
    }


def _point(params, seed):
    if params["mode"] == "victim":
        return _victim_point(params)
    return _train_point(params)


def run_resilience() -> ExperimentReport:
    sweep = run_sweep(SweepSpec(
        name="resilience",
        runner=_point,
        points=[
            {"mode": "victim", "routing": routing, "fault": fault}
            for routing in ("minimal", "failover")
            for fault in (False, True)
        ] + [
            {"mode": "train", "placement": placement, "interval": interval,
             "ckpt_cost": ckpt_cost, "faults": faults}
            for placement, interval, ckpt_cost, faults in (
                # Blast radius + cascade: packed vs scattered, 1 vs 2 failures.
                ("packed", 2, 0.0, 1),
                ("scattered", 2, 0.0, 1),
                ("packed", 2, 0.0, 2),
                # Time-to-recovery vs checkpoint interval (cost 0 keeps the
                # failure landing at the same simulated instant for every
                # interval).
                ("packed", 1, 0.0, 1),
                ("packed", 4, 0.0, 1),
                # Checkpoint overhead with no failure: the insurance premium.
                ("packed", 1, 20e-6, 0),
                ("packed", 4, 20e-6, 0),
            )
        ],
        common={"machine": _MACHINE, "seed": _SEED},
    ))
    victims = index(
        [r for r in sweep if r.params["mode"] == "victim"], "routing", "fault"
    )
    trains = index(
        [r for r in sweep if r.params["mode"] == "train"],
        "placement", "interval", "ckpt_cost", "faults",
    )

    headers = [
        "job", "routing", "placement", "faults", "ckpt", "completed",
        "p99 (us)", "blast", "replayed", "recovery (us)", "makespan (us)",
    ]
    rows = []
    for (routing, fault), v in victims.items():
        rows.append(
            [
                "victim",
                routing,
                "pinned n2/n6",
                "g1r0" if fault else "none",
                "-",
                "yes" if v["completed"] else "NO",
                round(v["p99"] * 1e6, 4) if v["nmsgs"] else "-",
                "-",
                "-",
                "-",
                "-",
            ]
        )
    for key in sorted(trains, key=lambda k: (k[3], k[0], k[1], k[2])):
        placement, interval, cost, faults = key
        t = trains[key]
        fault_desc = {0: "none", 1: "g0r0", 2: "g0r0+n4"}[faults]
        rows.append(
            [
                "train",
                "failover",
                placement,
                fault_desc,
                f"k={interval}" + ("" if cost else " free"),
                "yes" if t["completed"] else "NO",
                "-",
                t["blast"],
                t["replayed"],
                round(t["recovery"] * 1e6, 3),
                round(t["makespan"] * 1e6, 3),
            ]
        )

    v_min_clean = victims[("minimal", False)]
    v_fo_clean = victims[("failover", False)]
    v_min_kill = victims[("minimal", True)]
    v_fo_kill = victims[("failover", True)]
    t_packed = trains[("packed", 2, 0.0, 1)]
    t_scattered = trains[("scattered", 2, 0.0, 1)]
    t_cascade = trains[("packed", 2, 0.0, 2)]
    rec = [trains[("packed", k, 0.0, 1)]["recovery"] for k in (1, 2, 4)]
    oh = [trains[("packed", k, 20e-6, 0)]["makespan"] for k in (1, 4)]
    expectations = {
        "a single router failure kills the victim under minimal routing": (
            not v_min_kill["completed"]
        ),
        "the same failure completes under failover routing": (
            v_fo_kill["completed"]
            and v_fo_kill["nmsgs"] == _VICTIM_MSGS
            and v_fo_kill["failovers"] >= 1
        ),
        "failover p99 inflation is bounded (<= 2x the no-fault tail)": (
            v_fo_kill["p99"] <= 2.0 * v_fo_clean["p99"]
        ),
        "zero-fault failover rows are bit-identical to minimal": (
            v_fo_clean == v_min_clean
        ),
        "packed placement doubles the blast radius of scattered": (
            t_packed["blast"] == 2 and t_scattered["blast"] == 1
        ),
        "every training job completes despite the failures": all(
            t["completed"] for t in trains.values()
        ),
        "time-to-recovery grows monotonically in the checkpoint interval": (
            rec[0] < rec[1] < rec[2]
        ),
        "with no failure, frequent checkpoints are pure overhead": (
            oh[0] > oh[1]
        ),
        "a cascading second failure is survived with more restarts": (
            t_cascade["failures"] == 2
            and t_cascade["restarts"] > t_packed["restarts"]
        ),
    }

    notes = [
        f"machine {_MACHINE}: 8 nodes, 2 per router, on a 4-group "
        "dragonfly; seed {0} — rows are bit-identical across runs".format(
            _SEED
        ),
        f"victim: 2 ranks pinned to n2/n6, {_VICTIM_MSGS} timed 8 B "
        f"put+flush round trips; router g1r0 (on the minimal path) dies "
        f"at {_VICTIM_KILL * 1e6:.0f} us",
        "train: 4 ranks x 12 steps of ring-allreduce DDP; router g0r0 "
        f"dies at {_TRAIN_KILL * 1e6:.0f} us (mid-step 8), killing every "
        "node behind it — recovery drains, respawns on spares, replays "
        "from the last checkpoint",
        "'k=N free' rows write zero-cost checkpoints every N steps so "
        "time-to-recovery isolates the replay bill; the faults=none rows "
        "price the same checkpoints at 20 us each",
    ]
    return ExperimentReport(
        experiment="resilience",
        title="Failure domains: failover routing and checkpoint/restart",
        headers=headers,
        rows=rows,
        expectations=expectations,
        notes=notes,
    )
