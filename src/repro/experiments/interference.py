"""Multi-tenant interference: a victim's tail latency under a bully flood.

The paper measures contention *inside* a node (the Summit 42-CPU SpTRSV
collapse); production fabrics add a second contention regime the paper's
single-job runs cannot see: traffic from *other tenants* queueing on shared
routers.  This experiment co-schedules a latency-probe victim (small
put+flush round trips) with a bandwidth bully (large put floods) on one
dragonfly cluster through :class:`repro.cluster.Cluster`, and sweeps the
co-placement policy x the fabric routing policy:

* ``packed`` placement gives each job a contiguous corner of the fabric —
  the bully's flood never touches the victim's links and the victim's tail
  stays at its isolation value;
* ``scattered`` placement interleaves both jobs across routers — the
  bully's flows cross the victim's routers and its p99/p999 explode;
* ``adaptive`` (UGAL) routing lets flows detour around the queued links at
  decision time, recovering part (not all) of the scattered-placement gap —
  the Slingshot behaviour RAMC reports at scale.

Tail latencies are exact nearest-rank quantiles over the victim's per-op
samples (the same samples feed the ``cluster.victim.latency_seconds`` obs
histogram, whose interpolated ``quantile()`` surfaces in ``repro run
--metrics``).  Placement, routing, and congestion control are all pure
functions of the seed and the simulation clock, so every row is
bit-identical across runs — CI diffs two back-to-back executions.
"""

from __future__ import annotations

from repro.cluster import Cluster, attach_bully, attach_victim, sample_quantile
from repro.experiments.report import ExperimentReport, index
from repro.net.congestion import CongestionConfig
from repro.sweep import SweepSpec, run_sweep

__all__ = ["run_interference", "PLACEMENTS", "ROUTINGS"]

_MACHINE = "perlmutter-cpu-x8@dragonfly(4,2,2)"
_SEED = 7
PLACEMENTS = ("packed", "scattered", "random")
ROUTINGS = ("minimal", "adaptive")

_VICTIM_MSGS = 200
_BULLY_RANKS = 6
_BULLY_MSGS = 60


def _point(params, seed):
    samples: list[float] = []
    cluster = Cluster(
        params["machine"],
        routing=params["routing"],
        congestion=CongestionConfig() if params["congestion"] else None,
        seed=params["seed"],
    )
    cluster.submit(
        "victim",
        attach_victim(samples, nmsgs=_VICTIM_MSGS),
        nranks=2,
        runtime="one_sided",
        placement=params["placement"],
    )
    if params["bully"]:
        cluster.submit(
            "bully",
            attach_bully(nmsgs=_BULLY_MSGS),
            nranks=_BULLY_RANKS,
            runtime="one_sided",
            placement=params["placement"],
        )
    cluster.run()
    cc = cluster.fabric.cc
    return {
        "p50": sample_quantile(samples, 0.50),
        "p99": sample_quantile(samples, 0.99),
        "p999": sample_quantile(samples, 0.999),
        "marks": cc.marks if cc is not None else 0,
        "backoffs": cc.backoffs if cc is not None else 0,
    }


def run_interference() -> ExperimentReport:
    values = index(run_sweep(SweepSpec(
        name="interference",
        runner=_point,
        points=[
            {"placement": placement, "routing": "minimal", "bully": False}
            for placement in PLACEMENTS
        ] + [
            {"placement": placement, "routing": routing, "bully": True}
            for placement in PLACEMENTS
            for routing in ROUTINGS
        ],
        common={"machine": _MACHINE, "congestion": True, "seed": _SEED},
    )), "placement", "routing", "bully")

    headers = [
        "placement", "routing", "bully",
        "p50 (us)", "p99 (us)", "p999 (us)", "x isolation p99",
        "cc marks", "cc backoffs",
    ]
    rows = []
    for placement in PLACEMENTS:
        iso = values[(placement, "minimal", False)]
        for routing, bully in [("minimal", False)] + [
            (rt, True) for rt in ROUTINGS
        ]:
            v = values[(placement, routing, bully)]
            rows.append(
                [
                    placement,
                    routing,
                    "yes" if bully else "no",
                    round(v["p50"] * 1e6, 3),
                    round(v["p99"] * 1e6, 3),
                    round(v["p999"] * 1e6, 3),
                    round(v["p99"] / iso["p99"], 3) if iso["p99"] else "",
                    int(v["marks"]),
                    int(v["backoffs"]),
                ]
            )

    sc_iso = values[("scattered", "minimal", False)]["p99"]
    sc_min = values[("scattered", "minimal", True)]["p99"]
    sc_ada = values[("scattered", "adaptive", True)]["p99"]
    pk_iso = values[("packed", "minimal", False)]["p99"]
    pk_min = values[("packed", "minimal", True)]["p99"]
    expectations = {
        "bully strictly degrades the victim's p99 (scattered, minimal)": (
            sc_min > sc_iso
        ),
        "adaptive routing recovers part of the bully gap": (
            sc_iso <= sc_ada < sc_min
        ),
        "scattered placement degrades the victim more than packed": (
            sc_min - sc_iso > pk_min - pk_iso
        ),
        "packed placement isolates the victim from the bully": (
            pk_min <= 1.05 * pk_iso
        ),
        "congestion control engages under the flood": (
            values[("scattered", "minimal", True)]["marks"] > 0
        ),
    }

    notes = [
        f"machine {_MACHINE}: 8 dual-socket nodes on a 4-group dragonfly, "
        "node-exclusive placement",
        f"victim: 2 ranks, {_VICTIM_MSGS} timed 8 B put+flush round trips; "
        f"bully: {_BULLY_RANKS} ranks x {_BULLY_MSGS} x 64 KiB put flood",
        "quantiles are exact nearest-rank over the victim's samples; "
        "histogram-interpolated tails surface via repro run --metrics",
        f"ECN congestion control always on (threshold 2 us); seed {_SEED} — "
        "rows are bit-identical across runs",
    ]
    return ExperimentReport(
        experiment="interference",
        title="Victim tail latency under multi-tenant bully traffic",
        headers=headers,
        rows=rows,
        expectations=expectations,
        notes=notes,
    )
