"""Fig. 7 — effective per-message latency of the three workloads.

The paper's point: more messages per synchronization overlap the latency,
so the effective per-message cost ranks HashTable (1e6 msg/sync, smallest)
< Stencil (4 msg/sync) < SpTRSV (1 msg/sync, largest).  We measure the
three workloads' per-message latency on Perlmutter (GPU runtime, as in the
figure) and on the CPU and check the ordering.

Each (machine, workload) operating point is one sweep point evaluating
the analytic rounded model.
"""

from __future__ import annotations

from repro.experiments.report import ExperimentReport, index
from repro.machines.registry import get_machine
from repro.roofline import MessageRoofline
from repro.sweep import SweepSpec, run_sweep
from repro.transport import ONE_SIDED, SHMEM, get_backend

__all__ = ["run_fig07"]

_WORKLOAD_POINTS = {
    # workload -> (typical message bytes, msgs per sync)
    "sptrsv": (800.0, 1),
    "stencil": (float(2**14), 4),
    "hashtable": (8.0, 1_000_000),
}

_MACHINE_RUNTIMES = (
    ("perlmutter-gpu", SHMEM),
    ("perlmutter-cpu", ONE_SIDED),
)


def _point(params, seed):
    machine = get_machine(params["machine"])
    # Every workload point is priced as notified messages (4 ops each on
    # one-sided MPI), whatever its msgs/sync.
    roofline = MessageRoofline(
        get_backend(params["runtime"]).loggp(machine, "mailbox")
    )
    us = float(roofline.latency_per_message(params["size"], params["msgs"])) * 1e6
    return {"us_per_message": us}


def run_fig07() -> ExperimentReport:
    sweep = run_sweep(SweepSpec(
        name="fig07",
        runner=_point,
        points=[
            {"machine": mname, "runtime": runtime,
             "workload": wl, "size": B, "msgs": n}
            for mname, runtime in _MACHINE_RUNTIMES
            for wl, (B, n) in _WORKLOAD_POINTS.items()
        ],
    ))
    lat = {
        key: v["us_per_message"] for key, v in index(sweep, "workload", "machine").items()
    }
    headers = ["workload", "machine", "B (bytes)", "msg/sync", "us/message"]
    rows = [
        [wl, m, int(_WORKLOAD_POINTS[wl][0]), _WORKLOAD_POINTS[wl][1], us]
        for (wl, m), us in lat.items()
    ]

    expectations = {
        "hashtable latency < stencil latency (GPU)": (
            lat[("hashtable", "perlmutter-gpu")] < lat[("stencil", "perlmutter-gpu")]
        ),
        "stencil latency < sptrsv latency (GPU)": (
            lat[("stencil", "perlmutter-gpu")] < lat[("sptrsv", "perlmutter-gpu")]
        ),
        "same ordering on the CPU": (
            lat[("hashtable", "perlmutter-cpu")]
            < lat[("stencil", "perlmutter-cpu")]
            < lat[("sptrsv", "perlmutter-cpu")]
        ),
        "sptrsv (1 msg/sync) pays the full one-sided latency (>= 4 us GPU)": (
            lat[("sptrsv", "perlmutter-gpu")] >= 3.0
        ),
        "hashtable effective latency < 1 us": (
            lat[("hashtable", "perlmutter-gpu")] < 1.0
        ),
    }
    return ExperimentReport(
        experiment="fig07",
        title="Per-message latency vs messages per synchronization",
        headers=headers,
        rows=rows,
        expectations=expectations,
        notes=[
            "latencies are the analytic rounded-model T(n,B)/n at each "
            "workload's operating point; Fig. 7 plots the same quantity",
        ],
    )
