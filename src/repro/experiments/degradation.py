"""Graceful degradation under fabric faults — "robustness rooflines".

The paper's Message Roofline assumes a perfect fabric.  This experiment
asks the question the roofline cannot: *which runtime's sustained
bandwidth collapses first when links misbehave?*  Every workload runs
under a seed-reproducible :class:`repro.faults.FaultPlan` at increasing
loss rates (plus a latency-jitter mini-sweep for the flood), and the
report tracks each runtime's throughput relative to its own fault-free
baseline.

What the fault model predicts — and the expectations check:

* bandwidth is monotonically non-increasing in the loss rate (the
  hash-coupled loss draws guarantee a message lost at ``p1`` is also
  lost at every ``p2 >= p1``);
* the runtimes degrade *differently*: two-sided MPI retransmits off a
  fast sender-side ack timer inside the library, while one-sided MPI
  discovers a lost Put only at the synchronisation point
  (``detect_scale=4``) and re-syncs its window state every retry — so
  its curve falls off faster, inverting the paper's fault-free ranking;
* NVSHMEM's NIC-hardware retry (``detect_scale=0.5``) recovers fastest.

Loss/jitter draws are pure functions of ``(seed, link, message,
attempt)``, so rows are bit-identical across runs — CI diffs two
back-to-back executions.

Every point flows through the IR lowering path (the runners emit
:class:`repro.ir.IRProgram` values into :func:`repro.ir.run_program`),
but the non-clean fault plan forces the empty scalar/no-elide pipeline
regardless of any ambient :func:`repro.ir.passes` scope: loss/jitter
draws are per-message, so a rewrite that changes message counts would
change the fault stream — the exact reason a fabric under faults is not
``Fabric.replayable`` and batches stay on the scalar engine.  The forced
fallback is noted in each program's :class:`repro.ir.IRReport`.
"""

from __future__ import annotations

from repro.experiments.points import run_point
from repro.experiments.report import ExperimentReport
from repro.sweep import SweepSpec, run_sweep
from repro.transport import ONE_SIDED, SHMEM, TWO_SIDED

__all__ = ["run_degradation", "LOSS_RATES", "JITTERS"]

LOSS_RATES = (0.0, 0.02, 0.08, 0.2)
JITTERS = (0.0, 2e-6, 8e-6)  # seconds of max extra per-traversal latency
_SEED = 11

# Two-sided / one-sided MPI are CPU runtimes; NVSHMEM needs a GPU machine.
_CASES = (
    ("perlmutter-cpu", TWO_SIDED),
    ("perlmutter-cpu", ONE_SIDED),
    ("perlmutter-gpu", SHMEM),
)

# Workload -> (its arguments beyond machine and runtime, the value its
# metric reads).  For the flood the metric is bandwidth (higher = better,
# rel <= 1); for stencil/hashtable it is run time (lower = better, rel >= 1).
_WORKLOADS = {
    "flood": ({"size": 65536, "msgs": 64, "iters": 2}, "bandwidth"),
    "stencil": ({"nx": 2048, "iters": 3, "P": 4}, "time"),
    "hashtable": ({"total_inserts": 2000, "seed": 5, "P": 4}, "time"),
}


def run_degradation() -> ExperimentReport:
    # (workload, machine, runtime, loss, jitter); jitter 0.0 is the
    # loss-sweep baseline, so the flood's jitter mini-sweep starts past it.
    cells = [
        (w, m, rt, loss, 0.0)
        for w in _WORKLOADS
        for m, rt in _CASES
        for loss in LOSS_RATES
    ]
    cells += [("flood", m, rt, 0.0, jitter) for m, rt in _CASES for jitter in JITTERS[1:]]
    sweep = run_sweep(SweepSpec(
        name="degradation",
        runner=run_point,
        points=[
            {"workload": w, **_WORKLOADS[w][0], "machine": m, "runtime": rt,
             "faults": {"loss": loss, "jitter": jitter, "seed": _SEED}}
            for w, m, rt, loss, jitter in cells
        ],
    ))
    values = {
        (w, rt, loss, jitter): {**r.value, "metric": r.value[_WORKLOADS[w][1]]}
        for (w, _m, rt, loss, jitter), r in zip(cells, sweep)
    }

    headers = [
        "workload", "machine", "runtime", "loss", "jitter (us)",
        "metric", "rel. to clean", "drops", "retransmits",
    ]
    rows = []
    rel: dict[tuple, float] = {}
    for w in ("flood", "stencil", "hashtable"):
        for m, rt in _CASES:
            base = values[(w, rt, 0.0, 0.0)]["metric"]
            jitters = JITTERS if w == "flood" else (0.0,)
            grid = [(loss, 0.0) for loss in LOSS_RATES] + [
                (0.0, j) for j in jitters[1:]
            ]
            for loss, jitter in grid:
                v = values[(w, rt, loss, jitter)]
                r = v["metric"] / base if base else float("nan")
                rel[(w, rt, loss, jitter)] = r
                metric = (
                    f"{v['metric'] / 1e9:.3f} GB/s"
                    if w == "flood"
                    else f"{v['metric'] * 1e3:.4f} ms"
                )
                rows.append(
                    [
                        w, m, rt, loss, jitter * 1e6, metric,
                        round(r, 4), int(v["drops"]), int(v["retransmits"]),
                    ]
                )

    expectations: dict[str, bool] = {}
    max_loss = LOSS_RATES[-1]
    for _m, rt in _CASES:
        bws = [values[("flood", rt, loss, 0.0)]["metric"] for loss in LOSS_RATES]
        expectations[f"flood/{rt}: bandwidth non-increasing in loss"] = all(
            bws[i] >= bws[i + 1] for i in range(len(bws) - 1)
        )
        expectations[f"flood/{rt}: jitter only slows the flood"] = (
            values[("flood", rt, 0.0, JITTERS[-1])]["metric"]
            <= values[("flood", rt, 0.0, 0.0)]["metric"]
        )
        for w in ("stencil", "hashtable"):
            expectations[f"{w}/{rt}: loss extends the run"] = (
                values[(w, rt, max_loss, 0.0)]["metric"]
                >= values[(w, rt, 0.0, 0.0)]["metric"]
            )
    expectations[
        "one-sided collapses before two-sided (slow detection + re-sync)"
    ] = (
        rel[("flood", ONE_SIDED, max_loss, 0.0)]
        < rel[("flood", TWO_SIDED, max_loss, 0.0)]
    )
    expectations["shmem hardware retry degrades least at max loss"] = rel[
        ("flood", SHMEM, max_loss, 0.0)
    ] == max(rel[("flood", rt, max_loss, 0.0)] for _m, rt in _CASES)

    notes = [
        f"FaultPlan.uniform(seed={_SEED}); retransmit: 20 us base timeout, "
        "2x backoff, 8 retries",
        "fault semantics: two_sided abort@1x detect; one_sided surface@4x "
        "detect + re-sync RTT per retry; shmem surface@0.5x detect (NIC "
        "hardware retry)",
        "rel. to clean: bandwidth ratio for the flood (<= 1), run-time "
        "ratio for stencil/hashtable (>= 1)",
    ]
    return ExperimentReport(
        experiment="degradation",
        title="Graceful degradation under link loss and jitter",
        headers=headers,
        rows=rows,
        expectations=expectations,
        notes=notes,
    )
