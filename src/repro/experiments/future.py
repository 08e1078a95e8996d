"""Future-work projection (paper §V): Frontier GPUs under ROC_SHMEM.

The paper excluded Frontier's MI250X GPUs because ROC_SHMEM lacked
``wait_until_any`` and names extending the Message Roofline to AMD GPUs as
future work.  This experiment runs that projection: the ``frontier-gpu``
registry projection models ROC_SHMEM with the wait *emulated in software*
(a device polling loop, the same cost structure as the paper's Listing 1),
and the three workloads are compared against Perlmutter's A100s.

Projected findings (checked as expectations):

* bandwidth-bound stencil ports fine — the fabric, not the wait primitive,
  decides it;
* SpTRSV — the workload the paper says *needs* ``wait_until_any`` — pays
  heavily for the emulated wait, landing between Perlmutter (native wait)
  and not scaling at all;
* the hashtable is wait-free (pure atomics), so it is insensitive to the
  missing primitive.

Each (machine, P, workload) cell is one sweep point; the SpTRSV matrix is
regenerated deterministically inside the runner.
"""

from __future__ import annotations

from repro.experiments.points import run_point
from repro.experiments.report import ExperimentReport, index
from repro.sweep import SweepSpec, run_sweep
from repro.transport import SHMEM

__all__ = ["run_future_frontier"]

# Registry name -> display label ("*" marks the projection).
_MACHINES = (
    ("perlmutter-gpu", "perlmutter-gpu"),
    ("frontier-gpu", "frontier-gpu*"),
)


# Workload -> its arguments beyond machine, runtime and P.
_WORKLOADS = {
    "stencil": {"nx": 8192, "iters": 5},
    "sptrsv": {"n_supernodes": 160, "seed": 6},
    "hashtable": {"total_inserts": 4000, "seed": 6},
}


def run_future_frontier() -> ExperimentReport:
    sweep = run_sweep(SweepSpec(
        name="future_frontier",
        runner=run_point,
        points=[
            {"machine": mname, "label": label, "P": P, "workload": wl, **args}
            for mname, label in _MACHINES
            for P in (1, 4)
            for wl, args in _WORKLOADS.items()
        ],
        common={"runtime": SHMEM},
    ))
    t = {key: v["time"] for key, v in index(sweep, "workload", "label", "P").items()}
    headers = ["workload", "machine", "P", "time (ms)"]
    rows = [[*key, time * 1e3] for key, time in t.items()]

    sptrsv_pm = t[("sptrsv", "perlmutter-gpu", 4)]
    sptrsv_fr = t[("sptrsv", "frontier-gpu*", 4)]
    expectations = {
        "stencil ports cleanly (within 2x of A100)": (
            t[("stencil", "frontier-gpu*", 4)]
            < 2 * t[("stencil", "perlmutter-gpu", 4)]
        ),
        "stencil still scales 1 -> 4 on Frontier": (
            t[("stencil", "frontier-gpu*", 4)]
            < t[("stencil", "frontier-gpu*", 1)]
        ),
        "emulated wait costs SpTRSV >25% vs native wait": (
            sptrsv_fr > 1.25 * sptrsv_pm
        ),
        "hashtable insensitive to the missing primitive (within 2x)": (
            t[("hashtable", "frontier-gpu*", 4)]
            < 2 * t[("hashtable", "perlmutter-gpu", 4)]
        ),
    }
    return ExperimentReport(
        experiment="future_frontier",
        title="PROJECTION: Frontier MI250X under ROC_SHMEM with emulated "
        "signal waiting (paper §V future work)",
        headers=headers,
        rows=rows,
        expectations=expectations,
        notes=[
            "frontier-gpu* is a projection, not a paper result: link rates "
            "from public MI250X specs, ROC_SHMEM wait_until_any emulated in "
            "software (see DESIGN.md)",
            "SpTRSV at 4 GPUs: Frontier projection "
            f"{sptrsv_fr / sptrsv_pm:.2f}x slower than A100+NVSHMEM — the "
            "quantitative case for adding the wait primitive to ROC_SHMEM",
        ],
    )
