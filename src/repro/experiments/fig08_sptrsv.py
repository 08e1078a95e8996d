"""Fig. 8 — SpTRSV time on CPUs and GPUs, two-sided vs one-sided.

Paper observations reproduced and checked:

* unlike the stencil, **one-sided SpTRSV is slower than two-sided** on CPUs
  — each message needs four MPI ops (plus user-built receiver
  notification) against two, and nothing amortises it at 1 msg/sync;
* one-sided stops scaling at high parallelism: every expected message adds
  a slot to the receiver's Listing-1 polling mask, so the per-wake scan
  grows with P;
* SpTRSV scales on Perlmutter GPUs (NVLink3: lower latency, 2x bandwidth)
  but not on Summit GPUs — at 4 GPUs Perlmutter is ~3.7x faster;
* Summit CPUs scale to 32 ranks, then contention degrades 42.

Each (machine, runtime, P) case is a sweep point; the synthetic matrix is
regenerated inside the point runner from its (deterministic) spec, so
points are independent and parallelise freely.
"""

from __future__ import annotations

from repro.experiments.points import run_point, sptrsv_matrix
from repro.experiments.report import ExperimentReport, index
from repro.sweep import SweepSpec, run_sweep
from repro.transport import TWO_SIDED, ONE_SIDED, SHMEM

__all__ = ["run_fig08"]

_CASES = (
    *[("perlmutter-cpu", runtime, P)
      for P in (1, 4, 16, 32) for runtime in (TWO_SIDED, ONE_SIDED)],
    *[("summit-cpu", TWO_SIDED, P) for P in (4, 16, 32, 42)],
    *[("perlmutter-gpu", SHMEM, P) for P in (1, 2, 4)],
    *[("summit-gpu", SHMEM, P) for P in (1, 2, 4, 6)],
)


def run_fig08(*, n_supernodes: int = 220, seed: int = 2) -> ExperimentReport:
    sweep = run_sweep(SweepSpec(
        name="fig08",
        runner=run_point,
        points=[{"machine": m, "runtime": runtime, "P": P} for m, runtime, P in _CASES],
        common={"workload": "sptrsv", "n_supernodes": n_supernodes, "seed": seed},
    ))
    t = {key: v["time"] for key, v in index(sweep, "machine", "runtime", "P").items()}
    headers = ["machine", "variant", "P", "time (ms)"]
    rows = [[*key, time * 1e3] for key, time in t.items()]

    ratio_4gpu = t[("summit-gpu", SHMEM, 4)] / t[("perlmutter-gpu", SHMEM, 4)]
    expectations = {
        "CPU: one-sided slower than two-sided (P=4)": (
            t[("perlmutter-cpu", ONE_SIDED, 4)]
            > t[("perlmutter-cpu", TWO_SIDED, 4)]
        ),
        "CPU: one-sided slower than two-sided (P=32)": (
            t[("perlmutter-cpu", ONE_SIDED, 32)]
            > t[("perlmutter-cpu", TWO_SIDED, 32)]
        ),
        "perlmutter GPUs scale 1 -> 4": (
            t[("perlmutter-gpu", SHMEM, 4)] < t[("perlmutter-gpu", SHMEM, 1)]
        ),
        "perlmutter GPUs faster than summit GPUs at 4 GPUs": ratio_4gpu > 1.2,
        "single-GPU times roughly equal on the two machines": (
            0.5
            < t[("summit-gpu", SHMEM, 1)] / t[("perlmutter-gpu", SHMEM, 1)]
            < 2.0
        ),
        "summit GPUs do not scale 4 -> 6": (
            t[("summit-gpu", SHMEM, 6)] > t[("summit-gpu", SHMEM, 4)] * 0.85
        ),
        "summit CPU stops scaling past 32 ranks": (
            t[("summit-cpu", TWO_SIDED, 42)]
            > t[("summit-cpu", TWO_SIDED, 32)] * 0.93
        ),
    }
    # The points' matrix (memoised) stamps the title's size/nnz.
    matrix = sptrsv_matrix(n_supernodes, seed)
    return ExperimentReport(
        experiment="fig08",
        title="SpTRSV time (synthetic supernodal matrix, "
        f"n={matrix.n}, nnz={matrix.nnz})",
        headers=headers,
        rows=rows,
        expectations=expectations,
        notes=[
            "paper matrix: 126K x 126K, 1e8 nnz (M3D-C1 via SuperLU_DIST); "
            "this synthetic matrix preserves the message-size distribution "
            f"(paper ratio at 4 GPUs: 3.7x; measured here: {ratio_4gpu:.1f}x)",
        ],
    )
