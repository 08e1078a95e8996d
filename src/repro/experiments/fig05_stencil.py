"""Fig. 5 — stencil time on CPUs and GPUs, two-sided vs one-sided.

Paper observations reproduced and checked:

* on CPUs, two-sided and one-sided stencil perform **equally** — the
  computation is bandwidth-bound, so the one-sided latency advantage buys
  nothing (the paper quantifies it at ~20% lower latency, invisible here);
* GPUs beat CPUs through higher achieved bandwidth and in-kernel
  parallelism (the paper: ~30 GB/s vs ~20 GB/s and 80 blocks/GPU);
* stencil is insensitive to the Summit on-node GPU topology — it scales
  across both islands (BSP tolerates the dumbbell).

The (machine, runtime, P) cases form the sweep grid; each point runs one
stencil simulation.
"""

from __future__ import annotations

from repro.experiments.points import run_point
from repro.experiments.report import ExperimentReport, index
from repro.sweep import SweepSpec, run_sweep
from repro.transport import TWO_SIDED, ONE_SIDED, SHMEM

__all__ = ["run_fig05"]

_CPU_PS = (4, 16, 64, 128)

# (machine, runtime, P) in the figure's presentation order.  32 is the
# largest power-of-two rank count on Summit's 42 cores that divides the
# paper's 16384 grid evenly.  two_sided on the GPU machine is
# host-initiated CUDA-aware MPI: every halo exchange pays a device sync +
# host MPI + relaunch.
_CASES = (
    *[("perlmutter-cpu", runtime, P)
      for P in _CPU_PS for runtime in (TWO_SIDED, ONE_SIDED)],
    *[("summit-cpu", TWO_SIDED, P) for P in (16, 32)],
    *[("perlmutter-gpu", runtime, P)
      for P in (2, 4) for runtime in (SHMEM, TWO_SIDED)],
    *[("summit-gpu", SHMEM, P) for P in (2, 6)],
)


def run_fig05(*, nx: int = 16384, iters: int = 5) -> ExperimentReport:
    sweep = run_sweep(SweepSpec(
        name="fig05",
        runner=run_point,
        points=[{"machine": m, "runtime": runtime, "P": P} for m, runtime, P in _CASES],
        common={"workload": "stencil", "nx": nx, "iters": iters},
    ))
    table = index(sweep, "machine", "runtime", "P")
    headers = ["machine", "variant", "P", "time (ms)", "msg bytes"]
    rows = [[*key, v["time"] * 1e3, v["halo_max"]] for key, v in table.items()]
    t = {key: v["time"] for key, v in table.items()}

    two_vs_one = [
        t[("perlmutter-cpu", ONE_SIDED, P)] / t[("perlmutter-cpu", TWO_SIDED, P)]
        for P in _CPU_PS
    ]
    expectations = {
        "CPU: one-sided == two-sided (within 10%)": all(
            0.9 < r < 1.1 for r in two_vs_one
        ),
        "CPU stencil scales 4 -> 128 ranks": (
            t[("perlmutter-cpu", TWO_SIDED, 128)]
            < t[("perlmutter-cpu", TWO_SIDED, 4)]
        ),
        "GPU (4xA100) beats CPU (128 ranks)": (
            t[("perlmutter-gpu", SHMEM, 4)]
            < t[("perlmutter-cpu", TWO_SIDED, 128)]
        ),
        "stencil insensitive to Summit dumbbell (6 GPUs scale)": (
            t[("summit-gpu", SHMEM, 6)] < t[("summit-gpu", SHMEM, 2)]
        ),
        "GPU-initiated beats host-initiated two-sided on GPUs": (
            t[("perlmutter-gpu", SHMEM, 4)]
            <= t[("perlmutter-gpu", TWO_SIDED, 4)]
        ),
    }
    return ExperimentReport(
        experiment="fig05",
        title=f"Stencil time ({nx}x{nx} grid, {iters} iterations)",
        headers=headers,
        rows=rows,
        expectations=expectations,
        notes=[
            "paper runs 1000 iterations; scale with iters= for longer runs",
        ],
    )
