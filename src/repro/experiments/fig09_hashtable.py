"""Fig. 9 — distributed hashtable time on CPUs and GPUs.

Paper observations reproduced and checked:

* one-sided (CAS) inserts beat two-sided triplet messages at high
  parallelism on Perlmutter CPUs (the paper measures 5x at 128 processes),
  but **lose at P=2** where one two-sided message (~1.1 us) is cheaper
  than a ~2 us CAS round trip;
* on Summit GPUs the benchmark stops scaling past one island: a
  cross-socket CAS costs ~1.6 us against ~1.0 us within the island, and
  cross-socket atomic throughput saturates the X-Bus;
* Perlmutter GPUs (0.8 us CAS, all-to-all NVLink3) keep scaling to 4 GPUs.

Each (machine, runtime, P) case is an independent sweep point.
"""

from __future__ import annotations

from repro.experiments.points import run_point
from repro.experiments.report import ExperimentReport, index
from repro.sweep import SweepSpec, run_sweep
from repro.transport import TWO_SIDED, ONE_SIDED, SHMEM

__all__ = ["run_fig09"]

_CASES = (
    *[("perlmutter-cpu", runtime, P)
      for P in (2, 8, 32, 128) for runtime in (ONE_SIDED, TWO_SIDED)],
    *[("perlmutter-gpu", SHMEM, P) for P in (1, 2, 4)],
    *[("summit-gpu", SHMEM, P) for P in (1, 3, 4, 6)],
)


def run_fig09(*, total_inserts: int = 8000, seed: int = 5) -> ExperimentReport:
    sweep = run_sweep(SweepSpec(
        name="fig09",
        runner=run_point,
        points=[{"machine": m, "runtime": runtime, "P": P} for m, runtime, P in _CASES],
        common={"workload": "hashtable", "total_inserts": total_inserts, "seed": seed},
    ))
    table = index(sweep, "machine", "runtime", "P")
    headers = ["machine", "variant", "P", "time (ms)", "KUPS"]
    rows = [[*key, v["time"] * 1e3, v["gups"] * 1e6] for key, v in table.items()]
    t = {key: v["time"] for key, v in table.items()}

    speedup_128 = (
        t[("perlmutter-cpu", TWO_SIDED, 128)]
        / t[("perlmutter-cpu", ONE_SIDED, 128)]
    )
    expectations = {
        "one-sided slower than two-sided at P=2": (
            t[("perlmutter-cpu", ONE_SIDED, 2)]
            > t[("perlmutter-cpu", TWO_SIDED, 2)]
        ),
        "one-sided faster at P=128 (paper: 5x)": speedup_128 > 1.5,
        "one-sided advantage grows with P": (
            speedup_128
            > t[("perlmutter-cpu", TWO_SIDED, 8)]
            / t[("perlmutter-cpu", ONE_SIDED, 8)]
        ),
        "perlmutter GPUs scale 1 -> 4": (
            t[("perlmutter-gpu", SHMEM, 4)] < t[("perlmutter-gpu", SHMEM, 1)]
        ),
        "summit GPUs stop scaling past the island (4 >= ~3)": (
            t[("summit-gpu", SHMEM, 4)] > t[("summit-gpu", SHMEM, 3)] * 0.9
        ),
        "summit GPUs scale within the island (3 < 1)": (
            t[("summit-gpu", SHMEM, 3)] < t[("summit-gpu", SHMEM, 1)]
        ),
    }
    return ExperimentReport(
        experiment="fig09",
        title=f"Distributed hashtable time ({total_inserts} inserts)",
        headers=headers,
        rows=rows,
        expectations=expectations,
        notes=[
            f"one-sided speedup at P=128: {speedup_128:.1f}x (paper: 5x; "
            "scaled insert count and the owner-routed two-sided variant — "
            "see EXPERIMENTS.md for the deviation discussion)",
            "paper: 1e6 inserts; pass total_inserts=1_000_000 to match",
        ],
    )
