"""Inter-node communication over Slingshot-11 and InfiniBand.

The paper's Fig. 3 caption names "standard two-sided and one-sided MPI on
CPUs over InfiniBand and Slingshot-11" — the on-node figures are the paper's
plots, and this experiment extends the reproduction across the switched
fabric: two Perlmutter nodes over Slingshot-11 and two Summit nodes over
InfiniBand EDR, against their on-node baselines.

Checked expectations: inter-node bandwidth is NIC-bound (25 / 12.5 GB/s vs
32 / 25 GB/s on-node); latency roughly doubles through the switch; the
one-sided-vs-two-sided relationships survive the fabric change (one-sided
still wins at high msg/sync on Cray MPI, still loses on Spectrum).

Every (fabric, runtime, B, n) cell is one sweep point; cluster machines
are assembled inside the point runner from the base machine's registry
name plus a :data:`~repro.machines.cluster.FABRICS` key.
"""

from __future__ import annotations

from repro.experiments.points import run_point
from repro.experiments.report import ExperimentReport, index
from repro.sweep import SweepSpec, run_sweep
from repro.transport import TWO_SIDED, ONE_SIDED

__all__ = ["run_internode"]

# fabric label -> (base machine, FABRICS key or None for on-node, placement)
_CASES = (
    ("perlmutter on-node", "perlmutter-cpu", None, "spread"),
    ("perlmutter SS-11", "perlmutter-cpu", "slingshot11", "block"),
    ("summit on-node", "summit-cpu", None, "spread"),
    ("summit IB-EDR", "summit-cpu", "infiniband-edr", "block"),
)


def run_internode(*, iters: int = 2) -> ExperimentReport:
    sweep = run_sweep(SweepSpec(
        name="internode",
        runner=run_point,
        points=[
            {"fabric": fabric, "machine": base, "interconnect": key,
             "placement": placement, "runtime": runtime, "size": B, "msgs": n}
            for fabric, base, key, placement in _CASES
            for runtime in (TWO_SIDED, ONE_SIDED)
            for B in (64, 65536, 4194304)
            for n in (1, 256)
        ],
        common={"workload": "flood", "iters": iters},
    ))
    table = index(sweep, "fabric", "runtime", "size", "msgs")
    headers = ["fabric", "runtime", "B (bytes)", "msg/sync", "GB/s", "us/msg"]
    rows = [
        [*key, v["bandwidth"] / 1e9, v["latency_per_message"] * 1e6]
        for key, v in table.items()
    ]
    bw = {key: v["bandwidth"] for key, v in table.items()}
    lat = {key: v["latency_per_message"] for key, v in table.items()}

    big, hi_n = 4194304, 256
    expectations = {
        "SS-11 bandwidth NIC-bound (~25 GB/s < 32 on-node)": (
            22e9 < bw[("perlmutter SS-11", ONE_SIDED, big, hi_n)] < 25.5e9
        ),
        "IB bandwidth NIC-bound (~12.5 GB/s)": (
            10e9 < bw[("summit IB-EDR", TWO_SIDED, big, hi_n)] < 13e9
        ),
        "switch roughly doubles small-message latency": (
            1.6
            < lat[("perlmutter SS-11", TWO_SIDED, 64, 1)]
            / lat[("perlmutter on-node", TWO_SIDED, 64, 1)]
            < 3.5
        ),
        "CrayMPI: one-sided still wins at high msg/sync inter-node": (
            bw[("perlmutter SS-11", ONE_SIDED, 64, hi_n)]
            > bw[("perlmutter SS-11", TWO_SIDED, 64, hi_n)]
        ),
        "Spectrum: one-sided still loses inter-node": (
            bw[("summit IB-EDR", ONE_SIDED, 64, hi_n)]
            <= bw[("summit IB-EDR", TWO_SIDED, 64, hi_n)] * 1.05
        ),
    }
    return ExperimentReport(
        experiment="internode",
        title="Inter-node extension: Slingshot-11 and InfiniBand fabrics",
        headers=headers,
        rows=rows,
        expectations=expectations,
        notes=[
            "extends the paper's on-node plots across the switched fabric "
            "(its Fig. 3 scope mentions both interconnects); interconnect "
            "parameters follow public microbenchmarks",
        ],
    )
