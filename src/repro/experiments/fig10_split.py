"""Fig. 10 — splitting large messages into concurrent smaller ones.

A Message Roofline variant with message *volume* on the x-axis: on
Perlmutter GPUs, sending one V-byte message as four concurrent V/4
messages stripes them across the NVLink port group and gets up to ~2.9x
speedup once V exceeds ~131 KB.  Both the analytic
:class:`~repro.roofline.split.SplitModel` and fabric-simulator
measurements are reported.

The simulator measurements form the sweep (one point per (volume, split)
pair); the analytic model is evaluated in the summarize step.
"""

from __future__ import annotations

import numpy as np

from repro.comm.job import Job
from repro.experiments.report import ExperimentReport, index
from repro.machines.registry import get_machine
from repro.roofline import SplitModel
from repro.sweep import SweepSpec, run_sweep
from repro.transport import SHMEM

__all__ = ["run_fig10"]

_VOLUMES = tuple(int(2.0**k) for k in range(12, 25))  # 4 KiB .. 16 MiB


def _point(params, seed):
    """Simulated time to move ``volume`` bytes as ``split`` concurrent puts."""
    volume, k = params["volume"], params["split"]
    machine = get_machine(params["machine"])
    job = Job(machine, 2, SHMEM, placement="spread")
    win = job.window(max(volume // 8, 1), dtype=np.float64)
    sig = job.window(max(k, 1), dtype=np.uint64)

    def program(ctx):
        if ctx.rank == 0:
            chunk = volume // k
            for i in range(k):
                yield from ctx.put_signal_nbi(
                    win,
                    1,
                    nelems=max(chunk // 8, 1),
                    offset=0,
                    signal_win=sig,
                    signal_idx=i,
                    signal_value=1,
                )
            return 0.0
        t0 = ctx.sim.now
        yield from ctx.wait_until_all(sig, list(range(k)), value=1)
        return ctx.sim.now - t0

    res = job.run(program)
    return {"time": res.results[1]}


def run_fig10(*, k: int = 4, measured: bool = True) -> ExperimentReport:
    model = SplitModel.from_machine(get_machine("perlmutter-gpu"), "gpu0", "gpu1")
    if measured:
        measured_time = index(run_sweep(SweepSpec(
            name="fig10",
            runner=_point,
            axes={"volume": _VOLUMES, "split": (1, k)},
            common={"machine": "perlmutter-gpu"},
        )), "volume", "split")

    headers = ["volume (bytes)", "model 1-msg (us)", f"model {k}-msg (us)",
               "model speedup", "measured speedup"]
    rows = []
    measured_speedups = {}
    for V in _VOLUMES:
        t1 = float(model.time(V, 1))
        tk = float(model.time(V, k))
        m = float("nan")
        if measured:
            m = measured_time[(V, 1)]["time"] / measured_time[(V, k)]["time"]
            measured_speedups[V] = m
        rows.append([V, t1 * 1e6, tk * 1e6, t1 / tk, m])

    crossover = model.crossover_volume(k)
    asymptote = model.asymptotic_speedup(k)
    expectations = {
        "crossover near 131 KB (64..256 KiB)": (
            64 * 1024 <= crossover <= 256 * 1024
        ),
        "asymptotic speedup ~2.9x (2.5..3.3)": 2.5 <= asymptote <= 3.3,
        "no benefit for small volumes (<= 16 KiB)": (
            float(model.speedup(16 * 1024, k)) < 1.0
        ),
    }
    if measured:
        big = max(_VOLUMES)
        small = min(_VOLUMES)
        expectations["measured speedup at 16 MiB >= 2.5x"] = (
            measured_speedups[big] >= 2.5
        )
        expectations["measured speedup small volumes < 1.2x"] = (
            measured_speedups[small] < 1.2
        )
        expectations["model tracks measurement within 25% at large V"] = (
            abs(
                measured_speedups[big]
                / (float(model.time(big, 1)) / float(model.time(big, k)))
                - 1.0
            )
            < 0.25
        )
    return ExperimentReport(
        experiment="fig10",
        title=f"Split one message into {k} on Perlmutter GPUs (NVLink port groups)",
        headers=headers,
        rows=rows,
        expectations=expectations,
        notes=[
            f"model crossover volume: {crossover / 1024:.0f} KiB "
            "(paper: 131 KB)",
            f"model asymptotic speedup: {asymptote:.2f}x (paper: up to 2.9x)",
        ],
    )
