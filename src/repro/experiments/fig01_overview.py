"""Fig. 1 — Message Roofline Model overview on Frontier.

Reproduces the paper's overview plot: the *sharp* model
(``n*B / max(...)``, an ideal junction one can never reach), the *rounded*
model (serial per-message overhead), the 36 GB/s Infinity Fabric ceiling,
the family of diagonal latency ceilings for increasing msg/sync — plus
measured dots from the flood simulator sitting on (and only on) the rounded
curves.

The headline claim quantified here: when latency dominates (small
messages), sending ~100+ messages per synchronization buys up to ~10x
bandwidth; when the per-byte term dominates (large messages), overlap buys
almost nothing because the bandwidth ceiling is already reached.

The analytic curves are pure model evaluations; only the measured dots
cost simulation time, and those run as a ``repro.sweep`` grid.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.points import run_point
from repro.experiments.report import ExperimentReport
from repro.machines.registry import get_machine
from repro.roofline import MessageRoofline, Series, ascii_loglog
from repro.sweep import SweepSpec, run_sweep
from repro.transport import ONE_SIDED, get_backend

__all__ = ["run_fig01"]

_SIZES = [2.0**k for k in range(3, 23)]  # 8 B .. 4 MiB
_NS = (1, 10, 100, 1000)
_DOT_NS = (1, 16, 256)
_DOT_SIZES = (64, 4096, 262144)


def run_fig01(*, measured: bool = True, iters: int = 2) -> ExperimentReport:
    """Build the Fig. 1 data: analytic curves plus simulator dots."""
    machine = get_machine("frontier-cpu")
    # Flood-style accounting: one put per message, completion amortised
    # over the batch (the paper's Fig. 1 is the generic put roofline).
    params = get_backend(ONE_SIDED).loggp(machine, "batch")
    roofline = MessageRoofline(params, name="frontier-cpu/one-sided")
    headers = ["B (bytes)", "n=1 GB/s", "n=10 GB/s", "n=100 GB/s", "n=1000 GB/s",
               "sharp n=1 GB/s"]
    rows = []
    for B in _SIZES:
        row = [int(B)]
        for n in _NS:
            row.append(float(roofline.bandwidth(B, n)) / 1e9)
        row.append(float(roofline.bandwidth(B, 1, sharp=True)) / 1e9)
        rows.append(row)

    # Overlap-gain claim: >= ~8x for tiny messages at n=100 when L >> G,
    # and ~1x for huge messages.
    small_gain = float(roofline.overlap_gain(64.0, 100))
    large_gain = float(roofline.overlap_gain(4 * 2**20, 100))
    peak = roofline.peak_bandwidth / 1e9

    expectations = {
        "latency_overlap_gain_small_msgs >= 5x": small_gain >= 5.0,
        "no_gain_for_bandwidth_bound_msgs (<1.3x)": large_gain < 1.3,
        "horizontal_ceiling_is_IF_36GBps": abs(peak - 36.0) < 1.0,
        "sharp_model_never_below_rounded": bool(
            np.all(
                roofline.bandwidth(np.array(_SIZES), 1, sharp=True)
                >= roofline.bandwidth(np.array(_SIZES), 1) - 1e-9
            )
        ),
    }

    charts = []
    series = [
        Series(
            f"model n={n}",
            [(B, float(roofline.bandwidth(B, n))) for B in _SIZES],
            marker=m,
        )
        for n, m in zip(_NS, "1abc")
    ]
    if measured:
        sweep = run_sweep(SweepSpec(
            name="fig01",
            runner=run_point,
            axes={"msgs": _DOT_NS, "size": _DOT_SIZES},
            common={"workload": "flood", "machine": "frontier-cpu",
                    "runtime": ONE_SIDED, "iters": iters},
        ))
        dots = [(r.params["size"], r.value["bandwidth"]) for r in sweep]
        series.append(Series("measured", dots, marker="*"))
        # Dots must lie at or below the sharp ceiling.
        expectations["measured_dots_below_sharp_ceiling"] = all(
            bw <= float(roofline.bandwidth(B, 1_000_000, sharp=True)) * 1.05
            for B, bw in dots
        )
    charts.append(
        ascii_loglog(
            series,
            title="Fig 1: Message Roofline on Frontier (bandwidth vs message size)",
            xlabel="message size (B)",
            ylabel="GB/s",
        )
    )
    return ExperimentReport(
        experiment="fig01",
        title="Message Roofline Model overview (Frontier CPUs)",
        headers=headers,
        rows=rows,
        expectations=expectations,
        charts=charts,
        notes=[
            f"overlap gain at 64 B, n=100: {small_gain:.1f}x "
            "(paper: up to ~10x when L >> G)",
            f"overlap gain at 4 MiB, n=100: {large_gain:.2f}x (bandwidth-bound)",
        ],
    )
