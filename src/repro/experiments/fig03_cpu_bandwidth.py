"""Fig. 3 — sustained two-sided vs one-sided MPI bandwidth on CPUs.

Three panels: Perlmutter CPUs (a), Frontier CPUs (b), Summit CPUs (c).
Paper observations reproduced and checked here:

* (a, b) as msg/sync increases, **one-sided** MPI achieves higher bandwidth
  and lower per-message latency than two-sided — despite needing four MPI
  ops per message against two — because the RMA issue path is leaner than
  the send/match path;
* (c) on Summit, Spectrum MPI's one-sided is **consistently lower** than
  its two-sided (the inversion that motivates put-with-signal hardware);
* achieved bandwidth approaches the IF peak (32 / 36 GB/s) on Perlmutter /
  Frontier and only ~25 GB/s on Summit despite the 64 GB/s X-Bus.
* the diagonal latency ceilings are *fitted from the measured data*, as in
  the paper (we fit LogGP parameters per runtime).

The (machine x msg/sync x size x runtime) grid is declared as a
:class:`~repro.sweep.spec.SweepSpec`; each point is one flood run.
"""

from __future__ import annotations

from repro.experiments.points import run_point
from repro.experiments.report import ExperimentReport, index
from repro.roofline import fit_loggp
from repro.roofline.fit import FloodSample
from repro.sweep import SweepSpec, run_sweep
from repro.transport import TWO_SIDED, ONE_SIDED

__all__ = ["run_fig03"]

_SIZES = (64, 1024, 16384, 262144, 4194304)
_NS = (1, 16, 256)
_RUNTIMES = (TWO_SIDED, ONE_SIDED)


def run_fig03(
    *,
    machines: tuple[str, ...] = ("perlmutter-cpu", "frontier-cpu", "summit-cpu"),
    iters: int = 2,
) -> ExperimentReport:
    sweep = run_sweep(SweepSpec(
        name="fig03",
        runner=run_point,
        axes={"machine": machines, "msgs": _NS, "size": _SIZES, "runtime": _RUNTIMES},
        common={"workload": "flood", "iters": iters},
    ))
    results = {
        key: v["bandwidth"]
        for key, v in index(sweep, "machine", "runtime", "size", "msgs").items()
    }
    headers = ["machine", "B (bytes)", "msg/sync", "two-sided GB/s", "one-sided GB/s",
               "one/two"]
    rows = []
    samples: dict[tuple[str, str], list] = {}
    for mname in machines:
        for n in _NS:
            for B in _SIZES:
                bw = {
                    runtime: results[(mname, runtime, B, n)]
                    for runtime in _RUNTIMES
                }
                for runtime in _RUNTIMES:
                    samples.setdefault((mname, runtime), []).append(
                        FloodSample(
                            nbytes=float(B), msgs_per_sync=n,
                            bandwidth=bw[runtime],
                        )
                    )
                rows.append(
                    [
                        mname,
                        B,
                        n,
                        bw[TWO_SIDED] / 1e9,
                        bw[ONE_SIDED] / 1e9,
                        bw[ONE_SIDED] / bw[TWO_SIDED],
                    ]
                )

    expectations: dict[str, bool] = {}
    hi_n = max(_NS)
    small = _SIZES[0]
    big = _SIZES[-1]
    if "perlmutter-cpu" in machines:
        expectations["perlmutter: one-sided beats two-sided at high msg/sync"] = (
            results[("perlmutter-cpu", ONE_SIDED, small, hi_n)]
            > results[("perlmutter-cpu", TWO_SIDED, small, hi_n)]
        )
        expectations["perlmutter: achieved near 32 GB/s IF peak"] = (
            results[("perlmutter-cpu", ONE_SIDED, big, hi_n)] > 30e9
        )
        expectations["perlmutter: the two models converge for large messages"] = (
            abs(
                results[("perlmutter-cpu", ONE_SIDED, big, hi_n)]
                / results[("perlmutter-cpu", TWO_SIDED, big, hi_n)]
                - 1.0
            )
            < 0.1
        )
    if "frontier-cpu" in machines:
        expectations["frontier: one-sided beats two-sided at high msg/sync"] = (
            results[("frontier-cpu", ONE_SIDED, small, hi_n)]
            > results[("frontier-cpu", TWO_SIDED, small, hi_n)]
        )
        expectations["frontier: achieved near 36 GB/s IF bound"] = (
            results[("frontier-cpu", ONE_SIDED, big, hi_n)] > 33e9
        )
    if "summit-cpu" in machines:
        expectations["summit: one-sided consistently below two-sided (Spectrum)"] = all(
            results[("summit-cpu", ONE_SIDED, B, n)]
            <= results[("summit-cpu", TWO_SIDED, B, n)] * 1.05
            for B in _SIZES[:3]
            for n in _NS
        )
        expectations["summit: achieved ~25 GB/s despite 64 GB/s X-Bus"] = (
            20e9 < results[("summit-cpu", TWO_SIDED, big, hi_n)] < 27e9
        )

    notes = []
    for (mname, runtime), s in samples.items():
        fit = fit_loggp(s)
        p = fit.params  # the data identifies L+o, the spacing max(o, g) and G
        notes.append(
            f"fitted {mname}/{runtime}: L+o={(p.L + p.o) * 1e6:.2f} us, "
            f"spacing={max(p.o, p.g) * 1e6:.2f} us, "
            f"peak={p.peak_bandwidth / 1e9:.1f} GB/s "
            f"(rms log-resid {fit.residual_rms:.3f})"
        )
    return ExperimentReport(
        experiment="fig03",
        title="Two-sided vs one-sided MPI sustained bandwidth on CPUs",
        headers=headers,
        rows=rows,
        expectations=expectations,
        notes=notes,
    )
