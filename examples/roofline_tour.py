#!/usr/bin/env python
"""A tour of the Message Roofline model (the paper's core contribution).

Walks through: building a roofline from a machine model, the sharp vs
rounded variants, fitting LogGP ceilings from simulated sweep data (as the
paper fits its diagonal ceilings from empirical dots), overlap-gain
analysis, and the Fig. 10 message-splitting variant — with ASCII log-log
plots.

Run:  python examples/roofline_tour.py
"""


from repro.machines import frontier_cpu, perlmutter_gpu
from repro.roofline import (
    MessageRoofline,
    Series,
    SplitModel,
    ascii_loglog,
    fit_loggp,
)
from repro.transport import get_backend
from repro.util import fmt_bw, fmt_bytes
from repro.workloads.flood import run_flood


def main() -> None:
    machine = frontier_cpu()
    # "batch": n puts, then one flush/put/flush completion per sync.
    params = get_backend("one_sided").loggp(machine, "batch")
    roofline = MessageRoofline(params, name="frontier/one-sided")

    print("== 1. the model ==")
    print(f"L={params.L * 1e6:.2f} us  o={params.o * 1e6:.2f} us  "
          f"g={params.g * 1e6:.2f} us  peak={fmt_bw(params.peak_bandwidth)}  "
          f"o_sync={params.o_sync * 1e6:.2f} us")
    sizes = [2.0**k for k in range(3, 23)]
    chart_series = [
        Series(f"n={n}", [(B, float(roofline.bandwidth(B, n))) for B in sizes],
               marker=m)
        for n, m in ((1, "1"), (100, "2"), (10_000, "3"))
    ]
    print(ascii_loglog(
        chart_series, title="Message Roofline on Frontier",
        xlabel="message size (B)", ylabel="bytes/s",
    ))

    print("\n== 2. overlap gains (the msg/sync axis) ==")
    for B in (64, 4096, 1 << 20):
        gain = float(roofline.max_overlap_gain(B))
        print(f"  B={fmt_bytes(B):>8}: up to {gain:5.1f}x from message overlap")
    print("  (the paper: ~10x when latency dominates, ~1x when bandwidth-bound)")

    print("\n== 3. fitting ceilings from measured dots ==")
    samples = []
    for n in (1, 16, 256):
        for B in (64, 4096, 262144, 4 << 20):
            samples.append(
                run_flood(frontier_cpu(), "one_sided", B, n, iters=2).as_sample()
            )
    fit = fit_loggp(samples)
    print(f"  fitted: L+o={(fit.params.L + fit.params.o) * 1e6:.2f} us, "
          f"spacing={max(fit.params.o, fit.params.g) * 1e6:.2f} us, "
          f"peak={fmt_bw(fit.params.peak_bandwidth)}")
    print(f"  goodness: rms log-residual {fit.residual_rms:.3f} over "
          f"{fit.n_samples} samples")

    print("\n== 4. the Fig. 10 variant: split one message into four ==")
    split = SplitModel.from_machine(perlmutter_gpu(), "gpu0", "gpu1")
    print(f"  crossover volume : {fmt_bytes(split.crossover_volume(4))} "
          "(paper: ~131 KB)")
    print(f"  asymptotic gain  : {split.asymptotic_speedup(4):.2f}x "
          "(paper: up to 2.9x)")
    vols = [2.0**k for k in range(12, 25)]
    print(ascii_loglog(
        [Series("speedup(k=4)", [(V, float(split.speedup(V, 4))) for V in vols],
                marker="*"),
         Series("break-even", [(V, 1.0) for V in vols], marker="-")],
        title="Split-message speedup vs volume (Perlmutter GPUs)",
        xlabel="message volume (B)", ylabel="speedup",
        height=12,
    ))


if __name__ == "__main__":
    main()
