#!/usr/bin/env python
"""Fault injection: how each runtime degrades when the fabric misbehaves.

The paper's Message Roofline assumes a perfect network.  `repro.faults`
relaxes that: a seed-reproducible FaultPlan adds per-link loss, latency
jitter, outage windows and permanent degradation, and each transport
backend recovers with its own semantics — two-sided MPI retransmits off a
fast library ack timer, one-sided MPI only notices a lost Put at the next
flush (and re-syncs its window every retry), NVSHMEM retries in NIC
hardware.  This example sweeps the loss rate for all three and prints the
resulting "robustness roofline".

Run:  python examples/fault_injection.py
CLI:  repro flood perlmutter-cpu one_sided --loss 0.08
      repro run degradation
"""

from repro import faults
from repro.machines import perlmutter_cpu, perlmutter_gpu
from repro.util import fmt_bw
from repro.workloads.flood import run_flood

SIZE = 65536
MSGS = 64
LOSSES = (0.0, 0.02, 0.08, 0.2)
CASES = (
    ("two_sided", perlmutter_cpu()),
    ("one_sided", perlmutter_cpu()),
    ("shmem", perlmutter_gpu()),
)


def main() -> None:
    # 1. The degradation table: same flood, same seed, rising loss.
    print(f"64 KiB flood, {MSGS} msgs/sync, loss swept at seed=11")
    print(f"{'runtime':<12}" + "".join(f"{'loss=' + str(p):>13}" for p in LOSSES))
    for runtime, machine in CASES:
        row = []
        for loss in LOSSES:
            plan = faults.FaultPlan.uniform(loss=loss, seed=11)
            with faults.inject(plan):
                bw = run_flood(machine, runtime, SIZE, MSGS, iters=2).bandwidth
            row.append(bw)
        cells = "".join(f"{b / 1e9:>8.1f} GB/s" for b in row)
        print(f"{runtime:<12}{cells}")
    print()

    # 2. Fault accounting: the scope aggregates drops and recovery work.
    plan = faults.FaultPlan.uniform(loss=0.08, jitter=2e-6, seed=11)
    with faults.inject(plan) as scope:
        bw = run_flood(perlmutter_cpu(), "one_sided", SIZE, MSGS, iters=2)
    s = scope.stats()
    print(f"one_sided @ 8% loss + 2 us jitter : {fmt_bw(bw.bandwidth)}")
    print(
        f"  {int(s['drops'])} drops, {int(s['retransmits'])} retransmits, "
        f"{int(s['delivered_with_retry'])} messages needed >1 attempt"
    )
    print()

    # 3. Determinism: the same seed replays the identical schedule.
    def bw_at(seed):
        with faults.inject(faults.FaultPlan.uniform(loss=0.1, seed=seed)):
            return run_flood(perlmutter_cpu(), "two_sided", SIZE, MSGS).bandwidth

    a, b, c = bw_at(3), bw_at(3), bw_at(4)
    print(f"seed=3 twice : {fmt_bw(a)} == {fmt_bw(b)}  (bit-identical: {a == b})")
    print(f"seed=4       : {fmt_bw(c)}  (different draw sequence)")


if __name__ == "__main__":
    main()
