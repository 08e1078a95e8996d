#!/usr/bin/env python
"""Dissecting a run with the trace-analysis tools.

Runs a traced SpTRSV solve, then asks: what actually moved (message-size
distribution), when (achieved-bandwidth timeline), who talked to whom
(communication matrix), and what the DAG permits at best (critical-path
lower bound vs the measured makespan).

Run:  python examples/trace_analysis.py
"""

from repro import obs
from repro.analysis import (
    analyze_dag,
    ascii_timeline,
    bandwidth_timeline,
    comm_matrix,
    latency_lower_bound,
    message_stats,
    rank_activity,
)
from repro.comm import Job
from repro.machines import perlmutter_cpu
from repro.transport import TWO_SIDED
from repro.util import fmt_bytes, fmt_time
from repro.workloads.sptrsv import (
    BlockCyclicLayout,
    CommPlan,
    MatrixSpec,
    generate_matrix,
)
from repro.workloads.sptrsv.runner import _mailbox_spec, _solve_rank


def main() -> None:
    matrix = generate_matrix(
        MatrixSpec(n_supernodes=80, width_lo=3, width_hi=80, seed=13)
    )
    nranks = 4
    plan = CommPlan.build(matrix, BlockCyclicLayout.square_ish(nranks))

    print("== DAG structure ==")
    profile = analyze_dag(matrix)
    print(" ", profile.summary())
    bound = latency_lower_bound(
        matrix, per_message_latency=3.3e-6, nranks=nranks
    )
    print(f"  latency lower bound at 3.3 us/message: {fmt_time(bound)}")

    # Traced distributed solve (two-sided, simulate mode): the observation
    # session gives the job its tracer.  The program is runtime-neutral:
    # the transport channel supplies the op sequence.
    with obs.observe(obs.Obs(trace=True)):
        job = Job(perlmutter_cpu(), nranks, TWO_SIDED, placement="block")
        chan = job.channel(_mailbox_spec(plan, nranks, False))
        result = job.run(_solve_rank, chan, plan, None, False)
    makespan = max(r["time"] for r in result.results)
    print(f"  simulated solve makespan: {fmt_time(makespan)} "
          f"({makespan / bound:.1f}x the bound)")

    print("\n== what moved ==")
    stats = message_stats(job.tracer)
    print(f"  {stats.count} messages, {fmt_bytes(stats.total_bytes)} total")
    print(f"  sizes: min {fmt_bytes(stats.min_bytes)}, "
          f"median {fmt_bytes(stats.p50_bytes)}, "
          f"max {fmt_bytes(stats.max_bytes)} "
          "(paper: 24 B .. ~1 KiB)")
    print(f"  mean wire time {fmt_time(stats.mean_wire_time)}")

    print("\n== when it moved ==")
    print(ascii_timeline(bandwidth_timeline(job.tracer, nbins=12)))

    print("\n== who talked to whom (KiB) ==")
    m = comm_matrix(job.tracer, nranks) / 1024
    header = "        " + "".join(f"-> r{j:<5d}" for j in range(nranks))
    print(header)
    for i in range(nranks):
        cells = "".join(f"{m[i, j]:8.1f}" for j in range(nranks))
        print(f"  r{i}  {cells}")

    print("\n== per-rank activity ==")
    for rank, counts in sorted(rank_activity(job.tracer).items()):
        print(f"  rank {rank}: {counts['send']} sends, "
              f"{counts['arrive']} receives")


if __name__ == "__main__":
    main()
