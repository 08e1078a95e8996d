#!/usr/bin/env python
"""Quickstart: simulate MPI on a modelled supercomputer in ~40 lines.

Builds the Perlmutter CPU model, runs a two-rank ping-pong and a flood
benchmark over the simulated Infinity Fabric, and places the measured
bandwidth on the Message Roofline.  Uses the stable ``repro`` facade
(``repro.Session`` scopes around module runners) — see ``docs/API.md``
for the full surface.

Run:  python examples/quickstart.py
"""

import repro
from repro.comm import Job
from repro.roofline import MessageRoofline
from repro.transport import get_backend
from repro.util import fmt_bw, fmt_time
from repro.workloads.flood import run_flood


def pingpong(ctx):
    """Each rank program is a generator; comm verbs advance virtual time."""
    if ctx.rank == 0:
        req = yield from ctx.isend(1, nbytes=8, payload=b"ping")
        yield from ctx.waitall([req])
        payload, status = yield from ctx.recv(source=1)
        return payload
    payload, _ = yield from ctx.recv(source=0)
    req = yield from ctx.isend(0, nbytes=8, payload=b"pong")
    yield from ctx.waitall([req])
    return payload


def main() -> None:
    machine = repro.get_machine("perlmutter-cpu")
    print(machine.describe())
    print()

    # 1. Ping-pong: the simulator's virtual clock gives the latency.
    job = Job(machine, 2, "two_sided", placement="spread")
    result = job.run(pingpong)
    print(f"ping-pong round trip : {fmt_time(result.time)}")
    print(f"one-way latency      : {fmt_time(result.time / 2)}  (paper: ~3.3 us)")
    print()

    # 2. Flood: n messages per synchronization -> sustained bandwidth.
    #    A Session's scopes (here: metrics) cover every runner inside it.
    print("flood bandwidth vs messages-per-sync (64 KiB messages):")
    with repro.Session(obs=True) as s:
        for n in (1, 16, 256):
            r = run_flood(machine, repro.TWO_SIDED, 65536, n, iters=3)
            print(f"  n={n:4d}  {fmt_bw(r.bandwidth)}")
    print(f"  ({s.obs.snapshot()['net.fabric.messages']:.0f} fabric messages)")
    print()

    # 3. The analytic Message Roofline bound for the same operating points.
    params = get_backend(repro.TWO_SIDED).loggp(machine, "batch")
    roofline = MessageRoofline(params, name="perlmutter-cpu/two-sided")
    print("Message Roofline bound at the same points:")
    for n in (1, 16, 256):
        print(f"  n={n:4d}  {fmt_bw(float(roofline.bandwidth(65536, n)))}")
    print()
    print(f"horizontal ceiling (peak): {fmt_bw(roofline.peak_bandwidth)}")


if __name__ == "__main__":
    main()
