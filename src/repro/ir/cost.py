"""Analytic cost of an IR program (the passes' currency).

Each price is the one the simulation charges, from the module that
charges it: a message from ``get_backend(runtime).loggp(machine,
pattern)`` (the pattern read off ``program.spec``), a barrier from
:func:`repro.comm.job.barrier_delay` over the ranks' ``"spread"``
endpoints (those ``loggp`` routes between).  A halo ``begin`` /
``finish`` pays that barrier only where the backend's caps declare
``fence_epochs``: RMA's ``Win_fence`` is the only epoch op that runs one.

Each rank's ops are walked on two clocks: ``cpu`` issues (``o`` per
send, compute) and ``net`` lands bytes (``max(net, cpu + L) + B*G``); a
sync joins them and adds ``o_sync``.  A batch of ``n`` ``B``-byte
messages is so the rounded roofline
``MessageRoofline(loggp(machine, "batch")).time(B, n)`` (the injection
gap ``g`` stays under ``o`` on every calibrated machine); the walk adds
what one ``time(B, n)`` cannot say — halo sets of mixed sizes and compute
under the network's shadow.  Region cost is the max across ranks.  At
P=1 nothing crosses a network: only compute is priced.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

from repro.comm.job import barrier_delay
from repro.ir import ops as O
from repro.ir.program import IRProgram

__all__ = ["program_cost"]

_LOCAL = SimpleNamespace(L=0.0, o=0.0, G=0.0, o_sync=0.0)


def _rank_cost(ops, spec, machine, p, barrier: float, fence: float) -> float:
    cpu = 0.0
    net = 0.0

    def send(nbytes: float) -> None:
        nonlocal cpu, net
        cpu += p.o
        net = max(net, cpu + p.L) + nbytes * p.G

    def join() -> None:
        nonlocal cpu
        cpu = max(cpu, net) + p.o_sync

    for op in ops:
        if isinstance(op, O.BatchSend):
            for _ in range(op.n):
                send(float(spec.nbytes))
            join()
        elif isinstance(op, O.BatchWait):
            join()
        elif isinstance(op, O.HaloPut):
            send(float(spec.landing[op.dst][op.seg][3]) * spec.itemsize)
        elif isinstance(op, (O.HaloBegin, O.HaloFinish)):
            join()
            cpu += fence
        elif isinstance(op, O.Compute):
            cpu += (op.seconds if op.seconds is not None
                    else machine.compute_time(op.nbytes, op.flops, sharing=1))
        elif isinstance(op, O.Barrier):
            cpu = max(cpu, net) + barrier
        else:  # outside the vocabulary: the lowering's TypeError
            from repro.ir.lower import lowering_of

            lowering_of(op)
    return max(cpu, net)


def program_cost(program: IRProgram, machine) -> float:
    """Modeled seconds for one run of ``program``."""
    from repro.transport.registry import get_backend, pattern_of

    backend = get_backend(program.runtime)
    P = program.nranks
    p = backend.loggp(machine, pattern_of(program.spec)) if P >= 2 else _LOCAL
    barrier = barrier_delay(
        machine, backend.costs(machine),
        [machine.endpoint_of_rank(r, P, "spread") for r in range(P)],
    )
    fence = barrier if backend.caps.fence_epochs else 0.0
    total = barrier  # the opening barrier every program starts with
    for region in program.regions:
        total += max(
            _rank_cost(ops, program.spec, machine, p, barrier, fence)
            for ops in region.body
        )
    if not math.isfinite(total):
        raise ValueError(f"non-finite modeled cost for {program.name!r}")
    return total
