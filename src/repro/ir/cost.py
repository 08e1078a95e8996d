"""Analytic cost model for IR programs (the passes' currency).

Same Hockney grounding as :mod:`repro.collectives.selector` — per-round
latency ``alpha = L + o + o_sync`` and per-byte ``beta = G`` from the
backend's LogGP on this machine, under the op accounting of the endpoint
that serves the program's pattern (its spec) — but evaluated per op with
a two-clock walk so that *overlap* is representable:

* ``cpu`` — the rank's issue clock (message overheads, compute);
* ``net`` — when the last injected byte lands.

Puts advance ``cpu`` by the per-message overhead ``o`` (the pattern's
per-message ops already summed, the paper's Table I) and push ``net``;
synchronising ops (commit/fence/wait/drain) join the clocks.
Region cost is the max across ranks (the trailing barrier aligns
everyone), so the model is monotone under each pass by construction:
coalescing drops per-message overheads while keeping bytes, overlap
moves compute under ``net``'s shadow, sync-elide removes a join, and
auto-backend takes an argmin that includes the incumbent.

Like the selector's, this model *ranks* rewrites — it does not predict
simulated time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.ir import ops as O
from repro.ir.program import IRProgram

__all__ = ["CostModel", "program_cost"]


@dataclass(frozen=True)
class CostModel:
    """LogGP-derived per-op costs for one (machine, backend, pattern)."""

    L: float
    o: float
    o_sync: float
    G: float
    nranks: int
    machine: object

    @classmethod
    def for_(cls, machine, runtime: str, nranks: int,
             pattern: str = "mailbox") -> "CostModel":
        from repro.transport.registry import get_backend

        backend = get_backend(runtime)
        if nranks >= 2:
            p = backend.loggp(machine, pattern)
            L, o, o_sync, G = p.L, p.o, p.o_sync, p.G
        else:
            L = o = o_sync = G = 0.0
        return cls(L=L, o=o, o_sync=o_sync, G=G, nranks=nranks, machine=machine)

    @property
    def alpha(self) -> float:
        return self.L + self.o + self.o_sync

    @property
    def barrier(self) -> float:
        return max(self.nranks - 1, 0).bit_length() * self.alpha

    def message_overhead(self) -> float:
        return self.o

    def compute_seconds(self, op: O.Compute) -> float:
        if op.seconds is not None:
            return op.seconds
        return self.machine.compute_time(
            op.nbytes, op.flops, sharing=1,
            on_gpu=self.machine.is_gpu_machine,
        )


def _rank_cost(ops, spec, m: CostModel) -> float:
    cpu = 0.0
    net = 0.0

    def send(nbytes: float) -> None:
        nonlocal cpu, net
        cpu += m.message_overhead()
        net = max(net, cpu + m.L) + nbytes * m.G

    def join() -> None:
        nonlocal cpu
        cpu = max(cpu, net) + m.o_sync

    for op in ops:
        if isinstance(op, O.BatchSend):
            for _ in range(op.n):
                send(float(spec.nbytes))
            join()
        elif isinstance(op, (O.BatchWait, O.MsgDrain)):
            join()
        elif isinstance(op, O.HaloPut):
            send(float(spec.landing[op.dst][op.seg][3]) * spec.itemsize)
        elif isinstance(op, (O.HaloBegin, O.HaloFinish)):
            join()
            cpu += m.barrier  # fences are collective in every backend
        elif isinstance(op, (O.TripletSend, O.TripletSendAgg)):
            send(float(op.nbytes))
        elif isinstance(op, (O.TripletRecv, O.TripletRecvAgg)):
            join()
        elif isinstance(op, O.AtomicStream):
            # Blocking: every atomic is a round trip and its own sync.
            cpu += op.n * (2.0 * m.L + m.message_overhead() + m.o_sync + 8.0 * m.G)
        elif isinstance(op, O.Compute):
            cpu += m.compute_seconds(op)
        elif isinstance(op, O.Barrier):
            cpu = max(cpu, net) + m.barrier
        elif isinstance(op, O.AllreduceSum):
            cpu = max(cpu, net) + 2.0 * m.barrier
        else:  # pragma: no cover - future ops default to a sync
            join()
    return max(cpu, net)


def program_cost(
    program: IRProgram, machine, *, runtime: str | None = None
) -> float:
    """Modeled seconds for one run of ``program``."""
    from repro.transport.registry import pattern_of

    m = CostModel.for_(
        machine, runtime or program.runtime, program.nranks,
        pattern_of(program.spec),
    )
    total = 0.0
    for part in (program.prologue, program.epilogue):
        if any(part):
            total += max(_rank_cost(ops, program.spec, m) for ops in part)
    for region in program.regions:
        total += max(_rank_cost(ops, program.spec, m) for ops in region.body)
    if not math.isfinite(total):
        raise ValueError(f"non-finite modeled cost for {program.name!r}")
    return total
