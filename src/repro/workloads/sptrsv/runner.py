"""Distributed supernodal sparse triangular solve (paper §III-B).

The solve of ``L x = b`` walks the supernodal DAG.  For each supernode J:

* the **diagonal owner** of J solves ``L_JJ x_J = b_J - acc_J`` once all
  contributions to row J have arrived, then fans ``x_J`` out to the ranks
  owning blocks in column J;
* each such rank computes the block update ``L_IJ x_J`` and sends it as a
  partial sum (lsum) to the diagonal owner of row I.

Message sizes are the supernode widths (24 B .. ~1 KB, avg ~100 words) and
every message is followed by work that depends on it — one message per
synchronization, the paper's latency-bound extreme.

The solver is written once against the transport :class:`MailboxSpec`
channel (``send`` / ``expect`` / ``recv`` / ``drain``); the runtime backend
supplies the op sequence — two-sided Isend + Recv(ANY_SOURCE), the paper's
4-op one-sided emulation with the Listing-1 polling receiver (whose
per-wake scan over the remaining slots is the overhead that stops
one-sided SpTRSV from scaling), or fused GPU put-with-signal +
``wait_until_any`` (see docs/TRANSPORT.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import deque

import numpy as np

from repro.comm.job import Job
from repro.machines.base import MachineModel
from repro.transport import MailboxMsg, MailboxSpec
from repro.util.validation import check_count
from repro.workloads.base import WorkloadResult
from repro.workloads.sptrsv.matrix import SupernodalMatrix
from repro.workloads.sptrsv.plan import (
    LSUM_MSG,
    X_MSG,
    BlockCyclicLayout,
    CommPlan,
)

__all__ = [
    "SpTrsvConfig",
    "reference_solve",
    "run_sptrsv",
]


@dataclass(frozen=True)
class SpTrsvConfig:
    """Run options for the distributed solve."""

    mode: str = "simulate"  # "simulate" | "execute"

    def __post_init__(self) -> None:
        if self.mode not in ("simulate", "execute"):
            raise ValueError(f"mode must be simulate|execute, got {self.mode!r}")


def reference_solve(matrix: SupernodalMatrix, b: np.ndarray) -> np.ndarray:
    """Serial scipy reference for execute-mode verification."""
    L = matrix.to_csr()
    from scipy.sparse.linalg import spsolve_triangular

    return spsolve_triangular(L.tocsr(), b, lower=True)


# Effective streaming rates of the irregular supernodal kernels (gathers,
# short trsv/gemv calls) — far below STREAM peaks on both architectures.
# The paper observes equal single-GPU times on A100 and V100, consistent
# with a latency-limited effective rate rather than HBM bandwidth.
SPARSE_GPU_BW = 40e9
SPARSE_CPU_BW = 5e9


class _SolveState:
    """Per-rank mutable solver state shared by the three variants."""

    def __init__(self, ctx, plan: CommPlan, b: np.ndarray | None,
                 execute: bool):
        self.ctx = ctx
        self.plan = plan
        self.m = plan.matrix
        self.execute = execute
        self.b = b
        self.eff_bw = SPARSE_GPU_BW if ctx.machine.is_gpu_machine else SPARSE_CPU_BW
        self.x: dict[int, np.ndarray | None] = {}
        self.acc: dict[int, np.ndarray | None] = {}
        self.count: dict[int, int] = {}
        self.ready: deque[int] = deque()
        for J in plan.owned_diags.get(ctx.rank, []):
            self.count[J] = plan.contrib_total[J]
            w = self.m.widths[J]
            self.acc[J] = np.zeros(w) if execute else None
            if self.count[J] == 0:
                self.ready.append(J)
        # Blocks grouped by column for x dispatch.
        self.col_blocks: dict[int, list[int]] = {}
        for I, J in plan.owned_blocks.get(ctx.rank, []):
            self.col_blocks.setdefault(J, []).append(I)

    # -- numerics / modelled compute -----------------------------------------

    def solve_supernode(self, J: int):
        """Triangular solve of the diagonal block (generator: charges time)."""
        w = self.m.widths[J]
        if self.execute:
            from scipy.linalg import solve_triangular

            lo, hi = self.m.sn_range(J)
            rhs = self.b[lo:hi] - self.acc[J]
            xJ = solve_triangular(
                self.m.blocks[(J, J)], rhs, lower=True, unit_diagonal=True
            )
        else:
            xJ = None
        yield from self.ctx.compute(seconds=w * w * 4.0 / self.eff_bw)
        self.x[J] = xJ
        return xJ

    def block_update(self, I: int, J: int, xJ):
        """Compute L_IJ @ x_J (generator: charges time)."""
        wi, wj = self.m.widths[I], self.m.widths[J]
        if self.execute:
            u = self.m.blocks[(I, J)] @ xJ
        else:
            u = None
        yield from self.ctx.compute(seconds=wi * wj * 8.0 / self.eff_bw)
        return u

    def apply_contrib(self, I: int, u) -> bool:
        """Accumulate one contribution to row I; True if I became ready."""
        if self.execute and u is not None:
            self.acc[I] += u
        self.count[I] -= 1
        if self.count[I] < 0:
            raise RuntimeError(f"rank {self.ctx.rank}: too many contributions to {I}")
        return self.count[I] == 0


def _drain_ready(state: _SolveState, send_x, send_lsum):
    """Solve every ready supernode, cascading local work (generator)."""
    plan, ctx = state.plan, state.ctx
    while state.ready:
        J = state.ready.popleft()
        xJ = yield from state.solve_supernode(J)
        # Fan x_J out to remote column owners.
        for dst in plan.x_targets[J]:
            yield from send_x(J, dst, xJ)
        # Handle my own blocks in column J directly.
        yield from _apply_x_locally(state, J, xJ, send_lsum)


def _apply_x_locally(state: _SolveState, J: int, xJ, send_lsum):
    plan, ctx = state.plan, state.ctx
    for I in state.col_blocks.get(J, []):
        u = yield from state.block_update(I, J, xJ)
        dst = plan.layout.diag_owner(I)
        if dst == ctx.rank:
            if state.apply_contrib(I, u):
                state.ready.append(I)
        else:
            yield from send_lsum(I, (I, J), dst, u)


def _dispatch(state: _SolveState, kind: int, sn: int, data, send_lsum):
    """Handle one received message; may enqueue newly ready supernodes."""
    if kind == X_MSG:
        state.x[sn] = data
        yield from _apply_x_locally(state, sn, data, send_lsum)
    elif kind == LSUM_MSG:
        if state.apply_contrib(sn, data):
            state.ready.append(sn)
    else:
        raise RuntimeError(f"unknown message kind {kind}")


# ---------------------------------------------------------------------------
# the one program (runtime comes from the channel's backend)
# ---------------------------------------------------------------------------


def _mailbox_spec(plan: CommPlan, nranks: int, execute: bool) -> MailboxSpec:
    """Receive-slot geometry for the notified-message backends."""
    return MailboxSpec(
        data_words=max((plan.window_words(r) for r in range(nranks)), default=1),
        nslots=max((plan.expected_count(r) for r in range(nranks)), default=1),
        offsets={r: plan.slot_offsets(r) for r in range(nranks)},
        dtype=np.float64,
        signal_dtype=np.int64,
        read_data=execute,
    )


def _solve_rank(ctx, chan, plan: CommPlan, b, execute: bool):
    """One rank of the wavefront solve (generator handed to ``job.run``).

    The op stream is data-dependent — which supernodes become ready, and
    in what order, is only known as messages arrive — so this is a rank
    program over the mailbox endpoint's verbs, not an
    :class:`repro.ir.program.IRProgram`: there is nothing a pass or the
    cost model could read ahead of the run.
    """
    ep = chan.endpoint(ctx)
    solve = _SolveState(ctx, plan, b, execute)

    def send_msg(kind, sn, block, dst, values, words):
        slot = plan.slot_of[dst][(kind, sn, ctx.rank, block)]
        yield from ep.send_round(dst, slot, words=words, values=values)

    def send_x(J, dst, xJ):
        yield from send_msg(X_MSG, J, None, dst, xJ, plan.matrix.widths[J])

    def send_lsum(I, block, dst, u):
        yield from send_msg(LSUM_MSG, I, block, dst, u, plan.matrix.widths[I])

    yield from ctx.barrier()
    t0 = ctx.sim.now
    yield from _drain_ready(solve, send_x, send_lsum)
    expected = plan.expected[ctx.rank]
    ep.expect(
        {
            m.slot: MailboxMsg(
                slot=m.slot, words=m.words, meta=(m.kind, m.supernode)
            )
            for m in expected
        }
    )
    for _ in range(len(expected)):
        (kind, sn), data = yield from ep.recv()
        yield from _dispatch(solve, kind, sn, data, send_lsum)
        yield from _drain_ready(solve, send_x, send_lsum)
    yield from ep.drain()
    elapsed = ctx.sim.now - t0
    return {
        "time": elapsed,
        "x": {J: solve.x.get(J) for J in plan.owned_diags.get(ctx.rank, [])},
    }


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------


def run_sptrsv(
    machine: MachineModel,
    runtime: str,
    matrix: SupernodalMatrix,
    nranks: int,
    *,
    cfg: SpTrsvConfig = SpTrsvConfig(),
    layout: BlockCyclicLayout | None = None,
    b: np.ndarray | None = None,
    placement: str | None = None,
) -> WorkloadResult:
    """Run the distributed solve; execute mode returns ``extras["x"]``."""
    check_count("nranks", nranks)
    layout = layout if layout is not None else BlockCyclicLayout.square_ish(nranks)
    if layout.nranks != nranks:
        raise ValueError(f"layout {layout.pr}x{layout.pc} != nranks {nranks}")
    plan = CommPlan.build(matrix, layout)
    execute = cfg.mode == "execute"
    if execute:
        b = b if b is not None else np.ones(matrix.n)
        if len(b) != matrix.n:
            raise ValueError(f"b has length {len(b)}, expected {matrix.n}")
    if placement is None:
        placement = "spread" if machine.is_gpu_machine else "block"
    job = Job(machine, nranks, runtime, placement=placement)
    chan = job.channel(_mailbox_spec(plan, nranks, execute))
    result = job.run(_solve_rank, chan, plan, b, execute)
    times = [r["time"] for r in result.results]
    extras: dict = {"plan": plan.describe(), "nnz": matrix.nnz}
    if execute:
        x = np.zeros(matrix.n)
        for r in range(nranks):
            for J, xJ in result.results[r]["x"].items():
                lo, hi = matrix.sn_range(J)
                x[lo:hi] = xJ
        extras["x"] = x
    return WorkloadResult(
        workload="sptrsv",
        machine=machine.name,
        runtime=job.runtime_name,
        nranks=nranks,
        time=max(times),
        counters=result.counters,
        per_rank=result.per_rank,
        extras=extras,
    )
