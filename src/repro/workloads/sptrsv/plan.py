"""2D block-cyclic layout and the static communication plan for SpTRSV.

SuperLU_DIST distributes the supernodal blocks over a ``pr x pc`` process
grid block-cyclically: block ``(I, J)`` lives on process
``(I mod pr) * pc + (J mod pc)``.  Because the nonzero structure is known
after factorisation, every message of the solve is known in advance — the
paper's Table II calls the SpTRSV pairs "deterministic & variable".  The
:class:`CommPlan` enumerates them: who sends which supernode's solution or
partial sum to whom, and (for the one-sided variants) which receive slot
each message owns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.util.validation import check_count
from repro.workloads.sptrsv.matrix import SupernodalMatrix

__all__ = ["BlockCyclicLayout", "CommPlan", "ExpectedMsg"]

X_MSG = 0  # a solved subvector x_J travelling down its block column
LSUM_MSG = 1  # a partial row sum travelling to the diagonal owner


@dataclass(frozen=True)
class BlockCyclicLayout:
    """``pr x pc`` process grid with block-cyclic block ownership."""

    pr: int
    pc: int

    def __post_init__(self) -> None:
        check_count("pr", self.pr)
        check_count("pc", self.pc)

    @classmethod
    def square_ish(cls, nranks: int) -> "BlockCyclicLayout":
        check_count("nranks", nranks)
        pr = int(math.isqrt(nranks))
        while nranks % pr:
            pr -= 1
        return cls(pr=pr, pc=nranks // pr)

    @property
    def nranks(self) -> int:
        return self.pr * self.pc

    def owner(self, I: int, J: int) -> int:
        """Rank owning block (I, J)."""
        return (I % self.pr) * self.pc + (J % self.pc)

    def diag_owner(self, J: int) -> int:
        return self.owner(J, J)


@dataclass(frozen=True)
class ExpectedMsg:
    """One statically known incoming message at some rank."""

    kind: int  # X_MSG or LSUM_MSG
    supernode: int  # J for x messages, I (target row) for lsum
    source: int  # sending rank
    words: int  # payload length in 8-byte words
    slot: int  # receive-slot index at the destination (one-sided)
    block: tuple[int, int] | None = None  # originating block for lsum


@dataclass
class CommPlan:
    """Everything each rank must know before the solve starts.

    Built once per (matrix, layout); shared read-only by all rank programs.
    """

    matrix: SupernodalMatrix
    layout: BlockCyclicLayout
    # rank -> expected incoming messages, in slot order.
    expected: dict[int, list[ExpectedMsg]] = field(default_factory=dict)
    # rank -> {(kind, supernode, source) -> slot index} for senders.
    slot_of: dict[int, dict[tuple[int, int, int, tuple | None], int]] = field(
        default_factory=dict
    )
    # (J) -> ranks (other than diag owner) owning blocks in column J.
    x_targets: dict[int, list[int]] = field(default_factory=dict)
    # diag supernode J -> number of contributions (local + remote blocks).
    contrib_total: dict[int, int] = field(default_factory=dict)
    # rank -> blocks (I, J) it owns (I > J, off-diagonal).
    owned_blocks: dict[int, list[tuple[int, int]]] = field(default_factory=dict)
    # rank -> diag supernodes it owns.
    owned_diags: dict[int, list[int]] = field(default_factory=dict)

    @classmethod
    def build(cls, matrix: SupernodalMatrix, layout: BlockCyclicLayout) -> "CommPlan":
        plan = cls(matrix=matrix, layout=layout)
        P = layout.nranks
        plan.expected = {r: [] for r in range(P)}
        plan.slot_of = {r: {} for r in range(P)}
        plan.owned_blocks = {r: [] for r in range(P)}
        plan.owned_diags = {r: [] for r in range(P)}

        for J in range(matrix.n_supernodes):
            diag_rank = layout.diag_owner(J)
            plan.owned_diags[diag_rank].append(J)
            col = matrix.column_blocks(J)
            plan.contrib_total[J] = len(matrix.row_blocks(J))
            # x_J fan-out: every rank owning a block in column J (I > J).
            targets = sorted(
                {layout.owner(I, J) for I in col} - {diag_rank}
            )
            plan.x_targets[J] = targets
            for I in col:
                plan.owned_blocks[layout.owner(I, J)].append((I, J))

        def add_expected(dst: int, msg_kind: int, sn: int, src: int, words: int,
                         block=None) -> None:
            slot = len(plan.expected[dst])
            plan.expected[dst].append(
                ExpectedMsg(
                    kind=msg_kind,
                    supernode=sn,
                    source=src,
                    words=words,
                    slot=slot,
                    block=block,
                )
            )
            plan.slot_of[dst][(msg_kind, sn, src, block)] = slot

        # Enumerate messages in deterministic (supernode-major) order.
        for J in range(matrix.n_supernodes):
            diag_rank = layout.diag_owner(J)
            for dst in plan.x_targets[J]:
                add_expected(dst, X_MSG, J, diag_rank, matrix.widths[J])
            # Each off-diagonal block (I, J) produces one lsum message to
            # the diagonal owner of row I, unless it lives there already.
            for I in matrix.column_blocks(J):
                src = layout.owner(I, J)
                dst = layout.diag_owner(I)
                if src != dst:
                    add_expected(
                        dst, LSUM_MSG, I, src, matrix.widths[I], block=(I, J)
                    )
        return plan

    # -- per-rank query helpers ----------------------------------------------

    def expected_count(self, rank: int) -> int:
        return len(self.expected.get(rank, []))

    def window_words(self, rank: int) -> int:
        """Total receive-buffer words needed by ``rank`` (one-sided)."""
        return sum(m.words for m in self.expected.get(rank, []))

    def slot_offsets(self, rank: int) -> list[int]:
        """Word offset of each slot in the rank's receive window."""
        offs = [0]
        for m in self.expected.get(rank, []):
            offs.append(offs[-1] + m.words)
        return offs[:-1]

    def describe(self) -> str:
        m, lay = self.matrix, self.layout
        total_msgs = sum(len(v) for v in self.expected.values())
        sizes = [msg.words * 8 for v in self.expected.values() for msg in v]
        lines = [
            f"SpTRSV plan: n={m.n}, {m.n_supernodes} supernodes, nnz={m.nnz}",
            f"  process grid {lay.pr}x{lay.pc} = {lay.nranks} ranks",
            f"  remote messages: {total_msgs}",
        ]
        if sizes:
            lines.append(
                f"  message sizes: min={min(sizes)} B, max={max(sizes)} B, "
                f"avg={sum(sizes) / len(sizes):.0f} B"
            )
        lines.append(f"  DAG critical path: {m.critical_path_length()} supernodes")
        return "\n".join(lines)
