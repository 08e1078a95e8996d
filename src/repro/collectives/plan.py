"""Collective plans: which algorithm runs and its round structure.

A :class:`CollectivePlan` is the static shape of one collective call —
enough to size the round-slotted mailbox (one signal slot per round, one
data region per slot in execute mode) before any rank program runs, and
for every backend to agree on the same schedule.  :func:`plan_collective`
resolves ``algorithm="auto"`` through the LogGP selector.

Size conventions (``nelems`` is in window words of 8 bytes):

================  =====================================================
collective        ``nelems`` means
================  =====================================================
allreduce         full vector length (same on every rank)
reduce_scatter    full input vector length; output is the rank's chunk
allgather         per-rank block length; output is ``nranks * nelems``
alltoall          per-destination block length (``nranks * nelems`` local)
broadcast         full vector length
barrier           ignored (always 0)
================  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "COLLECTIVES",
    "ALGORITHMS",
    "STRIPEABLE",
    "CollectiveError",
    "CollectivePlan",
    "plan_collective",
]

# collective -> its algorithm strategies, selector-preference order first.
ALGORITHMS: dict[str, tuple[str, ...]] = {
    "allreduce": ("ring", "recursive_doubling"),
    "allgather": ("ring", "recursive_doubling"),
    "reduce_scatter": ("ring", "recursive_halving"),
    "alltoall": ("pairwise", "ring"),
    "broadcast": ("tree", "ring"),
    "barrier": ("dissemination", "tree"),
}

COLLECTIVES: tuple[str, ...] = tuple(ALGORITHMS)

# Algorithms whose data rounds split into ``stripes`` concurrent
# sub-messages (NCCL's multi-ring: recover multi-port bandwidth).
STRIPEABLE: frozenset[tuple[str, str]] = frozenset(
    {
        ("allreduce", "ring"),
        ("reduce_scatter", "ring"),
        ("allgather", "ring"),
        ("alltoall", "ring"),
        ("broadcast", "ring"),
    }
)


# Bytes per word: the element of the collective channel's data window
# (MailboxSpec's float64 default).  A float, so byte counts stay floats.
_WORD = 8.0


class CollectiveError(ValueError):
    """Invalid collective plan (unknown name, bad size, bad strategy)."""


def _ceil_log2(n: int) -> int:
    return max(n - 1, 0).bit_length()


def _pof2(n: int) -> tuple[int, int]:
    """Largest power of two <= n and the remainder (MPICH fold size)."""
    p = 1 << (n.bit_length() - 1)
    return p, n - p


def _check_sizes(nranks: int, nelems: int) -> None:
    if nranks < 1:
        raise CollectiveError(f"nranks must be >= 1, got {nranks}")
    if nelems < 0:
        raise CollectiveError(f"nelems must be >= 0, got {nelems}")


@dataclass(frozen=True)
class CollectivePlan:
    """One collective call's static shape, shared by all backends."""

    coll: str
    algorithm: str
    nranks: int
    nelems: int
    stripes: int = 1

    def __post_init__(self):
        if self.coll not in ALGORITHMS:
            raise CollectiveError(
                f"unknown collective {self.coll!r}; valid: "
                + ", ".join(COLLECTIVES)
            )
        if self.algorithm not in ALGORITHMS[self.coll]:
            raise CollectiveError(
                f"unknown {self.coll} algorithm {self.algorithm!r}; valid: "
                + ", ".join(ALGORITHMS[self.coll])
            )
        _check_sizes(self.nranks, self.nelems)
        if self.stripes < 1:
            raise CollectiveError(f"stripes must be >= 1, got {self.stripes}")
        if self.stripes > 1 and (self.coll, self.algorithm) not in STRIPEABLE:
            raise CollectiveError(
                f"striping is only supported for ring algorithms, not "
                f"{self.coll}/{self.algorithm}"
            )
        if self.coll != "barrier" and self.nelems == 0:
            raise CollectiveError(f"{self.coll} needs nelems >= 1")
        if self.coll == "alltoall" and self.algorithm == "pairwise":
            p, rem = _pof2(self.nranks)
            if rem:
                raise CollectiveError(
                    "pairwise alltoall needs a power-of-two nranks "
                    f"(got {self.nranks}); use algorithm='ring'"
                )

    # -- round structure ------------------------------------------------

    @property
    def rounds(self) -> int:
        """Signal slots this plan consumes (one per schedule round)."""
        P = self.nranks
        if P == 1:
            return 0
        pof2, rem = _pof2(P)
        L = pof2.bit_length() - 1
        fold = 2 if rem else 0
        return {
            ("allreduce", "ring"): 2 * (P - 1),
            ("allreduce", "recursive_doubling"): L + fold,
            ("allgather", "ring"): P - 1,
            ("allgather", "recursive_doubling"): L + fold,
            ("reduce_scatter", "ring"): P - 1,
            ("reduce_scatter", "recursive_halving"): L + fold,
            ("alltoall", "pairwise"): P - 1,
            ("alltoall", "ring"): P - 1,
            ("broadcast", "tree"): _ceil_log2(P),
            ("broadcast", "ring"): P - 1,
            ("barrier", "dissemination"): _ceil_log2(P),
            ("barrier", "tree"): 2 * _ceil_log2(P),
        }[(self.coll, self.algorithm)]

    @property
    def slot_words(self) -> int:
        """Upper bound on any one round message, in words (execute-mode
        data-slot sizing)."""
        if self.coll == "barrier":
            return 0
        if self.coll in ("allgather",):
            return self.nranks * self.nelems  # recursive-doubling fold-out
        return self.nelems

    @property
    def nbytes(self) -> float:
        """The collective's message size ``m`` (Hockney/selector units)."""
        return self.nelems * _WORD


def plan_collective(
    coll: str,
    *,
    nranks: int,
    nelems: int,
    algorithm: str = "auto",
    stripes: int = 1,
    machine=None,
    runtime: str | None = None,
):
    """Resolve ``algorithm`` (possibly ``"auto"``) into a
    :class:`CollectivePlan`; returns ``(plan, selection)``.

    ``selection`` is the :class:`repro.collectives.selector.Selection`
    with the modeled per-algorithm costs (its ``explain()`` reports the
    choice) when the selector ran — ``algorithm="auto"`` needs ``machine``
    and ``runtime`` — otherwise None.  Sizes are checked before selecting.
    """
    _check_sizes(nranks, nelems)
    selection = None
    if algorithm == "auto":
        from repro.collectives.selector import select

        if machine is None or runtime is None:
            raise CollectiveError(
                "algorithm='auto' needs machine= and runtime= to model costs"
            )
        selection = select(
            coll,
            nranks=nranks,
            nbytes=nelems * _WORD,
            machine=machine,
            runtime=runtime,
        )
        algorithm = selection.algorithm
    plan = CollectivePlan(
        coll=coll,
        algorithm=algorithm,
        nranks=nranks,
        nelems=nelems,
        stripes=stripes,
    )
    return plan, selection
