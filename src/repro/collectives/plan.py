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

import math
from dataclasses import dataclass

from repro.collectives.algorithms import STRATEGIES
from repro.util.validation import check_count, check_non_negative

__all__ = [
    "COLLECTIVES",
    "ALGORITHMS",
    "STRIPEABLE",
    "CollectiveError",
    "CollectivePlan",
    "plan_collective",
]

# Views of the strategy records (repro.collectives.algorithms).
# collective -> its algorithm strategies, selector-preference order first.
ALGORITHMS: dict[str, tuple[str, ...]] = {
    coll: tuple(strategies) for coll, strategies in STRATEGIES.items()
}

COLLECTIVES: tuple[str, ...] = tuple(ALGORITHMS)

# Algorithms whose data rounds split into ``stripes`` concurrent
# sub-messages (NCCL's multi-ring: recover multi-port bandwidth).
STRIPEABLE: frozenset[tuple[str, str]] = frozenset(
    (s.coll, s.name)
    for strategies in STRATEGIES.values()
    for s in strategies.values()
    if s.stripeable
)


# Bytes per word: the element of the collective channel's data window
# (MailboxSpec's float64 default).  A float, so byte counts stay floats.
_WORD = 8.0


class CollectiveError(ValueError):
    """Invalid collective plan (unknown name, bad size, bad strategy)."""


def _words(coll: str, nelems, nbytes) -> int:
    """The size a caller gave as ``nelems`` (words) or ``nbytes`` (rounded
    up to whole words); a barrier moves none."""
    if coll == "barrier":
        return 0
    if (nelems is None) == (nbytes is None):
        raise CollectiveError(f"{coll} needs exactly one of nelems=/nbytes=")
    if nelems is not None:
        return check_count("nelems", nelems, 0, CollectiveError)
    return math.ceil(check_non_negative("nbytes", nbytes, CollectiveError) / _WORD)


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
        check_count("nranks", self.nranks, 1, CollectiveError)
        check_count("nelems", self.nelems, 0, CollectiveError)
        check_count("stripes", self.stripes, 1, CollectiveError)
        if refusal := self.strategy.refusal(self.nranks, self.stripes):
            raise CollectiveError(refusal)
        if self.coll != "barrier" and self.nelems == 0:
            raise CollectiveError(f"{self.coll} needs nelems >= 1")

    @property
    def strategy(self):
        """The :class:`~repro.collectives.algorithms.Strategy` record."""
        return STRATEGIES[self.coll][self.algorithm]

    @property
    def rounds(self) -> int:
        """Signal slots this plan consumes (one per schedule round)."""
        return self.strategy.rounds(self.nranks)

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
    and ``runtime`` — otherwise None.  Sizes are checked before selecting,
    and the selector picks among the strategies that run ``stripes``.
    """
    selection = None
    if algorithm == "auto":
        from repro.collectives.selector import select

        if machine is None or runtime is None:
            raise CollectiveError(
                "algorithm='auto' needs machine= and runtime= to model costs"
            )
        nelems = check_count("nelems", nelems, 0, CollectiveError)
        selection = select(
            coll,
            nranks=check_count("nranks", nranks, 1, CollectiveError),
            nbytes=nelems * _WORD,
            machine=machine,
            runtime=runtime,
            stripes=stripes,
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
