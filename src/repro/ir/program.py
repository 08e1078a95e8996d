"""IR programs: per-rank op lists grouped into per-iteration regions.

A program lists every op up front — prologue (untimed, before the
measured window opens), a sequence of :class:`Region` (the timed
iterations), and an epilogue (after the window closes, e.g. a trailing
barrier that the runner deliberately excludes from its measurement) — so
a pass can rewrite it and :mod:`repro.ir.cost` can price it.  An op
stream that only exists at run time (SpTRSV's wavefronts, the hashtable's
CAS-steered collision handling) has nothing for either to read and is a
plain rank program, not an :class:`IRProgram`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable

from repro.ir.ops import Op

__all__ = ["Region", "IRProgram", "region_for_all", "static_program"]


@dataclass(frozen=True)
class Region:
    """One timed region (usually one iteration): per-rank op tuples."""

    name: str
    body: tuple[tuple[Op, ...], ...]  # indexed by rank

    def rank_ops(self, rank: int) -> tuple[Op, ...]:
        return self.body[rank]


def region_for_all(name: str, nranks: int, per_rank) -> Region:
    """Build a region from ``per_rank(rank) -> list[Op]``."""
    return Region(
        name=name, body=tuple(tuple(per_rank(r)) for r in range(nranks))
    )


@dataclass(frozen=True)
class IRProgram:
    """A complete communication-pattern program for one job.

    Attributes:
        name: workload label (appears in explain reports and obs names).
        spec: the channel spec (HaloSpec/MailboxSpec/BatchSpec/
            AtomicDomainSpec) the job opens.  Passes may *replace* it —
            coalescing n puts of b bytes rewrites ``BatchSpec(b)`` to
            ``BatchSpec(n*b)``.
        nranks: job size.
        runtime: backend name; the auto-backend pass may replace it.
        prologue/regions/epilogue: per-rank op tuples (see module doc).
        setup: per-rank ``setup(ctx, chan, ep, state) -> None`` run before
            the prologue (pure python: allocate local arrays, read
            ``ep.local(...)`` views — never yields).
        finalize: ``finalize(ctx, state, elapsed) -> result`` built after
            the epilogue; defaults to returning ``elapsed``.
        portable: True when the op vocabulary used is backend-agnostic,
            which is what licenses the auto-backend pass to retarget it.
        meta: free-form builder notes (e.g. execute flag) for reports.
    """

    name: str
    spec: Any
    nranks: int
    runtime: str
    prologue: tuple[tuple[Op, ...], ...] = ()
    regions: tuple[Region, ...] = ()
    epilogue: tuple[tuple[Op, ...], ...] = ()
    setup: Callable | None = field(default=None, compare=False)
    finalize: Callable | None = field(default=None, compare=False)
    portable: bool = False
    meta: dict = field(default_factory=dict, compare=False)

    def with_(self, **changes) -> "IRProgram":
        return replace(self, **changes)

    def op_count(self) -> int:
        """Total ops across ranks."""
        total = 0
        for part in (self.prologue, self.epilogue):
            total += sum(len(ops) for ops in part)
        for region in self.regions:
            total += sum(len(ops) for ops in region.body)
        return total


def static_program(
    name: str,
    spec: Any,
    nranks: int,
    runtime: str,
    *,
    prologue=None,
    regions=(),
    epilogue=None,
    setup=None,
    finalize=None,
    portable: bool = False,
    meta: dict | None = None,
) -> IRProgram:
    """Convenience constructor normalising per-rank op containers.

    ``prologue``/``epilogue`` accept either a per-rank sequence of op
    lists or a single op list applied to every rank (the common "all
    ranks barrier" case).
    """

    def norm(part) -> tuple[tuple[Op, ...], ...]:
        if part is None:
            return tuple(() for _ in range(nranks))
        part = list(part)
        if part and isinstance(part[0], Op):
            return tuple(tuple(part) for _ in range(nranks))
        if len(part) != nranks:
            raise ValueError(
                f"per-rank op lists must have nranks={nranks} entries, "
                f"got {len(part)}"
            )
        return tuple(tuple(ops) for ops in part)

    return IRProgram(
        name=name,
        spec=spec,
        nranks=nranks,
        runtime=runtime,
        prologue=norm(prologue),
        regions=tuple(regions),
        epilogue=norm(epilogue),
        setup=setup,
        finalize=finalize,
        portable=portable,
        meta=dict(meta or {}),
    )
