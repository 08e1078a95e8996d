"""IR programs: per-rank op lists grouped into per-iteration regions.

A program lists every timed op up front — a sequence of :class:`Region`
(the measured iterations) — so a pass can rewrite it and
:mod:`repro.ir.cost` can price it.  Every program opens with one job-wide
barrier before its window; the lowering issues it, so it is not an op.
Only the halo and batch patterns are programs: an op stream no pass could
rewrite (SpTRSV's wavefronts, the hashtable's inserts, the CAS flood's
stream) is a plain rank program, not an :class:`IRProgram`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable

from repro.ir.ops import Op

__all__ = ["Region", "IRProgram", "region_for_all"]


@dataclass(frozen=True)
class Region:
    """One timed region (usually one iteration): per-rank op tuples."""

    name: str
    body: tuple[tuple[Op, ...], ...]  # indexed by rank


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
        spec: the channel spec (HaloSpec/BatchSpec) the job opens.  Passes
            may *replace* it — coalescing n puts of b bytes rewrites
            ``BatchSpec(b)`` to ``BatchSpec(n*b)``.
        nranks: job size.
        runtime: backend name.
        regions: the timed regions, in order (see module doc).
        setup: per-rank ``setup(ctx, chan, ep, state) -> None`` run before
            the opening barrier (pure python: allocate local arrays, read
            ``ep.local(...)`` views — never yields).
        finalize: ``finalize(ctx, state, elapsed) -> result`` built after
            the last region; defaults to returning ``elapsed``.
    """

    name: str
    spec: Any
    nranks: int
    runtime: str
    regions: tuple[Region, ...] = ()
    setup: Callable | None = field(default=None, compare=False)
    finalize: Callable | None = field(default=None, compare=False)

    def with_(self, **changes) -> "IRProgram":
        return replace(self, **changes)
