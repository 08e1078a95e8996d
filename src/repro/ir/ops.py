"""The communication-pattern op vocabulary (ROADMAP item 4).

Every op is a frozen dataclass naming one transport verb (or one unit of
local work) over the two patterns a pass rewrites: the halo exchange
(:class:`HaloSpec`) and the batch flood (:class:`BatchSpec`).  An op
exists for what a builder constructs and a pass or :mod:`repro.ir.cost`
reads; the verbs of a program no pass can rewrite (SpTRSV, the
hashtable, the CAS flood, the collectives) are endpoint calls in a plain
rank program, never ops.
Programs (:mod:`repro.ir.program`) group ops into per-iteration regions;
the interpreter (:mod:`repro.ir.lower`) maps each op onto exactly the
endpoint-verb calls the hand-written runners used to make, so a lowering
with no passes applied is byte-identical to the pre-IR runners.

Value/callback fields are ``compare=False``: two ops are equal when they
describe the same *pattern*, regardless of which closures carry the
payload.  A callable in a ``values`` position is resolved at
lowering time against the per-rank ``state`` dict, which is how
execute-mode programs read arrays that only exist once the job runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = [
    "Op",
    "HaloBegin",
    "HaloPut",
    "HaloFinish",
    "BatchSend",
    "BatchWait",
    "Compute",
    "Barrier",
]


@dataclass(frozen=True)
class Op:
    """Base class: every IR op is immutable and hashable-by-pattern."""


# ---------------------------------------------------------------------------
# halo exchange (HaloSpec channels): BSP epochs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HaloBegin(Op):
    """Open the exchange epoch for iteration ``it`` (fence / irecv posts)."""

    it: int


@dataclass(frozen=True)
class HaloPut(Op):
    """Put one edge strip to neighbour ``dst``.

    ``values`` is ``None`` (simulate mode) or a callable
    ``state -> ndarray`` resolved at lowering time (execute mode reads
    the *current* local block, which passes must not capture early).
    """

    seg: str
    dst: int
    values: Callable[[dict], Any] | None = field(default=None, compare=False)


@dataclass(frozen=True)
class HaloFinish(Op):
    """Close the epoch; ``on_done(state, received)`` consumes the halos."""

    it: int
    on_done: Callable[[dict, dict], None] | None = field(
        default=None, compare=False
    )


# ---------------------------------------------------------------------------
# batch flood (BatchSpec channels)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BatchSend(Op):
    """Send iteration ``it``'s batch: ``n`` back-to-back ``spec.nbytes``
    messages to ``dst``, then the sender-side completion (``ep.send_batch``)."""

    dst: int
    it: int
    n: int


@dataclass(frozen=True)
class BatchWait(Op):
    """Receiver side: wait for the ``n``-message batch of iteration ``it``."""

    src: int
    it: int
    n: int


# ---------------------------------------------------------------------------
# local work and job-wide sync
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Compute(Op):
    """Advance the rank clock by modelled (nbytes/flops) or explicit time.

    ``fn(state)`` runs *before* the clock advance, exactly where the
    hand-written runners did their real numpy work.  ``interior_frac``
    marks a sweep whose leading fraction is independent of the in-flight
    halos — the hint the overlap pass consumes (and clears, so the pass
    is idempotent).
    """

    nbytes: float = 0.0
    flops: float = 0.0
    seconds: float | None = None
    fn: Callable[[dict], None] | None = field(default=None, compare=False)
    interior_frac: float | None = None


@dataclass(frozen=True)
class Barrier(Op):
    """Job-wide barrier (``ctx.barrier()``)."""
