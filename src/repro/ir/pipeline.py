"""The pass catalog: coalesce, overlap, sync-elide.

Every pass is a function ``(program, machine)`` that rewrites one
pattern and returns ``(rewritten, kind, count, detail)`` — what kind of
rewrite, how many sites merged/moved/elided — or ``None`` when it does
not apply.  Passes fire only when the rewrite is provably
semantics-preserving for the lowering in :mod:`repro.ir.lower` — the
conditions are documented per pass — and :class:`PassPipeline` prices
every rewrite and keeps it only where it wins, pinned by the property
suite (cost never increases; running a pipeline twice equals running it
once).
"""

from __future__ import annotations

import dataclasses
from collections.abc import Collection
from dataclasses import dataclass

from repro.ir import ops as O
from repro.ir.cost import program_cost
from repro.ir.program import IRProgram, Region
from repro.transport.api import BatchSpec

__all__ = [
    "Rewrite",
    "PassPipeline",
    "DEFAULT_PASSES",
    "build_pipeline",
]

@dataclass(frozen=True)
class Rewrite:
    """One fired rewrite: what, how many sites, and the modeled win."""

    pass_name: str
    kind: str
    count: int
    detail: str
    before: float
    after: float

    @property
    def win(self) -> float:
        return self.before - self.after


def _map_regions(program: IRProgram, fn) -> IRProgram:
    return program.with_(regions=tuple(fn(r) for r in program.regions))


def coalesce(program: IRProgram, machine):
    """Merge a flood's small messages into one bulk-engine message.

    ``BatchSend(dst, it, n)`` against ``BatchWait(src, it, n)`` becomes a
    batch of one ``n * nbytes`` message (``n=1`` on both ops, the spec
    itself rewritten), which every backend's batch channel already
    handles.  Applies only when n is uniform across the program (the spec
    is global) and n >= 2; kept only where the model says it wins (a
    bandwidth-bound batch, ``B*G >= o``, gains nothing by merging).
    """
    spec = program.spec
    if not isinstance(spec, BatchSpec):
        return None
    kinds = (O.BatchSend, O.BatchWait)
    counts = {
        op.n
        for region in program.regions
        for ops in region.body
        for op in ops
        if isinstance(op, kinds)
    }
    if len(counts) != 1:
        return None
    n = counts.pop()
    if n < 2:
        return None

    def rewrite(region: Region) -> Region:
        return Region(region.name, tuple(
            tuple(
                dataclasses.replace(op, n=1) if isinstance(op, kinds) else op
                for op in ops
            )
            for ops in region.body
        ))

    p2 = _map_regions(program, rewrite).with_(
        spec=dataclasses.replace(spec, nbytes=n * spec.nbytes)
    )
    return (p2, "batch", len(p2.regions),
            f"{spec.nbytes} B x n -> {p2.spec.nbytes} B x 1 per sync")


def overlap(program: IRProgram, machine):
    """Schedule halo-independent compute against in-flight transfers.

    A ``Compute`` carrying ``interior_frac=f`` declares that fraction of
    its modeled work independent of the epoch's incoming halos.  The
    pass splits it: the interior share (model-only, no ``fn``) moves in
    front of the preceding ``HaloFinish``; the boundary share — with the
    *full* real ``fn`` — stays after it.  Execute-mode arrays are
    untouched because ``fn`` still runs entirely after the halos land;
    only the modeled clock overlaps.  The split ops carry no
    ``interior_frac``, so the pass is idempotent.
    """
    moved = 0

    def rewrite(region: Region) -> Region:
        nonlocal moved
        body = []
        for ops in region.body:
            ops = list(ops)
            ci = next(
                (i for i, op in enumerate(ops)
                 if isinstance(op, O.Compute)
                 and op.interior_frac is not None
                 and 0.0 < op.interior_frac < 1.0), None,
            )
            fi = None
            if ci is not None:
                fi = next(
                    (i for i in range(ci - 1, -1, -1)
                     if isinstance(ops[i], O.HaloFinish)), None,
                )
            if ci is None or fi is None:
                body.append(tuple(ops))
                continue
            op = ops[ci]
            f = op.interior_frac
            interior = O.Compute(nbytes=op.nbytes * f, flops=op.flops * f)
            boundary = O.Compute(
                nbytes=op.nbytes * (1.0 - f),
                flops=op.flops * (1.0 - f),
                seconds=(None if op.seconds is None
                         else op.seconds * (1.0 - f)),
                fn=op.fn,
            )
            if op.seconds is not None:
                interior = dataclasses.replace(
                    interior, seconds=op.seconds * f
                )
            ops[ci] = boundary
            ops.insert(fi, interior)
            moved += 1
            body.append(tuple(ops))
        return Region(region.name, tuple(body))

    p2 = _map_regions(program, rewrite)
    if not moved:
        return None
    return (p2, "pipeline", moved,
            f"{moved} interior-compute slices moved before finish")


def sync_elide(program: IRProgram, machine):
    """Drop epoch-opening fences that are provably redundant.

    On backends whose caps declare ``fence_epochs`` (one-sided MPI RMA:
    ``begin``/``finish`` are both ``Win_fence``), the iteration pattern
    ``finish(it-1) ... begin(it)`` closes one epoch and immediately
    opens the next with no intervening exposure — the textbook
    ``MPI_MODE_NOPRECEDE`` collapse.  In the model this is exact:
    ``finish`` is collective, halo reads complete atomically at its exit
    timestamp, and every post-fence put delivers strictly later.  The
    pass removes ``HaloBegin`` from *every* rank of a region at once
    (fences are collective — rank counts must stay matched) and never
    touches a region containing ``HaloBegin(it=0)``, the epoch that
    first exposes the windows.

    No other backend's ``begin`` runs a fence: a stream-ordered or
    signal-driven epoch-open is already free, so there is nothing to
    elide.
    """
    from repro.transport.registry import get_backend

    if not get_backend(program.runtime).caps.fence_epochs:
        return None
    elided = 0

    def rewrite(region: Region) -> Region:
        nonlocal elided
        begins = [
            op for ops in region.body for op in ops
            if isinstance(op, O.HaloBegin)
        ]
        if not begins or any(op.it == 0 for op in begins):
            return region
        elided += len(begins)
        return Region(region.name, tuple(
            tuple(op for op in ops if not isinstance(op, O.HaloBegin))
            for ops in region.body
        ))

    p2 = _map_regions(program, rewrite)
    if not elided:
        return None
    return (p2, "fence", elided,
            f"{elided} redundant epoch-open fences removed")


# The registry, in the one order every pipeline runs its passes.
_PASSES = {
    "coalesce": coalesce,
    "overlap": overlap,
    "sync-elide": sync_elide,
}

DEFAULT_PASSES = ("coalesce", "overlap", "sync-elide")


@dataclass(frozen=True)
class PassPipeline:
    """A set of built-in pass names, held (and run) in :data:`_PASSES` order."""

    passes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if isinstance(self.passes, (str, bytes)) or not isinstance(
            self.passes, Collection
        ):
            raise TypeError(
                "passes must be a bool, None, a PassPipeline or a collection "
                f"of pass names, not {self.passes!r}"
            )
        unknown = [p for p in self.passes if p not in _PASSES]
        if unknown:
            raise ValueError(
                f"unknown IR pass {unknown[0]!r}; valid: " + ", ".join(_PASSES)
            )
        object.__setattr__(
            self, "passes", tuple(p for p in _PASSES if p in self.passes)
        )

    @property
    def enabled(self) -> bool:
        return bool(self.passes)

    def fingerprint(self) -> list[str]:
        """What a cache key says of this pipeline: its pass names."""
        return list(self.passes)

    def run(self, program: IRProgram, machine):
        """Apply every pass once, in order; returns (program, rewrites).

        A rewrite is kept only if it wins by more than 1e-9 of the cost
        (less is rounding).  Each pass removes its own precondition, so
        one ordered pass is a fixed point.
        """
        rewrites: list[Rewrite] = []
        cost = program_cost(program, machine)
        for name in self.passes:
            fired = _PASSES[name](program, machine)
            if fired is None:
                continue
            p2, kind, count, detail = fired
            after = program_cost(p2, machine)
            if cost - after > 1e-9 * cost:
                rewrites.append(Rewrite(name, kind, count, detail, cost, after))
                program, cost = p2, after
        return program, rewrites


def build_pipeline(spec=True) -> PassPipeline:
    """Normalise a pipeline spec: PassPipeline | bool | None | pass names.

    ``True`` is :data:`DEFAULT_PASSES`; ``False`` / ``None`` the empty
    pipeline.  Names are a set: their order and repeats do not matter.
    """
    if isinstance(spec, PassPipeline):
        return spec
    if spec is None or spec is False:
        return PassPipeline()
    return PassPipeline(DEFAULT_PASSES if spec is True else spec)
