"""The pass catalog: coalesce, overlap, sync-elide, auto-backend.

Every pass maps an :class:`IRProgram` to a rewritten program
plus :class:`Rewrite` records (kind, how many sites merged/moved/
elided, and the modeled before/after cost around the application).
Passes fire only when the rewrite is provably semantics-preserving for
the lowering in :mod:`repro.ir.lower` — the conditions are documented
per pass — and :class:`PassPipeline` keeps a rewrite only where it wins,
pinned by the property suite (cost never increases; running a pipeline
twice equals running it once).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.ir import ops as O
from repro.ir.cost import program_cost
from repro.ir.program import IRProgram, Region
from repro.transport.api import BatchSpec

__all__ = [
    "Rewrite",
    "Pass",
    "CoalescePass",
    "OverlapPass",
    "SyncElidePass",
    "AutoBackendPass",
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


class Pass:
    """Base: ``run`` returns ``(program, rewrites)``; no-op by default."""

    name = "pass"

    def run(self, program: IRProgram, machine):  # pragma: no cover
        return program, []

    def _record(self, program, rewritten, machine, kind, count, detail):
        return Rewrite(
            pass_name=self.name,
            kind=kind,
            count=count,
            detail=detail,
            before=program_cost(program, machine),
            after=program_cost(rewritten, machine),
        )


def _map_regions(program: IRProgram, fn) -> IRProgram:
    return program.with_(regions=tuple(fn(r) for r in program.regions))


# ---------------------------------------------------------------------------
# coalesce
# ---------------------------------------------------------------------------


class CoalescePass(Pass):
    """Merge a flood's small messages into one bulk-engine message.

    ``BatchSend(dst, it, n)`` against ``BatchWait(src, it, n)`` becomes a
    batch of one ``n * nbytes`` message (``n=1`` on both ops, the spec
    itself rewritten), which every backend's batch channel already
    handles.  Applies only when n is uniform across the program (the spec
    is global) and n >= 2; kept only where the model says it wins (a
    bandwidth-bound batch, ``B*G >= o``, gains nothing by merging).
    """

    name = "coalesce"

    def run(self, program, machine):
        p2 = self._batch(program)
        if p2 is None:
            return program, []
        return p2, [self._record(
            program, p2, machine, "batch",
            count=len(p2.regions),
            detail=f"{program.spec.nbytes} B x n -> {p2.spec.nbytes} B x 1 per sync",
        )]

    def _batch(self, program):
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

        p2 = _map_regions(program, rewrite)
        return p2.with_(
            spec=dataclasses.replace(spec, nbytes=n * spec.nbytes)
        )


# ---------------------------------------------------------------------------
# overlap
# ---------------------------------------------------------------------------


class OverlapPass(Pass):
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

    name = "overlap"

    def run(self, program, machine):
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
            return program, []
        return p2, [self._record(
            program, p2, machine, "pipeline",
            count=moved,
            detail=f"{moved} interior-compute slices moved before finish",
        )]


# ---------------------------------------------------------------------------
# sync-elide
# ---------------------------------------------------------------------------


class SyncElidePass(Pass):
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

    name = "sync-elide"

    def run(self, program, machine):
        from repro.transport.registry import get_backend

        caps = get_backend(program.runtime).caps
        if not caps.fence_epochs:
            return program, []
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
            return program, []
        return p2, [self._record(
            program, p2, machine, "fence",
            count=elided,
            detail=f"{elided} redundant epoch-open fences removed",
        )]


# ---------------------------------------------------------------------------
# auto-backend
# ---------------------------------------------------------------------------


class AutoBackendPass(Pass):
    """Retarget a program to the cheapest backend on this machine.

    Every registered backend whose cost profile exists on ``machine`` is
    scored with :func:`program_cost`; the argmin wins.  An incumbent that
    ties it (or has no profile to win against) is no win, so the
    pipeline keeps the program where it is.  Both patterns are written
    once against the transport specs, with no backend-specific branch
    baked in, so every program may be retargeted.
    """

    name = "auto-backend"

    def run(self, program, machine):
        from repro.transport.registry import backend_names, get_backend

        costs = []
        for name in backend_names():
            backend = get_backend(name)
            try:
                backend.costs(machine)
            except KeyError:  # no cost profile on this machine
                continue
            costs.append((name, program_cost(
                program, machine, runtime=name
            )))
        if not costs:
            return program, []
        best_name, best = min(costs, key=lambda c: c[1])
        return program.with_(runtime=best_name), [Rewrite(
            pass_name=self.name,
            kind="retarget",
            count=1,
            detail=f"{program.runtime} -> {best_name}",
            before=dict(costs).get(program.runtime, best),
            after=best,
        )]


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

# The registry, in the one order every pipeline runs its passes.
# auto-backend precedes sync-elide: sync-elide branches on the *runtime's*
# declared caps, so eliding after the retarget is what keeps a pipeline
# idempotent (running it twice equals running it once).
_PASSES = {
    "coalesce": CoalescePass,
    "overlap": OverlapPass,
    "auto-backend": AutoBackendPass,
    "sync-elide": SyncElidePass,
}

DEFAULT_PASSES = ("coalesce", "overlap", "sync-elide")


@dataclass(frozen=True)
class PassPipeline:
    """A set of built-in pass names, held (and run) in :data:`_PASSES` order."""

    passes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
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

    def names(self) -> tuple[str, ...]:
        return self.passes

    def fingerprint(self) -> list[str]:
        """What a cache key says of this pipeline: its pass names."""
        return list(self.passes)

    def run(self, program: IRProgram, machine):
        """Apply every pass in order; returns (program, rewrites).

        A rewrite is kept only if it wins by more than 1e-9 of the cost
        (less is rounding).  The passes repeat until none is kept (a
        retarget can make an earlier pass win): the result is a fixed point.
        """
        rewrites: list[Rewrite] = []
        kept = True
        while kept:
            kept = False
            for name in self.passes:
                p2, rws = _PASSES[name]().run(program, machine)
                if any(rw.win > 1e-9 * rw.before for rw in rws):
                    program, kept = p2, True
                    rewrites.extend(rws)
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
    return PassPipeline(tuple(DEFAULT_PASSES if spec is True else spec))
