"""Distributed 2D stencil (paper §III-A).

Per iteration every rank exchanges four halo strips with its grid neighbors
and then relaxes its local block.  The exchange is written once against the
transport :class:`HaloSpec` channel (``begin`` / ``put`` / ``finish``); the
runtime backend supplies the op sequence — two-sided Isend/Irecv/Waitall,
one-sided puts within a fence pair, or fused GPU put-with-signal (see
docs/TRANSPORT.md).  All backends share the same decomposition and the same
communication structure (message concurrency = number of neighbors, message
size = halo size), exactly the design-portability point the paper makes.

``mode="execute"`` does the real numpy Jacobi math on the payloads and the
result is verifiable against the serial reference; ``mode="simulate"`` moves
only byte counts (for paper-scale grids).  Both charge the same modelled
compute time, so timings are comparable across modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
from typing import NamedTuple

import numpy as np

from repro.ir import ops as O
from repro.ir.lower import run_program
from repro.ir.program import IRProgram, Region, static_program
from repro.machines.base import MachineModel
from repro.transport import HaloSpec
from repro.workloads.base import WorkloadResult
from repro.workloads.stencil.decomposition import DIRECTIONS, ProcessGrid
from repro.workloads.stencil.kernels import (
    heat_step,
    initial_grid,
    jacobi_step,
    stencil_bytes,
    stencil_flops,
)

__all__ = ["StencilConfig", "build_stencil_program", "run_stencil"]


@dataclass(frozen=True)
class StencilConfig:
    """Stencil problem description.

    The paper's test case is ``nx = ny = 16384``, 1000 iterations, process
    grids 2x2 .. 16x8 (message sizes 2^16 down to 2^13 bytes).
    """

    nx: int = 16384
    ny: int = 16384
    iters: int = 10
    mode: str = "simulate"  # "simulate" | "execute"
    # "jacobi": Laplace relaxation with a hot edge (default, simplest to
    # verify).  "heat": the paper's tutorial stencil — explicit heat
    # diffusion with ``nsources`` point sources injecting ``energy`` per
    # iteration into a cold field (its CLI: grid, energy, iters, px, py).
    variant: str = "jacobi"
    energy: float = 1.0
    nsources: int = 3

    def __post_init__(self) -> None:
        for name, low in (("nx", 3), ("ny", 3), ("iters", 1), ("nsources", 0)):
            value = getattr(self, name)
            if not isinstance(value, Integral) or value < low:
                raise ValueError(
                    f"stencil {name} must be an integer >= {low}, got {value}"
                )
        if not math.isfinite(self.energy):
            raise ValueError(f"stencil energy must be finite, got {self.energy}")
        if self.mode not in ("simulate", "execute"):
            raise ValueError(f"mode must be simulate|execute, got {self.mode!r}")
        if self.variant not in ("jacobi", "heat"):
            raise ValueError(f"variant must be jacobi|heat, got {self.variant!r}")

    def source_positions(self) -> list[tuple[int, int]]:
        """Deterministic global (row, col) source positions, interior-only."""
        out = []
        for i in range(self.nsources):
            r = min(max(self.ny * (i + 1) // (self.nsources + 1), 1), self.ny - 2)
            c = min(max(self.nx * (i + 1) // (self.nsources + 1), 1), self.nx - 2)
            out.append((r, c))
        return out


class _Side(NamedTuple):
    """One stencil offset as lines of a halo-padded block (row = y, column
    = x), read off the offset's axis and sign: ``halo`` is the halo line on
    that side (the global grid's boundary line has the same index),
    ``edge`` the owned line next to it (what is sent toward that side, and
    what a global boundary there pins), ``fills`` the receiver's halo line
    that a strip sent toward that side lands in."""

    axis: int  # 0: the offset crosses rows, so its strips are rows
    halo: int
    edge: int
    fills: int

    def line(self, k: int, span: slice = slice(1, -1)) -> tuple:
        return (k, span) if self.axis == 0 else (span, k)


# (halo, edge, fills): toward the last row / column, else toward the first.
_SIDES = {
    d: _Side(0 if dy else 1, *((-1, -2, 0) if dx + dy > 0 else (0, 1, -1)))
    for d, (dx, dy) in DIRECTIONS.items()
}


class _RankPlan(NamedTuple):
    """One rank's block of the global grid and its neighbours by side, in
    exchange order."""

    rows: slice
    cols: slice
    neighbors: dict[str, int]

    @property
    def bx(self) -> int:
        return self.cols.stop - self.cols.start

    @property
    def by(self) -> int:
        return self.rows.stop - self.rows.start


def _layout(grid: ProcessGrid, nx: int, ny: int) -> tuple[list[_RankPlan], HaloSpec]:
    """Every rank's geometry and the exchange's :class:`HaloSpec`.

    A rank's halo window holds one strip per side in ``DIRECTIONS`` order,
    announced by the side's index; the neighbour on a side fills it with
    the strip it sends toward the opposite side.  Blocks can be uneven, so
    each rank's layout is its own.
    """
    plans, landing = [], {}
    for rank in range(grid.nranks):
        plan = _RankPlan(*grid.block(rank, nx, ny), grid.neighbors(rank))
        sites, offset = {}, 0
        for slot, (d, side) in enumerate(_SIDES.items()):
            nelems = plan.bx if side.axis == 0 else plan.by
            sites[d] = (slot, offset, nelems)
            offset += nelems
        landing[rank] = {
            ProcessGrid.opposite(d): (nb, *sites[d])
            for d, nb in plan.neighbors.items()
        }
        plans.append(plan)
    win_count = max(2 * (p.bx + p.by) for p in plans)
    return plans, HaloSpec(landing=landing, win_count=win_count, dtype=np.float64)


def _local_state(plan: _RankPlan, cfg: StencilConfig) -> dict:
    """Execute mode's initial block (with halo ring), its sweep scratch, the
    owned global-boundary lines to pin and the heat sources, all local."""
    if cfg.variant == "heat":
        u0 = np.zeros((cfg.ny, cfg.nx), dtype=np.float64)
    else:
        u0 = initial_grid(cfg.nx, cfg.ny)
    rows, cols = plan.rows, plan.cols
    local = np.zeros((plan.by + 2, plan.bx + 2), dtype=np.float64)
    local[1:-1, 1:-1] = u0[rows, cols]
    # Global-boundary halo lines (no neighbour on that side) hold the fixed
    # Dirichlet values.
    sides = [side for d, side in _SIDES.items() if d not in plan.neighbors]
    for side in sides:
        span = cols if side.axis == 0 else rows
        local[side.line(side.halo)] = u0[side.line(side.halo, span)]
    edges = [side.line(side.edge, slice(None)) for side in sides]
    return {
        "local": local,
        "scratch": local.copy(),
        "pinned": [(e, local[e].copy()) for e in edges],
        "sources": [
            (r - rows.start + 1, c - cols.start + 1)
            for r, c in cfg.source_positions()
            if rows.start <= r < rows.stop and cols.start <= c < cols.stop
        ],
    }


def _sweep_fn(cfg: StencilConfig):
    """The real numpy sweep (execute mode), run where the hand-written
    runner ran it: after the halos land, before the modelled compute."""

    def fn(state: dict) -> None:
        local, scratch = state["local"], state["scratch"]
        if cfg.variant == "heat":
            scratch = heat_step(
                local, scratch, sources=state["sources"], energy=cfg.energy
            )
        else:
            scratch = jacobi_step(local, scratch)
        local, scratch = scratch, local
        # Re-apply the Dirichlet values on owned global-boundary lines.
        for index, values in state["pinned"]:
            local[index] = values
        state["local"], state["scratch"] = local, scratch

    return fn


def _write_halos(state: dict, received: dict) -> None:
    local = state["local"]
    for seg, data in received.items():
        side = _SIDES[seg]
        local[side.line(side.fills)] = data


def build_stencil_program(
    runtime: str, cfg: StencilConfig, grid: ProcessGrid, nranks: int
) -> IRProgram:
    """Per-iteration halo-exchange regions over the HaloSpec channel.

    Execute-mode payloads resolve lazily against the per-rank ``state``
    (edge strips must read the *current* block at put time), and the
    sweep's ``interior_frac`` hint tells the overlap pass how much of
    the modelled compute is independent of the incoming halos.
    """
    execute = cfg.mode == "execute"
    plans, spec = _layout(grid, cfg.nx, cfg.ny)
    sweep = _sweep_fn(cfg) if execute else None

    def setup(ctx, chan, ep, state):
        state["local"] = None
        if execute:
            state.update(_local_state(plans[ctx.rank], cfg))

    regions = []
    for it in range(cfg.iters):
        body = []
        for plan in plans[:nranks]:
            ops: list[O.Op] = [O.HaloBegin(it)]
            for d, nb in plan.neighbors.items():
                edge = _SIDES[d].line(_SIDES[d].edge)
                values = (lambda st, e=edge: st["local"][e]) if execute else None
                ops.append(O.HaloPut(d, nb, values=values))
            ops.append(O.HaloFinish(it, on_done=_write_halos if execute else None))
            cells = plan.bx * plan.by
            ops.append(O.Compute(
                nbytes=stencil_bytes(cells),
                flops=stencil_flops(cells),
                fn=sweep,
                interior_frac=max(plan.bx - 2, 0) * max(plan.by - 2, 0) / cells,
            ))
            body.append(tuple(ops))
        regions.append(Region(f"iter{it}", tuple(body)))

    def finalize(ctx, state, elapsed):
        local = state["local"]
        return {
            "time": elapsed,
            "block": local[1:-1, 1:-1] if local is not None else None,
        }

    return static_program(
        "stencil",
        spec,
        nranks,
        runtime,
        prologue=[O.Barrier()],
        regions=regions,
        setup=setup,
        finalize=finalize,
        portable=True,
        meta={"execute": execute, "iters": cfg.iters,
              "grid": f"{grid.px}x{grid.py}"},
    )


def run_stencil(
    machine: MachineModel,
    runtime: str,
    cfg: StencilConfig,
    nranks: int,
    *,
    grid: ProcessGrid | None = None,
    placement: str | None = None,
) -> WorkloadResult:
    """Run the stencil and return timing + instrumentation.

    ``runtime`` is a backend name from :mod:`repro.transport`.  In execute
    mode the assembled global field is returned in ``extras["field"]`` for
    verification.
    """
    grid = grid if grid is not None else ProcessGrid.square_ish(nranks)
    if grid.nranks != nranks:
        raise ValueError(f"grid {grid.px}x{grid.py} != nranks {nranks}")
    if placement is None:
        placement = "spread" if machine.is_gpu_machine else "block"
    program = build_stencil_program(runtime, cfg, grid, nranks)
    run = run_program(machine, program, placement=placement)
    job, result = run.job, run.result
    times = [r["time"] for r in result.results]
    extras: dict = {
        "grid": f"{grid.px}x{grid.py}",
        "halo_bytes": grid.halo_bytes(cfg.nx, cfg.ny),
        "iters": cfg.iters,
    }
    if cfg.mode == "execute":
        field_out = np.zeros((cfg.ny, cfg.nx), dtype=np.float64)
        if cfg.variant != "heat":
            field_out[:] = initial_grid(cfg.nx, cfg.ny)  # fixed boundary ring
        for rank in range(nranks):
            rows, cols = grid.block(rank, cfg.nx, cfg.ny)
            field_out[rows, cols] = result.results[rank]["block"]
        extras["field"] = field_out
    return WorkloadResult(
        workload="stencil",
        machine=machine.name,
        runtime=job.runtime_name,
        variant=job.runtime_name,
        nranks=nranks,
        time=max(times),
        counters=result.counters,
        per_rank=result.per_rank,
        extras=extras,
    )
