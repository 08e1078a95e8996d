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

from dataclasses import dataclass, field

import numpy as np

from repro.ir import ops as O
from repro.ir.lower import run_program
from repro.ir.program import IRProgram, Region, static_program
from repro.machines.base import MachineModel
from repro.transport import HaloSpec
from repro.workloads.base import WorkloadResult
from repro.workloads.stencil.decomposition import ProcessGrid
from repro.workloads.stencil.kernels import (
    heat_step,
    initial_grid,
    jacobi_step,
    stencil_bytes,
    stencil_flops,
)

__all__ = ["StencilConfig", "build_stencil_program", "run_stencil"]

_DIR_ORDER = ("north", "south", "west", "east")
_DIR_INDEX = {d: i for i, d in enumerate(_DIR_ORDER)}


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
        if self.nx < 3 or self.ny < 3:
            raise ValueError(f"grid must be >= 3x3, got {self.nx}x{self.ny}")
        if self.iters < 1:
            raise ValueError(f"iters must be >= 1, got {self.iters}")
        if self.mode not in ("simulate", "execute"):
            raise ValueError(f"mode must be simulate|execute, got {self.mode!r}")
        if self.variant not in ("jacobi", "heat"):
            raise ValueError(f"variant must be jacobi|heat, got {self.variant!r}")
        if self.nsources < 0:
            raise ValueError("nsources must be >= 0")

    def source_positions(self) -> list[tuple[int, int]]:
        """Deterministic global (row, col) source positions, interior-only."""
        out = []
        for i in range(self.nsources):
            r = min(max(self.ny * (i + 1) // (self.nsources + 1), 1), self.ny - 2)
            c = min(max(self.nx * (i + 1) // (self.nsources + 1), 1), self.nx - 2)
            out.append((r, c))
        return out


@dataclass
class _RankPlan:
    """Precomputed per-rank geometry shared by all three variants."""

    grid: ProcessGrid
    rank: int
    bx: int
    by: int
    neighbors: dict[str, int]
    halo_elems: dict[str, int] = field(default_factory=dict)
    # Window layout: direction -> (offset, length) in the halo window.
    win_segment: dict[str, tuple[int, int]] = field(default_factory=dict)

    @classmethod
    def build(cls, grid: ProcessGrid, rank: int, nx: int, ny: int) -> "_RankPlan":
        bx, by = grid.block_shape(rank, nx, ny)
        plan = cls(
            grid=grid, rank=rank, bx=bx, by=by, neighbors=grid.neighbors(rank)
        )
        plan.halo_elems = {"north": bx, "south": bx, "west": by, "east": by}
        offset = 0
        for d in _DIR_ORDER:
            plan.win_segment[d] = (offset, plan.halo_elems[d])
            offset += plan.halo_elems[d]
        return plan

    @property
    def window_count(self) -> int:
        return 2 * self.bx + 2 * self.by

    def edge_strip(self, local: np.ndarray, direction: str) -> np.ndarray:
        """The owned edge row/column to send toward ``direction``."""
        if direction == "north":
            return local[1, 1:-1]
        if direction == "south":
            return local[-2, 1:-1]
        if direction == "west":
            return local[1:-1, 1]
        if direction == "east":
            return local[1:-1, -2]
        raise ValueError(f"unknown direction {direction!r}")

    def write_halo(self, local: np.ndarray, direction: str, data: np.ndarray) -> None:
        """Store data received *from* ``direction`` into the halo ring."""
        if direction == "north":
            local[0, 1:-1] = data
        elif direction == "south":
            local[-1, 1:-1] = data
        elif direction == "west":
            local[1:-1, 0] = data
        elif direction == "east":
            local[1:-1, -1] = data
        else:
            raise ValueError(f"unknown direction {direction!r}")


def _local_sources(plan: _RankPlan, cfg: StencilConfig) -> list[tuple[int, int]]:
    """This rank's heat sources in local (halo-inclusive) coordinates."""
    rows, cols = plan.grid.block(plan.rank, cfg.nx, cfg.ny)
    out = []
    for r, c in cfg.source_positions():
        if rows.start <= r < rows.stop and cols.start <= c < cols.stop:
            out.append((r - rows.start + 1, c - cols.start + 1))
    return out


def _local_setup(plan: _RankPlan, cfg: StencilConfig) -> np.ndarray | None:
    """Initial local block (with halo ring) in execute mode."""
    if cfg.mode != "execute":
        return None
    rows, cols = plan.grid.block(plan.rank, cfg.nx, cfg.ny)
    if cfg.variant == "heat":
        u0 = np.zeros((cfg.ny, cfg.nx), dtype=np.float64)
    else:
        u0 = initial_grid(cfg.nx, cfg.ny)
    local = np.zeros((plan.by + 2, plan.bx + 2), dtype=np.float64)
    local[1:-1, 1:-1] = u0[rows, cols]
    # Global-boundary halo cells hold the fixed Dirichlet values.
    ix, iy = plan.grid.coords(plan.rank)
    if iy == 0:
        local[0, 1:-1] = u0[0, cols]
    if iy == plan.grid.py - 1:
        local[-1, 1:-1] = u0[-1, cols]
    if ix == 0:
        local[1:-1, 0] = u0[rows, 0]
    if ix == plan.grid.px - 1:
        local[1:-1, -1] = u0[rows, -1]
    return local


def _pin_global_boundary(plan: _RankPlan, local: np.ndarray, pinned: dict) -> None:
    """Re-apply Dirichlet values on owned global-boundary cells."""
    for key, values in pinned.items():
        if key == "top":
            local[1, :] = values
        elif key == "bottom":
            local[-2, :] = values
        elif key == "left":
            local[:, 1] = values
        elif key == "right":
            local[:, -2] = values


def _pinned_slices(plan: _RankPlan, local: np.ndarray | None) -> dict:
    if local is None:
        return {}
    ix, iy = plan.grid.coords(plan.rank)
    pinned = {}
    if iy == 0:
        pinned["top"] = local[1, :].copy()
    if iy == plan.grid.py - 1:
        pinned["bottom"] = local[-2, :].copy()
    if ix == 0:
        pinned["left"] = local[:, 1].copy()
    if ix == plan.grid.px - 1:
        pinned["right"] = local[:, -2].copy()
    return pinned


def _sweep_fn(cfg: StencilConfig):
    """The real numpy sweep (execute mode), run where the hand-written
    runner ran it: after the halos land, before the modelled compute."""

    def fn(state: dict) -> None:
        plan, local, scratch = state["plan"], state["local"], state["scratch"]
        if local is None:
            return
        if cfg.variant == "heat":
            scratch = heat_step(
                local, scratch, sources=state["sources"], energy=cfg.energy
            )
        else:
            scratch = jacobi_step(local, scratch)
        local, scratch = scratch, local
        _pin_global_boundary(plan, local, state["pinned"])
        state["local"], state["scratch"] = local, scratch

    return fn


def _write_halos(state: dict, received: dict) -> None:
    plan, local = state["plan"], state["local"]
    for d in plan.neighbors:
        plan.write_halo(local, d, received[d])


def _halo_spec(grid: ProcessGrid, cfg: StencilConfig, nranks: int) -> HaloSpec:
    """Global halo geometry: the transport backends need the *receiver's*
    window layout (blocks can be uneven, so neighbor layouts differ)."""
    plans = {r: _RankPlan.build(grid, r, cfg.nx, cfg.ny) for r in range(nranks)}
    bx = -(-cfg.nx // grid.px)  # ceil: largest block dims size the windows
    by = -(-cfg.ny // grid.py)
    return HaloSpec(
        slot=dict(_DIR_INDEX),
        opposite={d: ProcessGrid.opposite(d) for d in _DIR_ORDER},
        neighbors={r: plans[r].neighbors for r in range(nranks)},
        segments={r: dict(plans[r].win_segment) for r in range(nranks)},
        counts={r: plans[r].window_count for r in range(nranks)},
        win_count=2 * bx + 2 * by,
        dtype=np.float64,
    )


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
    plans = {r: _RankPlan.build(grid, r, cfg.nx, cfg.ny) for r in range(nranks)}
    sweep = _sweep_fn(cfg) if execute else None

    def setup(ctx, chan, ep, state):
        plan = plans[ctx.rank]
        local = _local_setup(plan, cfg)
        state["plan"] = plan
        state["local"] = local
        state["scratch"] = local.copy() if local is not None else None
        state["pinned"] = _pinned_slices(plan, local)
        state["sources"] = _local_sources(plan, cfg)

    regions = []
    for it in range(cfg.iters):
        body = []
        for r in range(nranks):
            plan = plans[r]
            ops: list[O.Op] = [O.HaloBegin(it)]
            for d, nb in plan.neighbors.items():
                values = (
                    (lambda st, d=d: st["plan"].edge_strip(st["local"], d))
                    if execute
                    else None
                )
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
        _halo_spec(grid, cfg, nranks),
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
