"""The stencil compute kernel and its serial reference.

The kernel is the classic 5-point Jacobi relaxation with fixed (Dirichlet)
boundaries — the computation behind the paper's stencil benchmark (from the
SC16 MPI tutorial code it cites).  Vectorised numpy throughout, per the
hpc-parallel guides: no Python-level cell loops.
"""

from __future__ import annotations

import numpy as np

from repro.util.validation import check_count

__all__ = [
    "jacobi_step",
    "jacobi_reference",
    "initial_grid",
    "stencil_flops",
    "stencil_bytes",
]


def initial_grid(nx: int, ny: int, *, hot_edge: float = 1.0) -> np.ndarray:
    """Global initial condition: zero interior, one hot (north) edge.

    Deterministic, so distributed runs can be verified bit-for-bit against
    the serial reference.
    """
    check_count("nx", nx, 3)
    check_count("ny", ny, 3)
    u = np.zeros((ny, nx), dtype=np.float64)
    u[0, :] = hot_edge
    return u


def jacobi_step(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """One Jacobi sweep over the interior of ``u`` (halo/boundary in place).

    ``u`` includes its boundary (or halo) ring; only ``u[1:-1, 1:-1]`` is
    updated.  Pass ``out`` to avoid an allocation per step.
    """
    if u.ndim != 2 or u.shape[0] < 3 or u.shape[1] < 3:
        raise ValueError(f"jacobi_step needs a 2D array >= 3x3, got {u.shape}")
    if out is None:
        out = u.copy()
    else:
        out[:] = u
    out[1:-1, 1:-1] = 0.25 * (
        u[:-2, 1:-1] + u[2:, 1:-1] + u[1:-1, :-2] + u[1:-1, 2:]
    )
    return out


def jacobi_reference(u0: np.ndarray, iters: int) -> np.ndarray:
    """Serial reference: ``iters`` Jacobi sweeps with fixed boundaries."""
    check_count("iters", iters, 0)
    u = u0.copy()
    scratch = u.copy()
    for _ in range(iters):
        scratch = jacobi_step(u, scratch)
        u, scratch = scratch, u
    return u


def stencil_flops(cells: int) -> float:
    """FLOPs per sweep: 3 adds + 1 multiply per interior cell."""
    return 4.0 * cells


def stencil_bytes(cells: int, itemsize: int = 8) -> float:
    """Memory traffic per sweep: read u + write out (streaming, the 4
    neighbor loads hit cache)."""
    return 2.0 * cells * itemsize
