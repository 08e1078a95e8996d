"""Stencil workload (paper §III-A): BSP halo exchange, three comm variants."""

from repro.workloads.stencil.decomposition import DIRECTIONS, ProcessGrid
from repro.workloads.stencil.kernels import (
    initial_grid,
    jacobi_reference,
    jacobi_step,
    stencil_bytes,
    stencil_flops,
)
from repro.workloads.stencil.runner import StencilConfig, run_stencil

__all__ = [
    "DIRECTIONS",
    "ProcessGrid",
    "initial_grid",
    "jacobi_reference",
    "jacobi_step",
    "stencil_bytes",
    "stencil_flops",
    "StencilConfig",
    "run_stencil",
]
