"""Evaluation-platform models: Perlmutter, Frontier, Summit (Table I)."""

from repro.machines.base import CommCosts, GpuSpec, MachineModel, UnhostedRuntimeError
from repro.machines.cluster import FABRICS, INFINIBAND_EDR, SLINGSHOT11, make_cluster
from repro.machines.frontier import frontier_cpu, frontier_gpu_projection
from repro.machines.perlmutter import perlmutter_cpu, perlmutter_gpu
from repro.machines.registry import (
    MACHINES,
    PROJECTIONS,
    get_machine,
    machine_fingerprint,
    machine_names,
    table1_row,
)
from repro.machines.summit import summit_cpu, summit_gpu

__all__ = [
    "CommCosts",
    "GpuSpec",
    "MachineModel",
    "UnhostedRuntimeError",
    "frontier_cpu",
    "frontier_gpu_projection",
    "perlmutter_cpu",
    "perlmutter_gpu",
    "summit_cpu",
    "summit_gpu",
    "make_cluster",
    "SLINGSHOT11",
    "INFINIBAND_EDR",
    "FABRICS",
    "MACHINES",
    "PROJECTIONS",
    "get_machine",
    "machine_fingerprint",
    "machine_names",
    "table1_row",
]
