"""Future work #2 (paper §V): AI collectives — NCCL-style ring allreduce.

The paper names NCCL/RCCL/HCCL as the next pattern to bring under the
Message Roofline.  This experiment compares three allreduce
implementations over the same simulated GPUs, all through
:func:`repro.collectives.run_collective` (so each variant is just a
(runtime, algorithm, stripes) triple on the shared transport verbs):

* **host-MPI**: recursive-doubling allreduce under CUDA-aware two-sided
  MPI — every round pays the device-sync + host round trip;
* **GPU ring**: the NCCL algorithm, device-initiated put-with-signal,
  single stream;
* **GPU ring x4**: the same ring striped over the NVLink port group
  (NCCL's multi-ring).

Checked findings: GPU-initiated wins at every size (no host round trips);
a single-stream ring leaves 3/4 of the A100's port group idle and striping
recovers it; V100's single fat link makes Summit competitive exactly until
striping is enabled.

Every (machine, size, variant) cell is one sweep point.
"""

from __future__ import annotations

from repro.collectives import run_collective
from repro.experiments.report import ExperimentReport, index
from repro.machines.registry import get_machine
from repro.sweep import SweepSpec, run_sweep
from repro.transport import SHMEM, TWO_SIDED

__all__ = ["run_future_collectives"]

_SIZES = (4096, 262144, 4_194_304)
_VARIANTS = ("host-mpi", "gpu-ring", "gpu-ring-x4")

# variant -> (runtime, algorithm, stripes) on the collectives API.
_RECIPES = {
    "host-mpi": (TWO_SIDED, "recursive_doubling", 1),
    "gpu-ring": (SHMEM, "ring", 1),
    "gpu-ring-x4": (SHMEM, "ring", 4),
}


def _point(params, seed):
    machine = get_machine(params["machine"])
    P, n = params["P"], params["nelems"]
    runtime, algorithm, stripes = _RECIPES[params["variant"]]
    r = run_collective(
        machine, runtime, "allreduce",
        nranks=P, nelems=n, algorithm=algorithm, stripes=stripes,
    )
    return {"time": r.time, "algo_bandwidth": r.bus_bandwidth}


def run_future_collectives() -> ExperimentReport:
    table = index(run_sweep(SweepSpec(
        name="future_collectives",
        runner=_point,
        axes={
            "machine": ("perlmutter-gpu", "summit-gpu"),
            "nelems": _SIZES,
            "variant": _VARIANTS,
        },
        common={"P": 4},
        # v2: rerouted through repro.collectives — same three variants,
        # same findings, but timings come from the shared transport-verb
        # schedules (old cached v1 cells measured the hand-rolled ring).
        version=2,
    )), "machine", "variant", "nelems")
    headers = ["machine", "variant", "elements", "time (us)", "algo GB/s"]
    rows = [
        [*key, v["time"] * 1e6, v["algo_bandwidth"] / 1e9] for key, v in table.items()
    ]
    t = {key: v["time"] for key, v in table.items()}

    big = _SIZES[-1]
    small = _SIZES[0]
    expectations = {
        "GPU-initiated beats host-MPI at small sizes": all(
            t[(m, "gpu-ring", small)] < t[(m, "host-mpi", small)]
            for m in ("perlmutter-gpu", "summit-gpu")
        ),
        "GPU-initiated beats host-MPI at large sizes": all(
            t[(m, "gpu-ring-x4", big)] < t[(m, "host-mpi", big)]
            for m in ("perlmutter-gpu", "summit-gpu")
        ),
        "striping recovers the A100 port group (>2x)": (
            t[("perlmutter-gpu", "gpu-ring", big)]
            > 2 * t[("perlmutter-gpu", "gpu-ring-x4", big)]
        ),
        "single-stream ring: V100's fat link beats A100's port": (
            t[("summit-gpu", "gpu-ring", big)]
            < t[("perlmutter-gpu", "gpu-ring", big)]
        ),
        "striped ring: A100 overtakes V100": (
            t[("perlmutter-gpu", "gpu-ring-x4", big)]
            < t[("summit-gpu", "gpu-ring-x4", big)]
        ),
    }
    return ExperimentReport(
        experiment="future_collectives",
        title="FUTURE WORK: NCCL-style ring allreduce on simulated GPUs",
        headers=headers,
        rows=rows,
        expectations=expectations,
        notes=[
            "algo GB/s = 2(P-1)/P * bytes / time, the standard allreduce "
            "bandwidth metric",
            "the single-stream-vs-striped split is NCCL's multi-ring "
            "rationale, emerging here purely from the port-group link model",
            "all variants run through repro.collectives.run_collective; "
            "see docs/COLLECTIVES.md",
        ],
    )
