"""ML traffic scenarios under the Message Roofline (paper §V future work).

Three experiments put the paper's one-sided-vs-two-sided question to the
communication patterns of modern ML systems, using the
:mod:`repro.workloads.ml` runners (compute via the machine roofline,
communication via :mod:`repro.collectives` on the transport verbs):

* **ml_training** — data-parallel steps: gradient allreduce cost vs the
  batch compute that hides it;
* **ml_moe** — expert-parallel MoE: alltoall dispatch vs expert width;
* **ml_inference** — disaggregated serving: the KV-cache hand-off on
  the time-to-first-token path.

Checked findings are roofline-style: GPU-initiated (NVSHMEM) transport
is never slower than host MPI on the same traffic; growing the
compute-side axis (tokens, hidden) hides communication; communication
time is monotone in bytes on the wire; and no measured bandwidth
exceeds the port-group peak it runs on.
"""

from __future__ import annotations

from repro.experiments.points import run_point
from repro.experiments.report import ExperimentReport, index
from repro.sweep import SweepSpec, run_sweep
from repro.transport import SHMEM, TWO_SIDED

__all__ = ["run_ml_training", "run_ml_moe", "run_ml_inference"]

_MACHINE = "perlmutter-gpu"
_P = 4
_RUNTIMES = (TWO_SIDED, SHMEM)
# A100 NVLink3: four 25 GB/s sub-channels per direction per pair.
_PORT_PEAK = 25e9
_PORT_GROUP_PEAK = 4 * _PORT_PEAK


# ---------------------------------------------------------------------------
# ml_training — data-parallel gradient allreduce
# ---------------------------------------------------------------------------

_GRADS = (1 << 20, 16 << 20)
_TOKENS = (512, 8192)


def run_ml_training() -> ExperimentReport:
    cell = index(run_sweep(SweepSpec(
        name="ml_training",
        runner=run_point,
        axes={"runtime": _RUNTIMES, "grad_bytes": _GRADS, "tokens": _TOKENS},
        common={"workload": "training", "machine": _MACHINE, "P": _P},
    )), "runtime", "grad_bytes", "tokens")
    rows = [
        [rt, v["algorithm"], g >> 20, k, v["time"] * 1e6, 100 * v["comm_fraction"]]
        for (rt, g, k), v in cell.items()
    ]
    t = {key: v["time"] for key, v in cell.items()}
    frac = {key: v["comm_fraction"] for key, v in cell.items()}
    wire = 2 * (_P - 1) / _P  # allreduce wire bytes per payload byte
    expectations = {
        "GPU-initiated transport never loses a cell": all(
            t[(SHMEM, g, k)] <= t[(TWO_SIDED, g, k)]
            for g in _GRADS for k in _TOKENS
        ),
        "bigger gradients, longer steps": all(
            t[(rt, _GRADS[0], k)] < t[(rt, _GRADS[1], k)]
            for rt in _RUNTIMES for k in _TOKENS
        ),
        "batch compute hides the allreduce": all(
            frac[(rt, g, _TOKENS[1])] < frac[(rt, g, _TOKENS[0])]
            for rt in _RUNTIMES for g in _GRADS
        ),
        "implied allreduce bandwidth stays under the port-group peak": all(
            wire * g / v["comm_time"] <= _PORT_GROUP_PEAK
            for (rt, g, k), v in cell.items()
        ),
    }
    return ExperimentReport(
        experiment="ml_training",
        title="ML TRAFFIC: data-parallel training step (gradient allreduce)",
        headers=["runtime", "algorithm", "grad MiB", "tokens", "step (us)",
                 "comm %"],
        rows=rows,
        expectations=expectations,
        notes=[
            "compute = 6 * params * tokens FLOPs on the machine roofline; "
            "comm % is the step share the allreduce did not hide",
        ],
    )


# ---------------------------------------------------------------------------
# ml_moe — expert-parallel alltoall dispatch
# ---------------------------------------------------------------------------

_HIDDEN = (64, 512)
_MOE_TOKENS = (256, 2048)


def run_ml_moe() -> ExperimentReport:
    cell = index(run_sweep(SweepSpec(
        name="ml_moe",
        runner=run_point,
        axes={"runtime": _RUNTIMES, "hidden": _HIDDEN, "tokens": _MOE_TOKENS},
        common={"workload": "moe", "machine": _MACHINE, "P": _P},
    )), "runtime", "hidden", "tokens")
    rows = [
        [rt, v["algorithm"], h, k, v["time"] * 1e6, 100 * v["comm_fraction"],
         v["tokens_per_s"] / 1e6]
        for (rt, h, k), v in cell.items()
    ]
    t = {key: v["time"] for key, v in cell.items()}
    frac = {key: v["comm_fraction"] for key, v in cell.items()}
    expectations = {
        "GPU-initiated transport never loses a cell": all(
            t[(SHMEM, h, k)] <= t[(TWO_SIDED, h, k)]
            for h in _HIDDEN for k in _MOE_TOKENS
        ),
        "wider experts hide the dispatch (comm ~ h, compute ~ h^2)": all(
            frac[(rt, _HIDDEN[1], k)] < frac[(rt, _HIDDEN[0], k)]
            for rt in _RUNTIMES for k in _MOE_TOKENS
        ),
        "more tokens, longer layers": all(
            t[(rt, h, _MOE_TOKENS[0])] < t[(rt, h, _MOE_TOKENS[1])]
            for rt in _RUNTIMES for h in _HIDDEN
        ),
    }
    return ExperimentReport(
        experiment="ml_moe",
        title="ML TRAFFIC: MoE expert-parallel dispatch (alltoall)",
        headers=["runtime", "algorithm", "hidden", "tokens", "layer (us)",
                 "comm %", "Mtok/s"],
        rows=rows,
        expectations=expectations,
        notes=[
            "dispatch + combine are alltoalls of tokens/P * hidden words "
            "per destination; expert FFN = 4 * ffn_mult * tokens * hidden^2 "
            "FLOPs",
        ],
    )


# ---------------------------------------------------------------------------
# ml_inference — KV-cache hand-off
# ---------------------------------------------------------------------------

_CONTEXTS = (512, 4096)


def run_ml_inference() -> ExperimentReport:
    cell = index(run_sweep(SweepSpec(
        name="ml_inference",
        runner=run_point,
        axes={"runtime": _RUNTIMES, "context": _CONTEXTS},
        common={"workload": "kv", "machine": _MACHINE, "P": _P},
    )), "runtime", "context")
    rows = [
        [rt, v["algorithm"], c, v["kv_bytes"] / (1 << 20), v["transfer_time"] * 1e6,
         v["transfer_bandwidth"] / 1e9, v["ttft"] * 1e6]
        for (rt, c), v in cell.items()
    ]
    xfer = {key: v["transfer_time"] for key, v in cell.items()}
    bw = {key: v["transfer_bandwidth"] for key, v in cell.items()}
    ttft = {key: v["ttft"] for key, v in cell.items()}
    expectations = {
        "KV hand-off grows with context": all(
            xfer[(rt, _CONTEXTS[0])] < xfer[(rt, _CONTEXTS[1])]
            for rt in _RUNTIMES
        ),
        "time to first token grows with context": all(
            ttft[(rt, _CONTEXTS[0])] < ttft[(rt, _CONTEXTS[1])]
            for rt in _RUNTIMES
        ),
        "long contexts ride the bandwidth regime": all(
            bw[(rt, _CONTEXTS[1])] > bw[(rt, _CONTEXTS[0])]
            for rt in _RUNTIMES
        ),
        "hand-off stays under the single-stream port peak": all(
            v <= _PORT_PEAK for v in bw.values()
        ),
        "GPU-initiated hand-off is never slower": all(
            xfer[(SHMEM, c)] <= xfer[(TWO_SIDED, c)] for c in _CONTEXTS
        ),
    }
    return ExperimentReport(
        experiment="ml_inference",
        title="ML TRAFFIC: multi-tenant KV-cache hand-off (broadcast)",
        headers=["runtime", "algorithm", "context", "KV MiB", "xfer (us)",
                 "xfer GB/s", "TTFT (us)"],
        rows=rows,
        expectations=expectations,
        notes=[
            "KV cache = 2 * layers * context * hidden words; the hand-off "
            "sits on the time-to-first-token path (disaggregated serving)",
        ],
    )
