"""Host-involvement ablation: how much CPU time each runtime burns.

The paper's comparison stops at 2023's host-driven runtimes; this
experiment extends it one generation past the frontier.  Every workload
runs on four runtimes spanning three *host-involvement generations*:

1. **host-driven MPI** — ``two_sided`` (2 ops/message on the host) and
   ``one_sided`` (the 4-op Put/flush/Put(signal)/flush emulation plus
   Listing-1 polling);
2. **gpu-initiated** — ``shmem``: the device issues the verbs, but the
   host still launches a kernel per synchronisation epoch
   (``GpuSpec.kernel_launch`` each);
3. **stream-triggered** — ``stream_triggered``: ops enqueued on ordered
   device streams, hardware completion, zero host involvement.

The host-overhead metric is *derived from the capability table*
(:func:`repro.transport.capabilities`), never from runtime names: caps
pick the per-message / per-sync / per-atomic host cost formula, and the
workload's measured op counters scale it.  Simulated times come from the
standard runners — the stream backend's derived profile also makes the
end-to-end time a bound: modeled stream time never exceeds host-driven
one-sided on the same machine.
"""

from __future__ import annotations

import dataclasses

from repro.collectives import run_collective
from repro.experiments.report import ExperimentReport
from repro.machines.registry import get_machine
from repro.transport import ONE_SIDED, SHMEM, STREAM_TRIGGERED, TWO_SIDED
from repro.transport.registry import get_backend, op_seconds
from repro.workloads.flood import run_flood
from repro.workloads.hashtable import HashTableConfig, run_hashtable
from repro.workloads.sptrsv import MatrixSpec, generate_matrix, run_sptrsv
from repro.workloads.stencil import StencilConfig, run_stencil

__all__ = ["run_host_involvement", "host_overhead"]

# Generations, most to least host involvement; the table rows keep this
# order so the monotone reduction reads top to bottom per workload.
RUNTIMES = (TWO_SIDED, ONE_SIDED, SHMEM, STREAM_TRIGGERED)
HOST_DRIVEN = (TWO_SIDED, ONE_SIDED)


def _gpu_machine_all_runtimes():
    """perlmutter-gpu hosting every generation.

    The GPU machine carries calibrated ``two_sided`` and ``shmem``
    profiles; the one-sided 4-op emulation gets the CPU machine's
    calibrated costs (the emulation is host software — its op costs do
    not depend on the accelerator).  ``stream_triggered`` needs no entry:
    its backend derives its profile from the others.
    """
    m = get_machine("perlmutter-gpu")
    cpu = get_machine("perlmutter-cpu")
    m.runtimes[ONE_SIDED] = dataclasses.replace(cpu.runtimes[ONE_SIDED])
    return m


def host_overhead(machine, runtime: str, *, messages: float, syncs: float,
                  atomics: float = 0.0, ranks: float = 1.0) -> float:
    """Modeled host CPU seconds a workload's op mix costs on ``runtime``.

    ``host_bypass`` and ``gpu_initiated`` come from
    :class:`~repro.transport.BackendCaps`, the op costs from the backend's
    endpoint declarations:

    * ``host_bypass`` — zero: completion never touches the host;
    * ``gpu_initiated`` (without bypass) — the host's remaining job is
      launching one persistent kernel per PE (the paper's NVSHMEM idiom:
      communication is device-initiated, but a host thread still owns
      the launch);
    * host-driven — every message is charged as a notified one (the
      mailbox endpoint's per-message ops: ``isend + recv_match``, the
      4-op emulation, or one ``put_signal``) and every synchronisation as
      a batch completion (the batch endpoint's per-sync ops:
      ``sync_enter``, put + 2 flushes, or the notification wake).
    """
    backend = get_backend(runtime)
    caps = backend.caps
    if caps.host_bypass:
        return 0.0
    if caps.gpu_initiated:
        launch = machine.gpu.kernel_launch if machine.gpu is not None else 0.0
        return launch * ranks
    costs = backend.costs(machine)
    per_msg = op_seconds(costs, backend.ops("mailbox")[0])
    per_sync = op_seconds(costs, backend.ops("batch")[1])
    return messages * per_msg + syncs * per_sync + atomics * costs.fetch_op


def _workload_points(machine):
    """(name, runtime) -> (time, messages, syncs, atomics, ranks) for the
    four paper workloads plus the ML training step's allreduce traffic."""
    P = 4
    points: dict[tuple[str, str], tuple[float, float, float, float, int]] = {}
    matrix = generate_matrix(MatrixSpec(n_supernodes=48, seed=4))
    for rt in RUNTIMES:
        r = run_stencil(machine, rt, StencilConfig(nx=64, ny=64, iters=5), P)
        c = r.counters
        points[("stencil", rt)] = (r.time, c.messages, c.syncs, c.atomics, P)

        nbytes, msgs_per_sync, iters = 4096, 16, 3
        f = run_flood(machine, rt, nbytes, msgs_per_sync, iters=iters)
        # FloodResult carries no counters; the schedule is closed-form.
        points[("flood", rt)] = (
            f.time_total, msgs_per_sync * iters, iters, 0.0, 2
        )

        r = run_sptrsv(machine, rt, matrix, P)
        c = r.counters
        points[("sptrsv", rt)] = (r.time, c.messages, c.syncs, c.atomics, P)

        r = run_hashtable(machine, rt, HashTableConfig(total_inserts=512), P)
        c = r.counters
        points[("hashtable", rt)] = (r.time, c.messages, c.syncs, c.atomics, P)

        col = run_collective(machine, rt, "allreduce", nranks=P,
                             nbytes=1 << 20, algorithm="ring")
        points[("ml_training", rt)] = (
            col.time, col.stats.messages, col.stats.rounds, 0.0, P
        )
    return points


def run_host_involvement() -> ExperimentReport:
    """All paper workloads + ML training across host-involvement
    generations; host overhead must fall monotonically to zero."""
    machine = _gpu_machine_all_runtimes()
    points = _workload_points(machine)
    workloads = ("stencil", "flood", "sptrsv", "hashtable", "ml_training")

    headers = ["workload", "runtime", "time (ms)", "host ops (us)",
               "host share"]
    rows = []
    h: dict[tuple[str, str], float] = {}
    for wl in workloads:
        for rt in RUNTIMES:
            t, messages, syncs, atomics, ranks = points[(wl, rt)]
            hh = host_overhead(machine, rt, messages=messages, syncs=syncs,
                               atomics=atomics, ranks=ranks)
            h[(wl, rt)] = hh
            rows.append([wl, rt, t * 1e3, hh * 1e6,
                         f"{min(hh / t, 1.0):.1%}" if t > 0 else "0.0%"])

    expectations = {
        "stream-triggered removes all host involvement": all(
            h[(wl, STREAM_TRIGGERED)] == 0.0 for wl in workloads
        ),
        "gpu-initiated cuts host work vs every host-driven runtime": all(
            h[(wl, SHMEM)] < min(h[(wl, rt)] for rt in HOST_DRIVEN)
            for wl in workloads
        ),
        "host overhead falls monotonically across generations": all(
            min(h[(wl, rt)] for rt in HOST_DRIVEN)
            > h[(wl, SHMEM)]
            > h[(wl, STREAM_TRIGGERED)] == 0.0
            for wl in workloads
        ),
        "stream time never exceeds host-driven one-sided": all(
            points[(wl, STREAM_TRIGGERED)][0] <= points[(wl, ONE_SIDED)][0]
            for wl in workloads
        ),
    }
    return ExperimentReport(
        experiment="host_involvement",
        title="Host involvement across runtime generations "
              "(host-driven -> gpu-initiated -> stream-triggered)",
        headers=headers,
        rows=rows,
        expectations=expectations,
        notes=[
            "host overhead = caps-selected per-op host costs x measured op "
            "counters; stream_triggered costs derive from the machine's "
            "host profiles (repro.comm.stream.derive_stream_costs)",
        ],
    )
