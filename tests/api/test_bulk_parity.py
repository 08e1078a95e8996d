"""Vectorized-vs-scalar parity on workload goldens, all five backends.

The bulk-transfer engine (:mod:`repro.perf`) must be *bit-identical* to
the scalar event chain — not approximately equal.  Every comparison here
is ``==`` on full result objects (times, counters, bandwidths, stored
values), with the engine force-enabled vs force-disabled via
:func:`repro.perf.vectorized`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import perf
from repro.comm import Job
from repro.experiments.ablations import _with_hw_put_signal
from repro.ir.lower import lower_rank, run_program
from repro.machines import get_machine
from repro.net import CongestionConfig, Fabric
from repro.sim import NullTracer, Simulator
from repro.workloads.flood import (
    _CAS_SPEC,
    _cas_stream_rank,
    build_flood_program,
    run_cas_flood,
    run_flood,
)
from repro.workloads.hashtable import HashTableConfig, run_hashtable
from repro.workloads.stencil import ProcessGrid, StencilConfig, run_stencil

# (backend, machine factory) — every registered transport backend.
BACKENDS = [
    ("two_sided", lambda: get_machine("perlmutter-cpu")),
    ("one_sided", lambda: get_machine("perlmutter-cpu")),
    ("shmem", lambda: get_machine("perlmutter-gpu")),
    ("one_sided_hw", lambda: _with_hw_put_signal(get_machine("perlmutter-cpu"))),
    ("stream_triggered", lambda: get_machine("perlmutter-gpu")),
]
IDS = [b for b, _ in BACKENDS]


def _both(run):
    """Run once scalar, once vectorized."""
    with perf.vectorized(False):
        scalar = run()
    with perf.vectorized(True):
        vector = run()
    return scalar, vector


@pytest.mark.parametrize("backend,machine_factory", BACKENDS, ids=IDS)
class TestBulkParity:
    def test_flood(self, backend, machine_factory):
        for nbytes, n in [(64, 1), (4096, 64), (64, 512)]:
            scalar, vector = _both(
                lambda: run_flood(machine_factory(), backend, nbytes, n, iters=2)
            )
            assert scalar == vector

    def test_cas_flood(self, backend, machine_factory):
        for n_ops in (1, 200):
            scalar, vector = _both(
                lambda: run_cas_flood(machine_factory(), backend, n_ops=n_ops)
            )
            assert scalar == vector

    def test_hashtable(self, backend, machine_factory):
        cfg = HashTableConfig(total_inserts=600, seed=2)
        scalar, vector = _both(
            lambda: run_hashtable(machine_factory(), backend, cfg, 4)
        )
        assert scalar.time == vector.time
        assert scalar.counters == vector.counters
        for a, b in zip(scalar.per_rank, vector.per_rank):
            assert a == b
        assert np.array_equal(
            np.sort(scalar.extras["values"]), np.sort(vector.extras["values"])
        )

    def test_stencil(self, backend, machine_factory):
        cfg = StencilConfig(nx=24, ny=24, iters=4, mode="execute")
        scalar, vector = _both(
            lambda: run_stencil(
                machine_factory(), backend, cfg, 4, grid=ProcessGrid(2, 2)
            )
        )
        assert scalar.time == vector.time
        assert scalar.counters == vector.counters
        assert np.array_equal(scalar.extras["field"], vector.extras["field"])


def _flood_on(fabric_options, replayable):
    """A 2-rank shmem flood on a fabric built with ``fabric_options`` and
    handed to the job (``run_flood`` cannot pass them through)."""
    program = build_flood_program("shmem", 65536, 256, iters=1, nranks=2)
    machine = get_machine("perlmutter-gpu")
    sim = Simulator()
    fabric = Fabric(sim, machine.topology, NullTracer(), **fabric_options())
    job = Job(machine, 2, "shmem", placement="spread", sim=sim, fabric=fabric)
    assert perf.bulk_enabled(job) == (replayable and perf.enabled())
    result = job.run(lower_rank, job.channel(program.spec), program, {})
    return result.results, result.counters, job.fabric.link_stats()


@pytest.mark.parametrize(
    "fabric_options,replayable",
    [
        (lambda: {"routing": "minimal"}, True),
        # Not replayable: the bulk engine must decline, not diverge.
        (lambda: {"congestion": CongestionConfig()}, False),
        (lambda: {"routing": "adaptive"}, False),
    ],
    ids=["minimal", "congestion", "adaptive"],
)
def test_flood_parity_across_fabric_options(fabric_options, replayable):
    scalar, vector = _both(lambda: _flood_on(fabric_options, replayable))
    assert scalar == vector


def _flood_events(machine, runtime):
    def events(n):
        program = build_flood_program(runtime, 64, n, iters=1)
        return run_program(get_machine(machine), program).result.events_processed

    return events


def _cas_events(n):
    """The CAS flood's rank program (one stream of ``n``) on a bare Job."""
    job = Job(get_machine("perlmutter-cpu"), 2, "one_sided", placement="spread")
    return job.run(_cas_stream_rank, job.channel(_CAS_SPEC), 1, n).events_processed


@pytest.mark.parametrize(
    "events",
    [_flood_events("perlmutter-gpu", "shmem"),
     _flood_events("perlmutter-cpu", "one_sided"),
     _cas_events],
    ids=["shmem-flood", "one_sided-flood", "one_sided-cas"],
)
def test_bulk_event_count_is_independent_of_batch_length(events):
    """What the engine buys, counted in simulator events instead of host
    seconds: a batch costs the same few events at any length, where the
    scalar chain pays at least one event per message."""

    with perf.vectorized(True):
        assert events(256) == events(4096)
    with perf.vectorized(False):
        assert events(4096) - events(256) >= 4096 - 256


def test_scalar_shmem_round_message_costs_five_events():
    """The host cost of a message, counted: one scalar ``put_signal_nbi``
    round message of a ring allreduce is four simulator events — the
    issue charge, the delivery, the receiver's ``on_write`` wake (which
    resumes it one ``poll_slot`` recheck later) and its ``wait_wakeup``;
    five while the recheck was a sleep of its own, hence the name.  The
    put's completion is a flag settled at landing, not another event popped
    to run no callback (``Event.settle``); each rank's ``quiet`` adds its
    one flush charge."""
    from repro.collectives import CollectiveComm, plan_collective

    machine, nranks = get_machine("perlmutter-gpu"), 4

    def run(iters):
        plan, _ = plan_collective(
            "allreduce", nranks=nranks, nelems=4096, algorithm="ring",
            machine=machine, runtime="shmem",
        )
        job = Job(machine, nranks, "shmem")
        comm = CollectiveComm(job, [plan] * iters)

        def program(ctx):
            ep = comm.endpoint(ctx)
            for _ in range(iters):
                yield from ep.run()

        return job.run(program).events_processed, comm.stats.messages

    with perf.vectorized(False):
        (events2, msgs2), (events3, msgs3) = run(2), run(3)
    messages = msgs3 - msgs2
    assert messages == 2 * (nranks - 1) * nranks
    assert events3 - events2 == 4 * messages + nranks
