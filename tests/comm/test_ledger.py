"""Every ledger is settled when a job ends.

``flush`` / ``flush_local`` / ``fence`` and ``quiet`` count on one class,
:class:`repro.comm.ledger.Ledger`: one per origin rank of each window, one
per SHMEM PE.  After a whole workload nothing may be left on any of them —
no op in flight, no parked loss, no blocked drain — on every backend.
"""

from __future__ import annotations

import pytest

from repro.comm import Job
from repro.machines import perlmutter_cpu, perlmutter_gpu
from repro.transport import (
    ONE_SIDED,
    ONE_SIDED_HW,
    SHMEM,
    STREAM_TRIGGERED,
    TWO_SIDED,
)
from repro.workloads.flood import run_flood
from repro.workloads.hashtable import HashTableConfig, run_hashtable
from repro.workloads.sptrsv import MatrixSpec, generate_matrix, run_sptrsv
from repro.workloads.stencil import StencilConfig, run_stencil
from tests.regression.test_ir_parity import _hw_machine

MACHINES = {
    TWO_SIDED: perlmutter_cpu,
    ONE_SIDED: perlmutter_cpu,
    SHMEM: perlmutter_gpu,
    ONE_SIDED_HW: _hw_machine,
    STREAM_TRIGGERED: perlmutter_gpu,
}

WORKLOADS = {
    "flood": lambda m, rt: run_flood(m, rt, 4096, 8, iters=2),
    "stencil": lambda m, rt: run_stencil(
        m, rt, StencilConfig(nx=24, ny=24, iters=3, mode="execute"), 4
    ),
    "hashtable": lambda m, rt: run_hashtable(
        m, rt, HashTableConfig(total_inserts=200, load_factor=0.9, seed=3), 4
    ),
    "sptrsv": lambda m, rt: run_sptrsv(
        m, rt, generate_matrix(MatrixSpec(n_supernodes=30, seed=1)), 4
    ),
}


@pytest.fixture
def finished_jobs(monkeypatch):
    """Every job a workload runs, as it is collected."""
    jobs = []
    collect = Job.collect

    def recording(self, procs):
        jobs.append(self)
        return collect(self, procs)

    monkeypatch.setattr(Job, "collect", recording)
    return jobs


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("runtime", MACHINES)
def test_every_ledger_is_settled_at_job_end(runtime, workload, finished_jobs):
    WORKLOADS[workload](MACHINES[runtime](), runtime)
    assert finished_jobs
    ledgers = [
        ledger
        for job in finished_jobs
        for ledger in (
            [l for win in job.windows for l in win.ledgers]
            + [ctx.ledger for ctx in job.contexts if hasattr(ctx, "ledger")]
        )
    ]
    if runtime != TWO_SIDED:  # owner-routed and matched: nothing to count
        assert ledgers
    for ledger in ledgers:
        assert ledger.busy == 0, ledger
        assert not any(ledger.per_target.values()), ledger
        assert ledger.lost == [], ledger
        assert ledger.draining == -1 and not ledger, ledger  # nobody blocked
