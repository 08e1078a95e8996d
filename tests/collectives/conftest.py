"""Fixtures for the collectives suite.

The parity tests need one machine that carries *every* runtime cost
table so the same schedule can run on every backend.  No measured
machine does (the CPU machines have the MPI pair, the GPU machines
two-sided and shmem); the fixture is summit-gpu (six GPUs, room for every
case's P) with summit-cpu's calibrated one-sided emulation, as
``host_involvement`` equips perlmutter-gpu, plus the put-with-signal
ablation's ``one_sided_hw`` entry — the :class:`~repro.collectives.core.CollectiveStats` accounting under
test is backend-independent, so the cost numbers themselves are
irrelevant, they only have to exist for the job to build.
``stream_triggered`` needs no entry: its backend derives the profile
from the calibrated ones on any machine with a GPU (see
:func:`repro.comm.stream.derive_stream_costs`).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.ablations import _with_hw_put_signal
from repro.machines import summit_cpu, summit_gpu
from repro.transport import (
    ONE_SIDED,
    ONE_SIDED_HW,
    SHMEM,
    STREAM_TRIGGERED,
    TWO_SIDED,
)

ALL_RUNTIMES = (TWO_SIDED, ONE_SIDED, SHMEM, ONE_SIDED_HW, STREAM_TRIGGERED)


@pytest.fixture
def gpu_all_runtimes():
    """summit-gpu with every registered backend runnable on it."""
    m = summit_gpu()
    m.runtimes[ONE_SIDED] = summit_cpu().runtimes[ONE_SIDED]
    return _with_hw_put_signal(m)


@pytest.fixture
def rank_values():
    """Deterministic per-rank integer-valued input vectors."""

    def make(P, length, seed=0):
        rng = np.random.default_rng(seed)
        return [
            rng.integers(-20, 20, size=length).astype(np.float64)
            for _ in range(P)
        ]

    return make
