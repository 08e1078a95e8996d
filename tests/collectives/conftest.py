"""Fixtures for the collectives suite.

The parity tests need one machine that carries *every* runtime cost
table so the same schedule can run on every backend.  No measured
machine does (perlmutter-cpu has the MPI pair, the GPU machines have
shmem); the fixture equips perlmutter-cpu with synthetic ``shmem`` and
``one_sided_hw`` entries cloned from its one-sided costs — the
:class:`~repro.collectives.core.CollectiveStats` accounting under test
is backend-independent, so the cost numbers themselves are irrelevant,
they only have to exist for the job to build.  ``stream_triggered``
needs no entry at all: its backend derives the profile from the
calibrated ones (see :func:`repro.comm.stream.derive_stream_costs`).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.machines import perlmutter_cpu
from repro.transport import (
    ONE_SIDED,
    ONE_SIDED_HW,
    SHMEM,
    STREAM_TRIGGERED,
    TWO_SIDED,
)

ALL_RUNTIMES = (TWO_SIDED, ONE_SIDED, SHMEM, ONE_SIDED_HW, STREAM_TRIGGERED)


@pytest.fixture
def cpu_all_runtimes():
    """perlmutter-cpu with every registered backend runnable on it."""
    m = perlmutter_cpu()
    one = m.runtimes[ONE_SIDED]
    signal = dataclasses.replace(
        one,
        put_signal=one.put,
        wait_wakeup=1.0e-6,
        poll_slot=0.0,
        wait_poll=2.0e-7,
    )
    m.runtimes[SHMEM] = signal
    m.runtimes[ONE_SIDED_HW] = signal
    return m


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
