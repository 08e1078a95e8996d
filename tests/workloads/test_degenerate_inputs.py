"""Degenerate counts are typed errors that name the caller's argument.

``nan`` slips past every ``x < 1`` check and a fraction is no count; each
row below used to surface as a ``TypeError`` from building the program, a
float conversion error, a ``flops`` complaint about an argument the
caller never passed, an ``OverflowError`` deep in a retry loop, or no
error at all.
"""

import pytest

from repro.faults import RetransmitPolicy
from repro.machines import perlmutter_cpu, perlmutter_gpu
from repro.net.loggp import LogGPParams
from repro.roofline import FloodSample, MessageRoofline, fit_loggp
from repro.workloads.flood import run_cas_flood, run_flood
from repro.workloads.hashtable.runner import HashTableConfig, run_hashtable
from repro.workloads.ml import run_kv_transfer, run_moe_dispatch, run_training_step
from repro.workloads.sptrsv import MatrixSpec
from repro.workloads.stencil import StencilConfig, run_stencil

NAN, INF = float("nan"), float("inf")
CPU, GPU = perlmutter_cpu, perlmutter_gpu


def _fit_with(**bad):
    """Fit four clean samples and one with ``bad`` fields."""
    clean = FloodSample(nbytes=64.0, msgs_per_sync=1, bandwidth=1e9)
    return fit_loggp([clean] * 4 + [FloodSample(**{**vars(clean), **bad})])


ROOF = MessageRoofline(LogGPParams(L=1e-6, o=2e-7, g=2e-8, G=4e-11, o_sync=5e-7))


CASES = {
    "flood-msgs-nan": (
        lambda: run_flood(CPU(), "one_sided", 64, NAN),
        r"flood msgs_per_sync must be an integer >= 1, got nan",
    ),
    "flood-msgs-fraction": (
        lambda: run_flood(CPU(), "one_sided", 64, 2.5),
        r"flood msgs_per_sync must be an integer >= 1, got 2\.5",
    ),
    "cas-n_ops-nan": (
        lambda: run_cas_flood(CPU(), "one_sided", n_ops=NAN),
        r"cas flood n_ops must be >= 1, got nan",
    ),
    "hashtable-total_inserts-nan": (
        lambda: run_hashtable(CPU(), "one_sided", HashTableConfig(total_inserts=NAN), 2),
        r"hashtable total_inserts must be an integer >= 1, got nan",
    ),
    "kv-layers-nan": (
        lambda: run_kv_transfer(GPU(), "shmem", nranks=2, layers=NAN),
        r"kv_transfer layers must be an integer >= 1, got nan",
    ),
    "moe-hidden-nan": (
        lambda: run_moe_dispatch(GPU(), "shmem", nranks=2, hidden=NAN),
        r"moe hidden must be an integer >= 1, got nan",
    ),
    "training-tokens_per_rank-nan": (
        lambda: run_training_step(
            GPU(), "shmem", nranks=2, grad_bytes=1024.0, tokens_per_rank=NAN
        ),
        r"training tokens_per_rank must be an integer >= 1, got nan",
    ),
    # An infinite retry budget against a dead element used to retry until
    # ``backoff ** attempts`` overflowed; a fraction silently truncated.
    "retransmit-max_retries-nan": (
        lambda: RetransmitPolicy(max_retries=NAN),
        r"max_retries must be an integer >= 0, got nan",
    ),
    "retransmit-max_retries-inf": (
        lambda: RetransmitPolicy(max_retries=INF),
        r"max_retries must be an integer >= 0, got inf",
    ),
    "retransmit-max_retries-fraction": (
        lambda: RetransmitPolicy(max_retries=2.5),
        r"max_retries must be an integer >= 0, got 2\.5",
    ),
    "matrix-density_range-nan": (
        lambda: MatrixSpec(density_range=NAN),
        r"matrix density_range must be finite and > 0, got nan",
    ),
    "matrix-n_supernodes-fraction": (
        lambda: MatrixSpec(n_supernodes=2.5),
        r"matrix n_supernodes must be an integer >= 2, got 2\.5",
    ),
    "matrix-width_hi-fraction": (
        lambda: MatrixSpec(width_hi=4.5),
        r"matrix width_hi must be an integer >= 1, got 4\.5",
    ),
    "flood-nranks-fraction": (
        lambda: run_flood(CPU(), "one_sided", 64, 4, nranks=2.5),
        r"flood nranks must be an integer >= 2, got 2\.5",
    ),
    "cas-nranks-fraction": (
        lambda: run_cas_flood(CPU(), "one_sided", nranks=2.5),
        r"cas flood nranks must be an integer >= 2, got 2\.5",
    ),
    "stencil-nranks-fraction": (
        lambda: run_stencil(CPU(), "one_sided", StencilConfig(nx=16, ny=16), 2.5),
        r"stencil nranks must be an integer >= 1, got 2\.5",
    ),
    "training-iters-zero": (
        lambda: run_training_step(GPU(), "shmem", nranks=2, grad_bytes=1024.0, iters=0),
        r"training iters must be an integer >= 1, got 0",
    ),
    "training-iters-fraction": (
        lambda: run_training_step(GPU(), "shmem", nranks=2, grad_bytes=1024.0, iters=2.5),
        r"training iters must be an integer >= 1, got 2\.5",
    ),
    "moe-iters-zero": (
        lambda: run_moe_dispatch(GPU(), "shmem", nranks=2, iters=0),
        r"moe iters must be an integer >= 1, got 0",
    ),
    "moe-iters-fraction": (
        lambda: run_moe_dispatch(GPU(), "shmem", nranks=2, iters=2.5),
        r"moe iters must be an integer >= 1, got 2\.5",
    ),
    # The fit used to stop inside its solver ("Initial guess is outside of
    # provided bounds", "Residuals are not finite") or fit a fraction.
    "fit-bandwidth-nan": (
        lambda: _fit_with(bandwidth=NAN),
        r"fit sample bandwidth must be a positive finite number, got nan",
    ),
    "fit-nbytes-inf": (
        lambda: _fit_with(nbytes=INF),
        r"fit sample nbytes must be a positive finite number, got inf",
    ),
    "fit-bandwidth-inf": (
        lambda: _fit_with(bandwidth=INF),
        r"fit sample bandwidth must be a positive finite number, got inf",
    ),
    "fit-msgs_per_sync-fraction": (
        lambda: _fit_with(msgs_per_sync=2.5),
        r"fit sample msgs_per_sync must be an integer >= 1, got 2\.5",
    ),
    # The Message Roofline used to answer nan, accept a fractional count,
    # divide by zero, fail a float conversion, or price a negative size.
    "roofline-time-nbytes-nan": (
        lambda: ROOF.time(NAN),
        r"roofline nbytes must be a finite number >= 0, got nan",
    ),
    "roofline-time-nbytes-inf": (
        lambda: ROOF.time(INF, 4),
        r"roofline nbytes must be a finite number >= 0, got inf",
    ),
    "roofline-bandwidth-nbytes-nan": (
        lambda: ROOF.bandwidth(NAN),
        r"roofline nbytes must be a finite number > 0, got nan",
    ),
    "roofline-bandwidth-nbytes-inf": (
        lambda: ROOF.bandwidth(INF, 4),
        r"roofline nbytes must be a finite number > 0, got inf",
    ),
    "roofline-bound-nbytes-nan": (
        lambda: ROOF.bound(NAN),
        r"roofline nbytes must be a finite number > 0, got nan",
    ),
    "roofline-time-msgs_per_sync-fraction": (
        lambda: ROOF.time(64, 2.5),
        r"roofline msgs_per_sync must be an integer >= 1, got 2\.5",
    ),
    "roofline-knee_size-msgs_per_sync-zero": (
        lambda: ROOF.knee_size(0),
        r"roofline msgs_per_sync must be an integer >= 1, got 0",
    ),
    "roofline-required_msgs_per_sync-nbytes-nan": (
        lambda: ROOF.required_msgs_per_sync(NAN, 0.5),
        r"roofline nbytes must be a finite number > 0, got nan",
    ),
    "roofline-max_overlap_gain-nbytes-negative": (
        lambda: ROOF.max_overlap_gain(-1),
        r"roofline nbytes must be a finite number >= 0, got -1",
    ),
}


@pytest.mark.parametrize("case", list(CASES))
def test_degenerate_count_names_the_argument(case):
    call, message = CASES[case]
    with pytest.raises(ValueError, match=message):
        call()
