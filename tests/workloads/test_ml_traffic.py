"""ML traffic runners: validation, accounting invariants, session wiring.

The three :mod:`repro.workloads.ml` runners model the communication
patterns the experiments sweep (data-parallel allreduce, MoE alltoall,
KV-cache broadcast).  These tests pin their parameter validation, the
internal consistency of every derived field, and the roofline-style
scaling directions the experiment expectations rely on.
"""

from __future__ import annotations

import pytest

from repro import Session
from repro.collectives import CollectiveError, explain_collective, run_collective
from repro.machines import perlmutter_gpu
from repro.transport import SHMEM, TWO_SIDED
from repro.workloads.ml import (
    run_kv_transfer,
    run_moe_dispatch,
    run_training_step,
)

PM = perlmutter_gpu


# ---------------------------------------------------------------------------
# training step
# ---------------------------------------------------------------------------


class TestTrainingStep:
    def test_result_is_internally_consistent(self):
        r = run_training_step(PM(), SHMEM, nranks=4, grad_bytes=1 << 20,
                              tokens_per_rank=256)
        assert r.nranks == 4
        assert r.grad_bytes == float(1 << 20)
        assert r.time > 0
        assert r.compute_time > 0
        assert 0.0 <= r.comm_fraction <= 1.0
        assert r.comm_time == pytest.approx(
            max(r.time - r.compute_time, 0.0)
        )
        assert r.comm_fraction == pytest.approx(r.comm_time / r.time)
        assert r.step_rate == pytest.approx(1.0 / r.time)
        assert r.flops_per_rank == 6.0 * (r.grad_bytes / 4.0) * 256
        assert r.algorithm in ("ring", "recursive_doubling")

    def test_more_tokens_hide_the_allreduce(self):
        small = run_training_step(PM(), SHMEM, nranks=4, grad_bytes=1 << 20,
                                  tokens_per_rank=128)
        large = run_training_step(PM(), SHMEM, nranks=4, grad_bytes=1 << 20,
                                  tokens_per_rank=8192)
        assert large.comm_fraction < small.comm_fraction
        assert large.compute_time > small.compute_time

    def test_bigger_gradient_costs_more(self):
        t = [
            run_training_step(PM(), SHMEM, nranks=4, grad_bytes=g,
                              tokens_per_rank=256).time
            for g in (1 << 18, 1 << 22)
        ]
        assert t[0] < t[1]

    def test_bucketing_splits_unevenly_but_runs(self):
        # 10 words over 3 buckets: 4 + 3 + 3.
        r = run_training_step(PM(), SHMEM, nranks=4, grad_bytes=80,
                              buckets=3)
        assert r.buckets == 3
        assert r.time > 0
        # More buckets means more alpha cost on the same bytes.
        r1 = run_training_step(PM(), SHMEM, nranks=4, grad_bytes=1 << 16,
                               buckets=1, algorithm="ring")
        r8 = run_training_step(PM(), SHMEM, nranks=4, grad_bytes=1 << 16,
                               buckets=8, algorithm="ring")
        assert r8.time >= r1.time

    def test_deterministic(self):
        kw = dict(nranks=4, grad_bytes=1 << 18, tokens_per_rank=512)
        assert (run_training_step(PM(), SHMEM, **kw).time
                == run_training_step(PM(), SHMEM, **kw).time)

    @pytest.mark.parametrize(
        ("kwargs", "match"),
        [
            (dict(grad_bytes=4.0), "grad_bytes"),
            (dict(grad_bytes=1 << 20, buckets=0), "buckets"),
            (dict(grad_bytes=64, buckets=32), "exceeds gradient words"),
            (dict(grad_bytes=1 << 20, tokens_per_rank=0), "tokens_per_rank"),
        ],
    )
    def test_validation(self, kwargs, match):
        with pytest.raises(CollectiveError, match=match):
            run_training_step(PM(), SHMEM, nranks=4, **kwargs)

    @pytest.mark.parametrize(
        ("kwargs", "match"),
        [
            (dict(nranks=0, grad_bytes=1024.0), "nranks must be an integer >= 1, got 0"),
            (dict(nranks=4, grad_bytes=float("nan")), "grad_bytes must be finite"),
            (dict(nranks=4, grad_bytes=float("inf")), "grad_bytes must be finite"),
        ],
    )
    def test_degenerate_inputs_are_typed(self, kwargs, match):
        """With the default ``algorithm="auto"``, too: the request is
        checked before the selector models it."""
        with pytest.raises(CollectiveError, match=match):
            run_training_step(PM(), SHMEM, **kwargs)


# ---------------------------------------------------------------------------
# MoE dispatch
# ---------------------------------------------------------------------------


class TestMoeDispatch:
    def test_result_is_internally_consistent(self):
        r = run_moe_dispatch(PM(), SHMEM, nranks=4, tokens_per_rank=512,
                             hidden=64)
        assert r.time > 0
        assert 0.0 <= r.comm_fraction <= 1.0
        assert r.comm_time == pytest.approx(max(r.time - r.compute_time, 0.0))
        # Equal routing: tokens/P per destination, hidden words each.
        assert r.dispatch_bytes == (4 - 1) * (512 // 4) * 64 * 8.0
        assert r.tokens_per_s == pytest.approx(512 / r.time)
        assert r.algorithm in ("pairwise", "ring")

    def test_wider_experts_hide_the_dispatch(self):
        narrow = run_moe_dispatch(PM(), SHMEM, nranks=4, tokens_per_rank=512,
                                  hidden=32)
        wide = run_moe_dispatch(PM(), SHMEM, nranks=4, tokens_per_rank=512,
                                hidden=512)
        assert wide.comm_fraction < narrow.comm_fraction

    def test_more_tokens_longer_layer(self):
        t = [
            run_moe_dispatch(PM(), SHMEM, nranks=4, tokens_per_rank=k,
                             hidden=64).time
            for k in (128, 2048)
        ]
        assert t[0] < t[1]

    @pytest.mark.parametrize(
        ("kwargs", "match"),
        [
            (dict(tokens_per_rank=2), "tokens_per_rank"),
            (dict(hidden=0), "hidden"),
            (dict(ffn_mult=0), "ffn_mult"),
        ],
    )
    def test_validation(self, kwargs, match):
        with pytest.raises(CollectiveError, match=match):
            run_moe_dispatch(PM(), SHMEM, nranks=4, **kwargs)

    def test_zero_ranks_is_typed(self):
        """Not ``ZeroDivisionError`` from the per-expert token split."""
        with pytest.raises(CollectiveError, match="moe nranks must be an integer >= 1, got 0"):
            run_moe_dispatch(PM(), "shmem", nranks=0, tokens_per_rank=8, hidden=64)


# ---------------------------------------------------------------------------
# KV transfer
# ---------------------------------------------------------------------------


class TestKvTransfer:
    def test_result_is_internally_consistent(self):
        r = run_kv_transfer(PM(), SHMEM, nranks=4, context_tokens=512)
        assert r.kv_bytes == 2 * r.layers * 512 * r.hidden * 8.0
        assert r.prefill_time > 0
        assert r.transfer_time > 0
        assert r.decode_time == pytest.approx(
            r.decode_tokens * (r.decode_time / r.decode_tokens)
        )
        assert r.ttft == pytest.approx(
            r.prefill_time + r.transfer_time + r.decode_time / r.decode_tokens
        )
        assert r.transfer_bandwidth == pytest.approx(
            r.kv_bytes / r.transfer_time
        )
        assert r.algorithm in ("tree", "ring")

    def test_handoff_grows_with_context(self):
        small = run_kv_transfer(PM(), SHMEM, nranks=4, context_tokens=256)
        large = run_kv_transfer(PM(), SHMEM, nranks=4, context_tokens=4096)
        assert small.transfer_time < large.transfer_time
        assert small.ttft < large.ttft
        # The large cache amortizes per-round latency: better bandwidth.
        assert large.transfer_bandwidth > small.transfer_bandwidth

    def test_gpu_initiated_never_slower(self):
        host = run_kv_transfer(PM(), TWO_SIDED, nranks=4, context_tokens=1024)
        gpu = run_kv_transfer(PM(), SHMEM, nranks=4, context_tokens=1024)
        assert gpu.transfer_time <= host.transfer_time

    @pytest.mark.parametrize(
        ("kwargs", "match"),
        [
            (dict(nranks=1), "replica"),
            (dict(nranks=4, context_tokens=0), ">= 1"),
            (dict(nranks=4, layers=0), ">= 1"),
        ],
    )
    def test_validation(self, kwargs, match):
        with pytest.raises(CollectiveError, match=match):
            run_kv_transfer(PM(), SHMEM, **kwargs)


# ---------------------------------------------------------------------------
# Session facade + observability wiring
# ---------------------------------------------------------------------------


class TestSessionIntegration:
    def test_session_runners_and_metrics(self):
        with Session(obs=True) as s:
            tr = run_training_step(PM(), SHMEM, nranks=4, grad_bytes=1 << 18)
            moe = run_moe_dispatch(PM(), SHMEM, nranks=4, tokens_per_rank=64, hidden=16)
            kv = run_kv_transfer(PM(), SHMEM, nranks=4, context_tokens=128)
            coll = run_collective(PM(), SHMEM, "allreduce", nranks=4, nelems=64)
        assert tr.time > 0 and moe.time > 0 and kv.time > 0 and coll.time > 0
        snap = s.obs.snapshot()
        assert snap["ml.training.steps"] == 1
        assert snap["ml.moe.layers"] == 1
        assert snap["ml.inference.kv_bytes"] == kv.kv_bytes * 3
        assert snap["collectives.allreduce.runs"] == 1
        assert snap["span.ml:training_step.seconds"] > 0
        assert snap["span.ml:moe_dispatch.seconds"] > 0
        assert snap["span.ml:kv_transfer.seconds"] > 0
        assert any(k.startswith("span.collective:allreduce:") for k in snap)

    def test_session_explain(self):
        with Session():
            sel = explain_collective(PM(), SHMEM, "allreduce", nranks=4, nbytes=1 << 20)
        assert "<- selected" in sel.explain()
