"""Trace analysis and DAG critical-path tools."""

import numpy as np
import pytest

from repro import obs
from repro.analysis import (
    analyze_dag,
    ascii_timeline,
    bandwidth_timeline,
    comm_matrix,
    latency_lower_bound,
    message_stats,
    rank_activity,
)
from repro.comm import Job
from repro.machines import perlmutter_cpu
from repro.workloads.sptrsv import MatrixSpec, generate_matrix


def _traced_flood(n=8, nbytes=4096):
    def program(ctx):
        if ctx.rank == 0:
            reqs = []
            for _ in range(n):
                r = yield from ctx.isend(1, nbytes=nbytes)
                reqs.append(r)
            yield from ctx.waitall(reqs)
        else:
            for _ in range(n):
                yield from ctx.recv(source=0)

    with obs.observe(obs.Obs(trace=True)):
        job = Job(perlmutter_cpu(), 2, "two_sided", placement="spread")
        job.run(program)
    return job.tracer


class TestMessageStats:
    def test_counts_and_sizes(self):
        tracer = _traced_flood(n=8, nbytes=4096)
        stats = message_stats(tracer)
        # 8 data messages plus barrier-free run: every transfer is 4096 B
        # except possible zero-byte control traffic.
        assert stats.count >= 8
        assert stats.max_bytes == 4096
        assert stats.total_bytes >= 8 * 4096
        assert stats.mean_wire_time > 0
        assert stats.p95_wire_time >= stats.mean_wire_time * 0.5

    def test_words_per_message(self):
        tracer = _traced_flood(n=4, nbytes=800)
        stats = message_stats(tracer)
        assert stats.words_per_message() == pytest.approx(100, rel=0.2)

    def test_empty_trace_rejected(self):
        from repro.sim import Tracer

        with pytest.raises(ValueError, match="no fabric transfers"):
            message_stats(Tracer())


class TestTimeline:
    def test_bins_cover_run(self):
        tracer = _traced_flood(n=16)
        tl = bandwidth_timeline(tracer, nbins=8)
        assert len(tl) == 8
        assert all(v >= 0 for _, v in tl)
        assert any(v > 0 for _, v in tl)
        # Bin centers are evenly spaced and increasing.
        widths = {round(b - a, 15) for (a, _), (b, _) in zip(tl, tl[1:])}
        assert len(widths) == 1

    def test_bytes_conserved_across_bins(self):
        tracer = _traced_flood(n=16, nbytes=1024)
        tl = bandwidth_timeline(tracer, nbins=5)
        stats = message_stats(tracer)
        width = tl[1][0] - tl[0][0]
        recovered = sum(v * width for _, v in tl)
        assert recovered == pytest.approx(stats.total_bytes, rel=1e-6)

    def test_invalid_bins(self):
        tracer = _traced_flood()
        with pytest.raises(ValueError):
            bandwidth_timeline(tracer, nbins=0)

    def test_ascii_render(self):
        tracer = _traced_flood(n=16)
        text = ascii_timeline(bandwidth_timeline(tracer, nbins=4))
        assert text.count("|") >= 8
        assert "GB/s" in text


class TestRankViews:
    def test_activity_counts(self):
        tracer = _traced_flood(n=8)
        act = rank_activity(tracer)
        assert act[0]["send"] == 8
        assert act[1]["arrive"] == 8
        assert act[1]["send"] == 0

    def test_comm_matrix(self):
        tracer = _traced_flood(n=8, nbytes=512)
        m = comm_matrix(tracer, 2)
        assert m[0, 1] == 8 * 512
        assert m[1, 0] == 0
        assert m[0, 0] == 0

    def test_comm_matrix_one_sided(self):
        def program(ctx):
            h = win.handle(ctx)
            if ctx.rank == 0:
                yield from h.put(1, np.ones(4))
                yield from h.flush(1)
            else:
                yield from ctx.compute(seconds=0)

        with obs.observe(obs.Obs(trace=True)):
            job = Job(perlmutter_cpu(), 2, "one_sided", placement="spread")
            win = job.window(8)
            job.run(program)
        m = comm_matrix(job.tracer, 2)
        assert m[0, 1] == 32.0


class TestCriticalPath:
    def test_profile_consistency(self, small_matrix):
        prof = analyze_dag(small_matrix)
        assert sum(prof.levels) == prof.n_supernodes
        assert prof.critical_path == len(prof.levels)
        assert prof.critical_path == small_matrix.critical_path_length()
        assert prof.max_parallelism >= 1
        assert 0 <= prof.serial_fraction <= 1
        assert "critical path" in prof.summary()

    def test_chain_matrix_is_fully_serial(self):
        # density 0 forces only the guaranteed (I, I-1) chain blocks.
        m = generate_matrix(
            MatrixSpec(n_supernodes=10, width_lo=2, width_hi=4,
                       block_density=1e-9, seed=0)
        )
        prof = analyze_dag(m)
        assert prof.critical_path == 10
        assert prof.mean_parallelism == 1.0
        assert prof.serial_fraction == 1.0

    def test_lower_bound_matches_simulation_order(self, medium_matrix):
        """The analytic bound must actually bound the simulated solve."""
        from repro.workloads.sptrsv import run_sptrsv

        res = run_sptrsv(perlmutter_cpu(), "two_sided", medium_matrix, 4)
        bound = latency_lower_bound(
            medium_matrix, per_message_latency=3.3e-6, nranks=4
        )
        assert res.time >= bound * 0.5  # bound is loose but not violated

    def test_lower_bound_single_rank_has_no_comm(self, small_matrix):
        b = latency_lower_bound(
            small_matrix, per_message_latency=1e-5,
            compute_time_total=1e-3, nranks=1,
        )
        assert b == pytest.approx(1e-3)

    def test_lower_bound_validation(self, small_matrix):
        with pytest.raises(ValueError):
            latency_lower_bound(small_matrix, per_message_latency=-1)
        with pytest.raises(ValueError):
            latency_lower_bound(small_matrix, per_message_latency=0, nranks=0)
