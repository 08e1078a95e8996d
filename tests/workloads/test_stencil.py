"""Stencil kernels and the distributed runner (all three comm variants)."""

import numpy as np
import pytest

from repro.machines import perlmutter_cpu, perlmutter_gpu, summit_gpu
from repro.workloads.stencil import (
    ProcessGrid,
    StencilConfig,
    initial_grid,
    jacobi_reference,
    jacobi_step,
    run_stencil,
)
from tests.regression.test_ir_parity import _hw_machine


class TestKernels:
    def test_initial_grid_hot_edge(self):
        u = initial_grid(8, 8)
        assert np.all(u[0, :] == 1.0)
        assert np.all(u[1:, :] == 0.0)

    def test_jacobi_step_averages_neighbors(self):
        u = np.zeros((3, 3))
        u[0, 1] = 4.0  # north neighbor of the single interior cell
        out = jacobi_step(u)
        assert out[1, 1] == 1.0

    def test_jacobi_step_preserves_boundary(self):
        u = initial_grid(6, 6)
        out = jacobi_step(u)
        assert np.array_equal(out[0, :], u[0, :])
        assert np.array_equal(out[-1, :], u[-1, :])

    def test_jacobi_out_buffer_reused(self):
        u = initial_grid(5, 5)
        scratch = np.empty_like(u)
        out = jacobi_step(u, scratch)
        assert out is scratch

    def test_reference_converges_toward_laplace(self):
        u = jacobi_reference(initial_grid(10, 10), 2000)
        # Interior rows interpolate between hot (1.0) and cold (0.0) edges.
        col = u[:, 5]
        assert np.all(np.diff(col) <= 1e-9)
        assert 0 < col[5] < 1

    def test_small_grid_rejected(self):
        with pytest.raises(ValueError):
            initial_grid(2, 5)
        with pytest.raises(ValueError):
            jacobi_step(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            jacobi_reference(initial_grid(4, 4), -1)


@pytest.mark.parametrize(
    "runtime,machine_factory,nranks",
    [
        ("two_sided", perlmutter_cpu, 4),
        ("two_sided", perlmutter_cpu, 8),
        ("one_sided", perlmutter_cpu, 4),
        ("one_sided", perlmutter_cpu, 8),
        ("shmem", perlmutter_gpu, 4),
        ("shmem", summit_gpu, 6),
    ],
)
class TestDistributedCorrectness:
    def test_matches_serial_reference(self, runtime, machine_factory, nranks):
        n = 24
        iters = 6
        cfg = StencilConfig(nx=n, ny=n, iters=iters, mode="execute")
        ref = jacobi_reference(initial_grid(n, n), iters)
        res = run_stencil(machine_factory(), runtime, cfg, nranks)
        assert np.allclose(res.extras["field"], ref, atol=1e-12)


# (runtime, machine): every backend.
_UNEVEN_ROWS = [
    ("two_sided", perlmutter_cpu),
    ("one_sided", perlmutter_cpu),
    ("shmem", summit_gpu),
    ("stream_triggered", summit_gpu),
    ("one_sided_hw", _hw_machine),
]


class TestDistributedBehaviour:
    def test_uneven_decomposition_correct(self):
        # 33x35 over 3x2: blocks differ by one row/column, so a strip lands
        # at an offset of the receiver's layout, not the sender's.
        cfg = StencilConfig(nx=33, ny=35, iters=4, mode="execute")
        ref = jacobi_reference(initial_grid(33, 35), 4)
        for runtime, machine_factory in _UNEVEN_ROWS:
            res = run_stencil(
                machine_factory(), runtime, cfg, 6, grid=ProcessGrid(3, 2)
            )
            assert np.allclose(res.extras["field"], ref, atol=1e-12), runtime

    def test_single_rank_needs_no_comm(self):
        cfg = StencilConfig(nx=16, ny=16, iters=3, mode="execute")
        res = run_stencil(perlmutter_cpu(), "two_sided", cfg, 1)
        assert res.counters.messages == 0
        ref = jacobi_reference(initial_grid(16, 16), 3)
        assert np.allclose(res.extras["field"], ref)

    def test_msg_per_sync_is_four_for_interior(self):
        cfg = StencilConfig(nx=64, ny=64, iters=5, mode="simulate")
        res = run_stencil(perlmutter_cpu(), "two_sided", cfg, 16)
        grid = ProcessGrid.square_ish(16)
        interior = next(
            r for r in range(16) if len(grid.neighbors(r)) == 4
        )
        c = res.per_rank[interior]
        # 4 messages per iteration, one waitall (+1 setup barrier overall).
        assert c.messages == 4 * 5
        assert c.syncs == 5 + 1

    def test_one_sided_and_two_sided_times_close(self):
        """Paper Fig. 5: bandwidth-bound stencil shows no one-sided gain."""
        cfg = StencilConfig(nx=2048, ny=2048, iters=4, mode="simulate")
        t2 = run_stencil(perlmutter_cpu(), "two_sided", cfg, 16).time
        t1 = run_stencil(perlmutter_cpu(), "one_sided", cfg, 16).time
        assert t1 / t2 == pytest.approx(1.0, abs=0.15)

    def test_gpu_faster_than_cpu(self):
        cfg = StencilConfig(nx=4096, ny=4096, iters=3, mode="simulate")
        t_cpu = run_stencil(perlmutter_cpu(), "two_sided", cfg, 16).time
        t_gpu = run_stencil(perlmutter_gpu(), "shmem", cfg, 4).time
        assert t_gpu < t_cpu

    def test_grid_mismatch_rejected(self):
        cfg = StencilConfig(nx=16, ny=16, iters=1)
        with pytest.raises(ValueError, match="!= nranks"):
            run_stencil(perlmutter_cpu(), "two_sided", cfg, 4, grid=ProcessGrid(3, 2))

    def test_unknown_runtime_rejected(self):
        cfg = StencilConfig(nx=16, ny=16, iters=1)
        with pytest.raises((ValueError, KeyError)):
            run_stencil(perlmutter_cpu(), "nccl", cfg, 4)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            StencilConfig(nx=2, ny=16)
        with pytest.raises(ValueError):
            StencilConfig(iters=0)
        with pytest.raises(ValueError):
            StencilConfig(mode="dry-run")

    @pytest.mark.parametrize(
        "field,value",
        [
            ("iters", float("nan")),
            ("iters", 2.5),
            ("nx", float("nan")),
            ("nx", float("inf")),
            ("nx", 4096.5),
            ("ny", 24.5),
        ],
    )
    def test_config_rejects_non_integral_and_non_finite(self, field, value):
        # Each of these reached the run at the previous revision: a
        # TypeError from range(), the fabric's nbytes check or a returned row.
        kwargs = {"nx": 24, "ny": 24, "iters": 2, field: value}
        with pytest.raises(ValueError, match=f"stencil {field} must be"):
            StencilConfig(**kwargs)

    def test_result_rows(self):
        cfg = StencilConfig(nx=64, ny=64, iters=2, mode="simulate")
        res = run_stencil(perlmutter_cpu(), "two_sided", cfg, 4)
        assert res.workload == "stencil"
        assert res.nranks == 4
        assert res.time > 0
        # The paper's ratios are the merged counters' own.
        assert res.counters.msgs_per_sync() > 0
        assert res.counters.ops_per_message() >= 2  # isend + wait, plus syncs
        assert res.counters.words_per_message() > 0
