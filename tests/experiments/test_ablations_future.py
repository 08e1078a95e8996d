"""Ablation studies and the Frontier ROC_SHMEM projection."""

import pytest

from repro.experiments.ablations import (
    ALL_ABLATIONS,
    run_ablation_gap,
    run_ablation_put_with_signal,
    run_ablation_split_factor,
)
from repro.experiments.future import run_future_frontier
from repro.machines import get_machine
from repro.machines.frontier import frontier_gpu_projection


@pytest.mark.parametrize("name", sorted(ALL_ABLATIONS))
def test_ablation_expectations_hold(name):
    report = ALL_ABLATIONS[name]()
    failed = [k for k, ok in report.expectations.items() if not ok]
    assert not failed, f"{name}: {failed}"


class TestAblationContent:
    def test_gap_ablation_quantifies_ceiling(self):
        rep = run_ablation_gap()
        # Removing o and g must be a strict improvement at 64 B.
        small = rep.rows[0]
        assert small[3] > small[1]

    def test_put_signal_ablation_reverses_the_loss(self):
        rep = run_ablation_put_with_signal()
        hw = {(r[0], r[1]): r[3] for r in rep.rows}
        # Emulation > 1 (loses to two-sided); hw < 1 (wins) — the paper's
        # §V projection in numbers.
        assert hw[("one_sided", 4)] > 1.0
        assert hw[("one_sided_hw", 4)] < 1.0

    def test_split_factor_rows_cover_k(self):
        rep = run_ablation_split_factor()
        assert [r[0] for r in rep.rows] == [2, 4, 8]


class TestFrontierProjection:
    def test_projection_expectations_hold(self):
        rep = run_future_frontier()
        failed = [k for k, ok in rep.expectations.items() if not ok]
        assert not failed

    def test_projection_machine_is_flagged(self):
        m = frontier_gpu_projection()
        assert "PROJECTION" in m.description
        assert m.is_gpu_machine
        assert m.max_ranks == 4

    def test_projection_in_registry_but_not_table1(self):
        from repro.machines import machine_names, table1_row

        assert "frontier-gpu" not in machine_names()
        assert "frontier-gpu" in machine_names(include_projections=True)
        assert get_machine("frontier-gpu").name == "frontier-gpu"
        rows = [table1_row(n) for n in machine_names()]
        assert all(r["machine"] != "frontier-gpu" for r in rows)

    def test_emulated_wait_visibly_slower_than_native(self):
        """The core projection claim: software-emulated wait_until_any
        makes SpTRSV slower than with NVSHMEM's native wait."""
        from repro.machines import perlmutter_gpu
        from repro.workloads.sptrsv import MatrixSpec, generate_matrix, run_sptrsv

        m = generate_matrix(MatrixSpec(n_supernodes=80, seed=6))
        t_native = run_sptrsv(perlmutter_gpu(), "shmem", m, 4).time
        t_emulated = run_sptrsv(frontier_gpu_projection(), "shmem", m, 4).time
        assert t_emulated > t_native

    def test_projection_workloads_still_correct(self):
        """Projection machines run the same verified code paths."""
        import numpy as np

        from repro.workloads.sptrsv import (
            MatrixSpec,
            SpTrsvConfig,
            generate_matrix,
            reference_solve,
            run_sptrsv,
        )

        m = generate_matrix(MatrixSpec(n_supernodes=16, width_lo=2, width_hi=10, seed=1))
        b = np.ones(m.n)
        res = run_sptrsv(
            frontier_gpu_projection(), "shmem", m, 4,
            cfg=SpTrsvConfig(mode="execute"), b=b,
        )
        assert np.allclose(res.extras["x"], reference_solve(m, b), atol=1e-9)
