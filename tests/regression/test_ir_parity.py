"""IR lowering parity: passes-off output pinned across all five backends.

The IR layer is a refactor seam on top of the transport seam: with the
empty pipeline (the default), lowering a builder-produced program through
:func:`repro.ir.lower.run_program` must reproduce the pre-IR hand-written
runners exactly — same simulated times, same op counts, same
execute-mode values — on every backend.  ``test_transport_parity.py``
pins the experiment reports end-to-end; this lane pins the per-workload
rows directly (including ``one_sided_hw``, which no stock machine hosts)
and snapshots the ``explain()`` report format.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import ir
from repro.machines.registry import get_machine
from repro.transport import ONE_SIDED, ONE_SIDED_HW
from repro.workloads.flood import run_flood
from repro.workloads.hashtable.runner import HashTableConfig, run_hashtable
from repro.workloads.sptrsv.matrix import MatrixSpec, generate_matrix
from repro.workloads.sptrsv.runner import SpTrsvConfig, run_sptrsv
from repro.workloads.stencil.runner import StencilConfig, run_stencil


def _hw_machine():
    """A perlmutter-cpu variant hosting the fused put-with-signal backend
    (mirrors the put_signal ablation's hypothetical CrayMPI)."""
    m = get_machine("perlmutter-cpu")
    one = m.runtimes[ONE_SIDED]
    m.runtimes[ONE_SIDED_HW] = dataclasses.replace(
        one, put_signal=one.put, wait_wakeup=1.0e-6, poll_slot=0.0,
        wait_poll=2e-7,
    )
    return m


def _machine_for(backend: str):
    if backend in ("shmem", "stream_triggered"):
        # stream_triggered needs no calibrated profile: its backend derives
        # the costs from the machine's host-driven ones.
        return get_machine("perlmutter-gpu")
    if backend == "one_sided_hw":
        return _hw_machine()
    return get_machine("perlmutter-cpu")


BACKENDS = ["two_sided", "one_sided", "shmem", "one_sided_hw", "stream_triggered"]


@pytest.mark.parametrize("backend", BACKENDS)
class TestPassesOffParity:
    """Ambient default (no scope) == explicit all-off pipeline, per backend."""

    def test_flood_rows_identical(self, backend):
        m = _machine_for(backend)
        base = run_flood(m, backend, 4096, 16, iters=2)
        with ir.passes(False):
            off = run_flood(m, backend, 4096, 16, iters=2)
        assert off == base  # FloodResult is a frozen dataclass: full row

    def test_stencil_rows_identical(self, backend):
        m = _machine_for(backend)
        cfg = StencilConfig(nx=32, ny=32, iters=3, mode="execute")
        base = run_stencil(m, backend, cfg, 4)
        with ir.passes(False):
            off = run_stencil(m, backend, cfg, 4)
        assert off.time == base.time
        assert off.counters == base.counters
        assert np.array_equal(off.extras["field"], base.extras["field"])

    def test_hashtable_rows_identical(self, backend):
        m = _machine_for(backend)
        cfg = HashTableConfig(total_inserts=256)
        base = run_hashtable(m, backend, cfg, 4)
        with ir.passes(False):
            off = run_hashtable(m, backend, cfg, 4)
        assert off.time == base.time
        assert off.counters == base.counters
        assert sorted(off.extras["values"]) == sorted(base.extras["values"])
        assert off.extras["collisions"] == base.extras["collisions"]

    def test_sptrsv_rows_identical(self, backend):
        m = _machine_for(backend)
        matrix = generate_matrix(MatrixSpec(n_supernodes=16, seed=3))
        cfg = SpTrsvConfig(mode="execute")
        base = run_sptrsv(m, backend, matrix, 4, cfg=cfg)
        with ir.passes(False):
            off = run_sptrsv(m, backend, matrix, 4, cfg=cfg)
        assert off.time == base.time
        assert off.counters == base.counters
        assert np.allclose(off.extras["x"], base.extras["x"], rtol=0, atol=0)


class TestPassesOnAccuracy:
    """Execute-mode results are bit-identical with the pipeline on —
    passes rearrange *communication*, never the numerics."""

    def test_stencil_field_unchanged(self):
        m = get_machine("perlmutter-cpu")
        cfg = StencilConfig(nx=32, ny=32, iters=3, mode="execute")
        base = run_stencil(m, "one_sided", cfg, 4)
        with ir.passes(True):
            on = run_stencil(m, "one_sided", cfg, 4)
        assert np.array_equal(on.extras["field"], base.extras["field"])
        assert on.time <= base.time  # rewrites only remove modeled work

    def test_flood_payload_equivalent_and_faster(self):
        m = get_machine("perlmutter-cpu")
        base = run_flood(m, "one_sided", 4096, 64, iters=2)
        with ir.passes(True):
            on = run_flood(m, "one_sided", 4096, 64, iters=2)
        assert on.nbytes == base.nbytes
        assert on.msgs_per_sync == base.msgs_per_sync
        assert on.time_total < base.time_total


class TestExplainSnapshots:
    """The explain() report format is part of the public surface."""

    def test_passes_off_report(self):
        m = get_machine("perlmutter-cpu")
        with ir.collect() as reports:
            run_flood(m, "one_sided", 4096, 64, iters=2)
        (rep,) = reports
        assert rep.explain() == (
            "ir: flood(P=2) on perlmutter-cpu/one_sided -> passes off"
        )

    def test_coalesce_report_snapshot(self):
        m = get_machine("perlmutter-cpu")
        with ir.passes(["coalesce"]), ir.collect() as reports:
            run_flood(m, "one_sided", 4096, 64, iters=2)
        (rep,) = reports
        lines = rep.explain().splitlines()
        assert lines[0] == (
            "ir: flood(P=2) on perlmutter-cpu/one_sided -> 1 pass, 1 rewrite"
        )
        assert lines[1] == "  passes: coalesce"
        assert lines[2].startswith("  coalesce/batch  x2")
        assert "[4096 B x n -> 262144 B x 1 per sync]" in lines[2]
        assert lines[3].startswith("  total: ")
        assert lines[3].endswith("x modeled)")

    def test_explain_all_dedupes(self):
        m = get_machine("perlmutter-cpu")
        with ir.collect() as reports:
            run_flood(m, "one_sided", 4096, 64, iters=2)
            run_flood(m, "one_sided", 4096, 64, iters=2)
        text = ir.explain_all(reports)
        assert text.count("ir: flood") == 1
        assert "(x2 identical programs)" in text
