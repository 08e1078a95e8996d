"""The Session facade: one object composing obs + faults + sweep scopes."""

from __future__ import annotations

import pytest

import inspect

import repro
from repro import faults, obs, sweep
from repro.sweep import SweepSpec
from repro.workloads.flood import run_flood


def _double(params, seed):
    return {"value": params["x"] * 2}


class TestSessionScopes:
    def test_composes_obs_faults_and_parallel_sweep(self):
        plan = faults.FaultPlan.uniform(loss=0.2, seed=3)
        with repro.Session(faults=plan, obs=True, jobs=2) as s:
            # All three ambient scopes are active inside the block.
            assert obs.current() is s.obs
            assert faults.current_plan() is plan
            assert sweep.current_execution().jobs == 2
            # A parallel sweep and a fault-injected workload in one scope.
            spec = SweepSpec(name="t", runner=_double, axes={"x": [1, 2, 3, 4]})
            results = sweep.run_sweep(spec)
            flood = run_flood(
                repro.get_machine("perlmutter-cpu"), repro.ONE_SIDED, 4096, 32
            )
        assert [r.value["value"] for r in results] == [2, 4, 6, 8]
        assert flood.bandwidth > 0
        # The scopes produced their artefacts.
        stats = s.fault_stats()
        assert stats["delivered"] > 0
        assert set(stats) >= {"drops", "retransmits", "exhausted"}
        snap = s.obs.snapshot()
        assert any(k.startswith("fabric.") or "." in k for k in snap)
        # Everything is torn down outside the block.
        assert obs.current() is None
        assert faults.current_plan() is None
        assert sweep.current_execution().jobs == 1

    def test_scopes_are_optional(self):
        with repro.Session() as s:
            assert obs.current() is None
            assert faults.current_plan() is None
            assert sweep.current_execution().jobs == 1
            assert s.fault_stats() == {}

    def test_run_experiment_inside_session(self):
        with repro.Session(jobs=1) as s:
            report = repro.run_experiment("fig02")
        assert report.rows

    def test_not_reentrant(self):
        s = repro.Session()
        with s:
            with pytest.raises(RuntimeError, match="re-entrant"):
                s.__enter__()
        # Fully exited: may be entered again.
        with s:
            pass


class TestSessionValidation:
    def test_nonpositive_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            repro.Session(jobs=0)

    def test_keywords_are_the_five_scopes(self):
        params = inspect.signature(repro.Session).parameters
        assert list(params) == ["faults", "obs", "jobs", "cache", "passes"]
        assert all(p.kind is p.KEYWORD_ONLY for p in params.values())

    def test_no_method_runs_a_workload(self):
        public = {n for n in vars(repro.Session) if not n.startswith("_")}
        assert public == {"fault_stats", "explain_ir"}


class TestTopLevelSurface:
    def test_reexports(self):
        for name in (
            "Session",
            "run_experiment",
            "run_sweep",
            "get_machine",
            "experiment_names",
            "machine_names",
            "backend_names",
        ):
            assert callable(getattr(repro, name)), name
        assert repro.TWO_SIDED == "two_sided"
        assert repro.ONE_SIDED == "one_sided"
        assert repro.SHMEM == "shmem"
        assert repro.ONE_SIDED_HW == "one_sided_hw"

    def test_run_experiment_unknown_name(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            repro.run_experiment("fig99")

    def test_name_listings(self):
        assert "fig09" in repro.experiment_names()
        assert "perlmutter-gpu" in repro.machine_names()
        assert set(repro.backend_names()) >= {"two_sided", "one_sided", "shmem"}
