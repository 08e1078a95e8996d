"""What reaches a sweep worker is decided by repro.scope, not by ``fork``."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import faults, ir, obs, perf, sweep
from repro.sweep import SweepSpec, run_sweep

_SCRIPT = Path(__file__).with_name("spawn_ambient.py")


@pytest.mark.parametrize("flags", [(), ("--faults",)], ids=["passes", "faults"])
def test_rows_under_spawn_equal_serial(flags, tmp_path):
    """``Session(passes=True, jobs=2)`` / ``Session(faults=plan, jobs=2)``
    under the spawn start method: same rows as serial, cold and from the
    warm cache (the script asserts; see its docstring)."""
    src = str(Path(repro.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    for _cold_then_warm in range(2):
        done = subprocess.run(
            [sys.executable, str(_SCRIPT), *flags, "--cache-dir", str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("ok ")


# Module-level runner: pool workers pickle it by reference.
def _ambient_seen(params, seed):
    plan = faults.current_plan()
    return {
        "jobs": sweep.current_execution().jobs,
        "observed": obs.current() is not None,
        "collecting": repro.scope.ambient()["repro.ir.collect"] is not None,
        "passes": list(ir.current_pipeline().passes),
        "loss": None if plan is None else plan.default.loss,
        "bulk": perf.enabled(),
    }


def _spec():
    return SweepSpec(name="ambient", runner=_ambient_seen, axes={"x": (1, 2, 3)})


class TestWorkerScopes:
    def test_carried_in_reset_the_rest(self):
        """Forked or not, a worker sees the carried scopes and defaults for
        everything else — no Obs session, no ExecutionConfig holding the
        parent's pool, no report collector."""
        plan = faults.FaultPlan.uniform(loss=0.25, seed=3)
        with repro.Session(faults=plan, passes=["overlap"], obs=True, jobs=2):
            with perf.vectorized(False):
                seen = [r.value for r in run_sweep(_spec())]
        assert seen == [
            {
                "jobs": 1,
                "observed": False,
                "collecting": False,
                "passes": ["overlap"],
                "loss": 0.25,
                "bulk": False,
            }
        ] * 3

    def test_nothing_ambient_nothing_shipped(self):
        assert repro.scope.carried() == {}
        seen = [r.value for r in run_sweep(_spec(), jobs=2)]
        assert seen == [
            {
                "jobs": 1,
                "observed": False,
                "collecting": False,
                "passes": [],
                "loss": None,
                "bulk": True,
            }
        ] * 3

    def test_per_point_submissions_carry_too(self):
        # Three points on two workers are three one-point chunks.
        with ir.passes(["coalesce"]):
            seen = run_sweep(_spec(), jobs=2)
        assert [r.value["passes"] for r in seen] == [["coalesce"]] * 3

    def test_a_worker_scope_does_not_count_the_parents_injectors(self):
        import pickle

        plan = faults.FaultPlan.uniform(loss=0.25, seed=3)
        with faults.inject(plan) as scope:
            scope.attach(faults.FaultInjector(plan))
            shipped = pickle.loads(pickle.dumps(scope))
        assert shipped.plan == plan and shipped.injectors == []
        assert len(scope.injectors) == 1


class TestNotSilentUnderJobs:
    def test_explain_ir_says_where_the_reports_went(self):
        with repro.Session(passes=True, jobs=2) as s:
            repro.run_experiment("fig05")
            text = s.explain_ir()
        assert "worker processes" in text and "jobs=1" in text
        with repro.Session(passes=True) as s:
            assert s.explain_ir() == "(no IR programs lowered in this session)"
            repro.run_experiment("fig05")
            assert "coalesce" in s.explain_ir()

    def test_fault_stats_docstring_says_the_same(self):
        assert "jobs=1" in repro.Session.fault_stats.__doc__
