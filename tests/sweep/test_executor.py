"""run_sweep: serial/parallel identity, caching, failures, obs feeding."""

from __future__ import annotations

import pytest

from repro import obs
from repro.sweep import (
    ResultCache,
    SweepError,
    SweepSpec,
    current_execution,
    execution,
    run_sweep,
)
from repro.sweep.executor import _chunks


# Module-level runners: process-pool workers pickle them by reference.
def _square(params, seed):
    return {"y": params["x"] ** 2, "seed": seed}


def _fail_on_two(params, seed):
    if params["x"] == 2:
        raise ValueError("x=2 is cursed")
    return {"y": params["x"]}


def _spec(xs=(1, 2, 3, 4), runner=_square):
    return SweepSpec(name="unit", runner=runner, axes={"x": tuple(xs)})


def _values(results):
    return [(r.params, r.value) for r in results]


class TestSerial:
    def test_grid_order_and_values(self):
        results = run_sweep(_spec())
        assert [r.params["x"] for r in results] == [1, 2, 3, 4]
        assert [r.value["y"] for r in results] == [1, 4, 9, 16]
        assert all(not r.cached for r in results)

    def test_seeds_are_point_derived(self):
        a = run_sweep(_spec())
        b = run_sweep(_spec())
        assert [r.value["seed"] for r in a] == [r.value["seed"] for r in b]
        assert len({r.value["seed"] for r in a}) == len(a)

    def test_failure_raises_sweep_error_with_label(self):
        with pytest.raises(SweepError, match=r"unit\(x=2\)"):
            run_sweep(_spec(runner=_fail_on_two))

    def test_jobs_zero_rejected(self):
        with pytest.raises(ValueError):
            run_sweep(_spec(), jobs=0)


class TestParallel:
    def test_identical_to_serial(self):
        serial = run_sweep(_spec(range(1, 9)))
        parallel = run_sweep(_spec(range(1, 9)), jobs=2)
        assert _values(serial) == _values(parallel)

    def test_ambient_execution_config(self):
        with execution(jobs=2):
            assert current_execution().jobs == 2
            results = run_sweep(_spec())
        assert _values(results) == _values(run_sweep(_spec()))

    def test_pool_reused_across_sweeps(self):
        with execution(jobs=2) as cfg:
            run_sweep(_spec())
            pool = cfg._pool
            run_sweep(_spec((5, 6, 7)))
            assert cfg._pool is pool

    def test_failure_raises_sweep_error(self):
        with pytest.raises(SweepError, match="cursed"):
            run_sweep(_spec(runner=_fail_on_two), jobs=2)

    def test_chunks_are_few_contiguous_runs_in_queue_order(self):
        """Dispatch cost is per chunk, not per point: a 144-point grid on
        4 workers goes out as 16 futures, not 144."""
        queue = list(range(144))
        chunks = _chunks(queue, jobs=4)
        assert [len(c) for c in chunks] == [9] * 16
        assert [x for c in chunks for x in c] == queue
        assert _chunks(queue[:3], jobs=4) == [[0], [1], [2]]


class TestCaching:
    def test_second_run_all_hits(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold = run_sweep(_spec(), cache=cache)
        warm = run_sweep(_spec(), cache=cache)
        assert _values(cold) == _values(warm)
        assert all(not r.cached for r in cold)
        assert all(r.cached and r.duration == 0.0 for r in warm)
        assert cache.stats() == {"hits": 4, "misses": 4, "write_errors": 0}

    def test_parallel_run_fills_cache_serial_reads_it(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_sweep(_spec(), jobs=2, cache=cache)
        warm = run_sweep(_spec(), cache=cache)
        assert all(r.cached for r in warm)

    def test_changed_param_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_sweep(_spec(), cache=cache)
        fresh = run_sweep(_spec(xs=(1, 2, 3, 4, 5)), cache=cache)
        assert [r.cached for r in fresh] == [True] * 4 + [False]


class TestObs:
    def test_metrics_fed_into_ambient_session(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_sweep(_spec(), cache=cache)  # warm the cache outside the session
        with obs.observe(obs.Obs()) as session:
            run_sweep(_spec(), cache=cache)
            snap = session.metrics.snapshot()
        assert snap["sweep.points.completed"] == 4.0
        assert snap["sweep.cache.hits"] == 4.0
        assert snap["sweep.cache.misses"] == 0.0
        assert "sweep.unit.wall_seconds" in snap

    def test_span_opened_per_sweep(self):
        with obs.observe(obs.Obs()) as session:
            run_sweep(_spec())
        assert "sweep.unit" in session.spans.totals()

    def test_progress_lines(self):
        lines = []
        run_sweep(_spec(), progress=lines.append)
        assert len(lines) == 2
        assert "4 points" in lines[0]
        assert lines[1].startswith("[sweep] unit:")


# -- resilience ---------------------------------------------------------


def _crash_on_two(params, seed):
    if params["x"] == 2:
        import os

        os._exit(42)  # simulates a segfaulting worker
    return {"y": params["x"]}


_FAIL_ON_TWO = True


def _fail_on_two_while_flagged(params, seed):
    if _FAIL_ON_TWO and params["x"] == 2:
        raise ValueError("x=2 is cursed")
    return {"y": params["x"]}


class TestErrorCapture:
    def test_failed_point_never_cached(self, tmp_path, monkeypatch):
        """The points before a failure are cached and the failing one is
        not: a re-run that no longer fails hits x=1 and executes the rest."""
        cache = ResultCache(tmp_path)
        spec = _spec(runner=_fail_on_two_while_flagged)
        with pytest.raises(SweepError, match=r"unit\(x=2\)"):
            run_sweep(spec, cache=cache)
        monkeypatch.setitem(globals(), "_FAIL_ON_TWO", False)
        again = run_sweep(spec, cache=cache)
        assert [r.cached for r in again] == [True, False, False, False]
        assert [r.value["y"] for r in again] == [1, 2, 3, 4]

    def test_invalid_on_error_rejected(self):
        with pytest.raises(TypeError, match="on_error"):
            run_sweep(_spec(), on_error="keep")


class TestWorkerCrash:
    def test_crash_raises_by_default(self):
        with pytest.raises(SweepError, match="worker pool crashed"):
            run_sweep(_spec(runner=_crash_on_two), jobs=2)

    def test_shared_pool_recovers_for_next_sweep(self):
        with execution(jobs=2):
            with pytest.raises(SweepError):
                run_sweep(_spec(runner=_crash_on_two))
            healthy = run_sweep(_spec())
        assert [r.value["y"] for r in healthy] == [1, 4, 9, 16]


class TestTimeout:
    def test_invalid_timeout_rejected(self):
        with pytest.raises(TypeError, match="timeout"):
            run_sweep(_spec(), timeout=30.0)


class TestSpill:
    def _lines(self, path):
        import json

        return [json.loads(line) for line in path.read_text().splitlines()]

    def test_every_point_spilled_in_grid_order(self, tmp_path):
        out = tmp_path / "sweep.jsonl"
        results = run_sweep(_spec(), spill_path=out)
        lines = self._lines(out)
        assert [ln["params"]["x"] for ln in lines] == [1, 2, 3, 4]
        assert [ln["value"]["y"] for ln in lines] == [1, 4, 9, 16]
        assert all(ln["sweep"] == "unit" for ln in lines)
        assert all(not ln["cached"] for ln in lines)
        assert [ln["seed"] for ln in lines] == [r.point.seed for r in results]

    def test_cache_resume_rewrites_complete_file(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        first = tmp_path / "first.jsonl"
        run_sweep(_spec(), cache=cache, spill_path=first)
        resumed = tmp_path / "resumed.jsonl"
        run_sweep(_spec(), cache=cache, spill_path=resumed)
        a, b = self._lines(first), self._lines(resumed)
        assert all(ln["cached"] for ln in b)
        assert [ln["value"] for ln in a] == [ln["value"] for ln in b]
        assert [ln["params"] for ln in a] == [ln["params"] for ln in b]

    def test_raise_path_keeps_partial_file(self, tmp_path):
        out = tmp_path / "partial.jsonl"
        with pytest.raises(SweepError):
            run_sweep(_spec(runner=_fail_on_two), spill_path=out)
        lines = self._lines(out)
        assert len(lines) == 1 and lines[0]["params"]["x"] == 1

    def test_parallel_spill_covers_every_point(self, tmp_path):
        out = tmp_path / "par.jsonl"
        run_sweep(_spec(), jobs=2, spill_path=out)
        lines = sorted(self._lines(out), key=lambda ln: ln["index"])
        assert [ln["value"]["y"] for ln in lines] == [1, 4, 9, 16]

    def test_parent_directory_created(self, tmp_path):
        out = tmp_path / "deep" / "nested" / "sweep.jsonl"
        run_sweep(_spec(), spill_path=out)
        assert len(self._lines(out)) == 4
