"""ResultCache: content-addressed keys, durability, corruption tolerance."""

from __future__ import annotations

import json

import pytest

from repro.sweep import ResultCache, SweepSpec
from repro.sweep import cache as cache_mod


def _runner(params, seed):
    return {"v": params["x"]}


def _spec(**kwargs):
    defaults = dict(name="t", runner=_runner, points=[{"x": 1}])
    defaults.update(kwargs)
    return SweepSpec(**defaults)


def _one_key(cache, spec):
    (pt,) = spec.iter_points()
    return cache.key_for(spec, pt)


class TestKeys:
    def test_key_deterministic(self, tmp_path):
        c = ResultCache(tmp_path)
        assert _one_key(c, _spec()) == _one_key(c, _spec())

    def test_key_changes_with_params(self, tmp_path):
        c = ResultCache(tmp_path)
        assert _one_key(c, _spec()) != _one_key(c, _spec(points=[{"x": 2}]))

    def test_key_changes_with_sweep_version(self, tmp_path):
        c = ResultCache(tmp_path)
        assert _one_key(c, _spec()) != _one_key(c, _spec(version=2))

    def test_key_changes_with_machine_fingerprint(self, tmp_path, monkeypatch):
        c = ResultCache(tmp_path)
        spec = _spec(points=[{"machine": "perlmutter-cpu"}])
        before = _one_key(c, spec)
        monkeypatch.setattr(
            cache_mod, "machine_fingerprint", lambda name: "recalibrated"
        )
        assert _one_key(c, spec) != before

    def test_key_ignores_unreferenced_machines(self, tmp_path):
        # Only the `machine` value is fingerprinted; other params are data.
        c = ResultCache(tmp_path)
        a = _spec(points=[{"machine": "perlmutter-cpu", "x": 1}])
        b = _spec(points=[{"machine": "summit-cpu", "x": 1}])
        assert _one_key(c, a) != _one_key(c, b)


class TestStore:
    def test_round_trip_and_counters(self, tmp_path):
        c = ResultCache(tmp_path)
        key = _one_key(c, _spec())
        assert c.get(key) is None
        c.put(key, {"v": 1.5, "rows": [[1, 2]]})
        assert c.get(key) == {"v": 1.5, "rows": [[1, 2]]}
        assert c.stats() == {"hits": 1, "misses": 1, "write_errors": 0}

    def test_two_level_fanout_layout(self, tmp_path):
        c = ResultCache(tmp_path)
        key = _one_key(c, _spec())
        c.put(key, {"v": 1})
        assert (tmp_path / key[:2] / f"{key}.json").is_file()

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        c = ResultCache(tmp_path)
        key = _one_key(c, _spec())
        c.put(key, {"v": 1})
        path = tmp_path / key[:2] / f"{key}.json"
        path.write_text("{truncated")
        assert c.get(key) is None

    def test_non_dict_entry_is_a_miss(self, tmp_path):
        c = ResultCache(tmp_path)
        key = _one_key(c, _spec())
        path = tmp_path / key[:2] / f"{key}.json"
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps([1, 2, 3]))
        assert c.get(key) is None

    def test_no_tmp_droppings_after_put(self, tmp_path):
        c = ResultCache(tmp_path)
        key = _one_key(c, _spec())
        c.put(key, {"v": 1})
        assert not list(tmp_path.rglob("*.tmp"))


class TestWriteResilience:
    def test_oserror_counted_and_warned_once(self, tmp_path, monkeypatch):
        import warnings

        import repro.sweep.cache as cachemod

        c = ResultCache(tmp_path)
        key = _one_key(c, _spec())

        def _boom(**kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(cachemod.tempfile, "mkstemp", _boom)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            c.put(key, {"v": 1})
            c.put(key, {"v": 2})
        assert c.write_errors == 2
        assert c.stats()["write_errors"] == 2
        warned = [w for w in caught if "continuing uncached" in str(w.message)]
        assert len(warned) == 1  # warned once, not per write

    def test_oserror_feeds_obs_counter(self, tmp_path, monkeypatch):
        import warnings

        import repro.sweep.cache as cachemod
        from repro import obs

        c = ResultCache(tmp_path)
        key = _one_key(c, _spec())
        monkeypatch.setattr(
            cachemod.tempfile,
            "mkstemp",
            lambda **kw: (_ for _ in ()).throw(OSError("nope")),
        )
        with obs.observe(obs.Obs()) as session:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                c.put(key, {"v": 1})
        assert session.metrics.snapshot()["sweep.cache.write_errors"] == 1.0

    def test_failed_write_still_reads_as_miss(self, tmp_path, monkeypatch):
        import warnings

        import repro.sweep.cache as cachemod

        c = ResultCache(tmp_path)
        key = _one_key(c, _spec())
        monkeypatch.setattr(
            cachemod.tempfile,
            "mkstemp",
            lambda **kw: (_ for _ in ()).throw(OSError("nope")),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            c.put(key, {"v": 1})
        assert c.get(key) is None

    def test_serialisation_bug_still_raises(self, tmp_path):
        c = ResultCache(tmp_path)
        key = _one_key(c, _spec())
        with pytest.raises(TypeError):
            c.put(key, {"v": object()})


# -- ambient state in the key --------------------------------------------
# What a run happens under is part of what determines its rows: the carried
# scopes of repro.scope (fault plan, pass pipeline, bulk switch) enter the key.

_FIG03 = dict(machines=("perlmutter-cpu",), iters=1)


def _rows(name, kwargs=None, **session):
    import repro

    with repro.Session(**session):
        report = repro.run_experiment(name, **(kwargs or {}))
    return report.rows


class TestAmbientKeys:
    def test_key_with_nothing_ambient_is_the_parents_literal(
        self, tmp_path, monkeypatch
    ):
        """Digest generated at PR 18 (8ffd377) for fig05's first point with
        the machine fingerprint pinned: existing ``.repro-cache/`` entries
        stay valid.  It moves only with ``repro.__version__`` or the payload.
        The payload is spelled out as fig05 then keyed it (its own runner,
        ``fig05_stencil:_point``); fig05's points now key under the shared
        ``run_point``, so this pins the key derivation, not fig05."""

        def point(params, seed):
            raise AssertionError("keying a point never runs it")

        point.__module__, point.__qualname__ = "repro.experiments.fig05_stencil", "_point"
        monkeypatch.setattr(cache_mod, "machine_fingerprint", lambda name: "pinned")
        spec = SweepSpec(
            name="fig05",
            runner=point,
            points=[{"machine": "perlmutter-cpu", "runtime": "two_sided", "P": 4}],
            common={"nx": 16384, "iters": 5},
        )
        key = ResultCache(tmp_path).key_for(spec, spec.iter_points()[0])
        assert key == (
            "0268bc29a3b0fe69c37ba8f6246a4826377e3a99dab903fa5727381c134b15db"
        )

    def test_default_valued_scopes_leave_the_key_alone(self, tmp_path):
        from repro import ir, perf

        c = ResultCache(tmp_path)
        bare = _one_key(c, _spec())
        with perf.vectorized(True), ir.passes(False):
            assert _one_key(c, _spec()) == bare
        with perf.vectorized(False):
            scalar = _one_key(c, _spec())
        with ir.passes(["coalesce"]):
            coalesce = _one_key(c, _spec())
        with ir.passes(["coalesce", "overlap"]):
            both = _one_key(c, _spec())
        assert len({bare, scalar, coalesce, both}) == 4

    def test_fault_plans_are_told_apart(self, tmp_path):
        from repro import faults
        from repro.faults import FaultPlan, LinkFaults, RouterFaults

        plans = [
            FaultPlan.uniform(loss=0.05, seed=1),
            FaultPlan.uniform(loss=0.05, seed=2),
            FaultPlan.uniform(loss=0.06, seed=1),
            FaultPlan(links={("a", "b"): LinkFaults(jitter=1e-6)}),
            FaultPlan(hard=(RouterFaults("sw0", ((0.0, float("inf")),)),)),
        ]
        c = ResultCache(tmp_path)
        keys = []
        for plan in plans:
            with faults.inject(plan):
                keys.append(_one_key(c, _spec()))
                assert _one_key(c, _spec()) == keys[-1]
        assert len({_one_key(c, _spec()), *keys}) == len(plans) + 1

    def test_warm_cache_is_not_served_under_a_pass_pipeline(self, tmp_path):
        plain = _rows("fig05", cache=str(tmp_path))
        uncached = _rows("fig05", passes=True)
        cache = ResultCache(tmp_path)
        cached = _rows("fig05", cache=cache, passes=True)
        assert cached == uncached
        assert cached != plain
        assert cache.hits == 0
        again = _rows("fig05", cache=cache, passes=True)
        assert again == uncached
        assert (cache.hits, cache.misses) == (len(uncached), len(uncached))

    def test_warm_cache_is_not_served_under_a_fault_plan(self, tmp_path):
        from repro.faults import FaultPlan

        plan = FaultPlan.uniform(loss=0.05, seed=1)
        plain = _rows("fig03", _FIG03, cache=str(tmp_path))
        uncached = _rows("fig03", _FIG03, faults=plan)
        cache = ResultCache(tmp_path)
        cached = _rows("fig03", _FIG03, cache=cache, faults=plan)
        assert cached == uncached
        assert cached != plain
        assert cache.hits == 0
        assert _rows("fig03", _FIG03, cache=cache, faults=plan) == uncached
        assert cache.hits == cache.misses > 0


class TestUncacheable:
    """There is no uncacheable point: every carried value has a canonical
    fingerprint, and a pass pipeline is a set of built-in names."""

    def test_custom_pass_has_no_key(self, tmp_path):
        """A pass object never reaches a key: a pipeline holds built-in
        names only, so not even a built-in pass function enters."""
        from repro import ir
        from repro.ir.pipeline import _PASSES

        for custom in (object(), _PASSES["coalesce"], lambda program, machine: None):
            with pytest.raises(ValueError, match="unknown IR pass"):
                ir.passes([custom])

    def test_key_for_returns_a_key_under_every_passes_spelling(self, tmp_path):
        from repro import ir

        c = ResultCache(tmp_path)
        spellings = (
            (), (True,), (False,), (None,), ([],), (["coalesce"],),
            (("sync-elide", "coalesce", "sync-elide"),), ({"overlap"},),
            (ir.PassPipeline(("overlap", "coalesce")),), (ir.build_pipeline(True),),
        )
        keys = set()
        for args in spellings:
            with ir.passes(*args):
                key = _one_key(c, _spec())
            assert isinstance(key, str) and len(key) == 64
            keys.add(key)
        # bare (False / None / []), default (() / True / build_pipeline(True)),
        # coalesce, coalesce + sync-elide, overlap, coalesce + overlap
        assert len(keys) == 6

    def test_counter_absent_when_everything_has_a_key(self, tmp_path):
        from repro import obs
        from repro.sweep import run_sweep

        with obs.observe() as session:
            run_sweep(_spec(), cache=ResultCache(tmp_path))
        assert "sweep.cache.uncacheable" not in session.metrics.snapshot()
