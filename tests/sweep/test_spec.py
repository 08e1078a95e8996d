"""SweepSpec/SweepPoint: grid expansion, keys, seeds, canonical JSON."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sweep import SweepSpec
from repro.sweep.spec import canonical_json


def _runner(params, seed):
    return {"ok": True}


class TestCanonicalJson:
    def test_sorts_keys(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_tuples_become_lists(self):
        assert canonical_json((1, 2)) == canonical_json([1, 2])

    def test_numpy_scalars(self):
        assert canonical_json(np.float64(1.5)) == canonical_json(1.5)
        assert canonical_json(np.int64(3)) == canonical_json(3)

    def test_rejects_non_jsonable(self):
        with pytest.raises(TypeError):
            canonical_json(object())


class TestGridExpansion:
    def test_last_axis_varies_fastest(self):
        spec = SweepSpec(
            name="t", runner=_runner,
            axes={"a": (1, 2), "b": ("x", "y")},
        )
        combos = [(p.params_dict["a"], p.params_dict["b"])
                  for p in spec.iter_points()]
        assert combos == [(1, "x"), (1, "y"), (2, "x"), (2, "y")]

    def test_explicit_points_follow_axes(self):
        spec = SweepSpec(
            name="t", runner=_runner,
            axes={"a": (1,)}, points=[{"a": 99}],
        )
        assert [p.params_dict["a"] for p in spec.iter_points()] == [1, 99]

    def test_common_merged_and_overridable(self):
        spec = SweepSpec(
            name="t", runner=_runner,
            points=[{"a": 1}, {"a": 2, "iters": 9}],
            common={"iters": 3},
        )
        pts = spec.iter_points()
        assert pts[0].params_dict == {"iters": 3, "a": 1}
        assert pts[1].params_dict == {"iters": 9, "a": 2}

    def test_empty_spec_yields_no_points(self):
        assert SweepSpec(name="t", runner=_runner).iter_points() == []

    def test_machine_names_only_string_params(self, monkeypatch, tmp_path):
        # The cache key fingerprints a point's ``machine`` only when it is
        # a registry name; any other value keys on the parameter alone.
        from repro.sweep import cache

        seen = []
        monkeypatch.setattr(cache, "machine_fingerprint",
                            lambda name: seen.append(name) or name)
        spec = SweepSpec(
            name="t", runner=_runner,
            points=[{"machine": "perlmutter-cpu"}, {"machine": None}, {"a": 1}],
        )
        for pt in spec.iter_points():
            cache.ResultCache(tmp_path).key_for(spec, pt)
        assert seen == ["perlmutter-cpu"]


class TestPointIdentity:
    def _point(self, **params):
        spec = SweepSpec(name="t", runner=_runner, points=[params])
        return spec.iter_points()[0]

    def test_key_stable_across_param_order(self):
        a = self._point(x=1, y=2)
        b = self._point(y=2, x=1)
        # insertion order differs, canonical key must not
        assert a.key == b.key

    def test_seed_deterministic_and_distinct(self):
        a = self._point(x=1)
        assert a.seed == self._point(x=1).seed
        assert a.seed != self._point(x=2).seed
        assert a.seed >= 0

    def test_runner_id_names_the_module(self):
        assert self._point(x=1).runner_id == f"{__name__}:_runner"

    def test_label_mentions_sweep_and_params(self):
        label = self._point(x=1).label()
        assert "t(" in label and "x=1" in label
