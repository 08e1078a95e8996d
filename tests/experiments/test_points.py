"""The shared point runner: what a point names is what runs.

``run_point`` is the one runner behind every experiment point that is a
workload run, so its contract is checked here once: an unknown workload
is a typed error naming it, a ``faults`` point is exactly the workload
under ``faults.inject``, and no experiment's sweep smuggles a non-JSON
object into a point (the cache key and the spawn workers need plain
values).
"""

from __future__ import annotations

import json
import sys

import pytest

from repro import faults
from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.points import run_point
from repro.machines import get_machine
from repro.sweep.spec import canonical_json
from repro.workloads.flood import run_flood


def test_unknown_workload_is_a_value_error_naming_it():
    with pytest.raises(ValueError, match="unknown workload 'bogus'"):
        run_point({"workload": "bogus", "machine": "perlmutter-cpu"}, 0)


def test_a_faults_point_is_the_workload_under_inject():
    plan = {"loss": 0.08, "jitter": 0.0, "seed": 11}
    value = run_point(
        {"workload": "flood", "machine": "perlmutter-cpu", "runtime": "one_sided",
         "size": 65536, "msgs": 64, "iters": 2, "faults": plan},
        0,
    )
    with faults.inject(faults.FaultPlan.uniform(**plan)) as scope:
        r = run_flood(get_machine("perlmutter-cpu"), "one_sided", 65536, 64, iters=2)
    stats = scope.stats()
    assert value["bandwidth"] == r.bandwidth
    assert value["drops"] == stats["drops"] > 0
    assert value["retransmits"] == stats["retransmits"]
    assert value["exhausted"] == stats["exhausted"]


class _Captured(Exception):
    pass


_SWEPT = [
    name for name, fn in ALL_EXPERIMENTS.items()
    if hasattr(sys.modules[fn.__module__], "run_sweep")
]


@pytest.mark.parametrize("name", _SWEPT)
def test_every_point_is_json(name, monkeypatch):
    """The spec each experiment hands the executor, caught before it runs."""
    specs = []

    def capture(spec, *args, **kwargs):
        specs.append(spec)
        raise _Captured

    fn = ALL_EXPERIMENTS[name]
    monkeypatch.setattr(sys.modules[fn.__module__], "run_sweep", capture)
    with pytest.raises(_Captured):
        fn()
    (spec,) = specs
    points = spec.iter_points()
    assert points
    for pt in points:
        assert isinstance(json.loads(canonical_json(pt.params_dict)), dict)
