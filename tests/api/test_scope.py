"""repro.scope: the one ambient-stack mechanism, and that it is the only one."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import repro
from repro import faults, ir, obs, perf, scope, sweep

_SRC = Path(repro.__file__).parent

SIX = {
    "repro.obs.observe",
    "repro.faults.inject",
    "repro.ir.passes",
    "repro.ir.collect",
    "repro.perf.vectorized",
    "repro.sweep.execution",
}


def _push_pop_contextmanagers():
    """``{file:function: what it pushes onto}`` for every ``@contextmanager``
    under ``src/repro`` that appends to and pops from the same thing."""
    found = {}
    for path in sorted(_SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.FunctionDef):
                continue
            if not any("contextmanager" in ast.unparse(d) for d in node.decorator_list):
                continue
            calls = [
                n.func
                for n in ast.walk(node)
                if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
            ]
            pushed = {ast.unparse(f.value) for f in calls if f.attr == "append"}
            popped = {ast.unparse(f.value) for f in calls if f.attr == "pop"}
            for receiver in pushed & popped:
                found[f"{path.relative_to(_SRC).as_posix()}:{node.name}"] = receiver
    return found


class TestOneMechanism:
    def test_only_scope_py_pushes_and_pops(self):
        """Six module-level lists did this at PR 18.  What is left beside
        ``Scope.push`` is a ``SpanTracker``'s own span path: per tracker
        instance, nothing ambient."""
        found = _push_pop_contextmanagers()
        assert not [r for r in found.values() if "." not in r]  # module globals
        assert found == {
            "scope.py:push": "self._values",
            "obs/spans.py:span": "self._stack",
        }

    def test_the_six_old_stacks_are_gone(self):
        old = re.compile(r"_STACK|_ACTIVE|_PIPELINES|_COLLECTORS")
        assert not [
            f"{p.relative_to(_SRC)}:{i}"
            for p in sorted(_SRC.rglob("*.py"))
            for i, line in enumerate(p.read_text().splitlines(), 1)
            if old.search(line)
        ]

    def test_scope_py_is_small_and_imports_nothing_from_repro(self):
        text = (_SRC / "scope.py").read_text()
        assert len(text.splitlines()) <= 70
        imported = [
            n.module if isinstance(n, ast.ImportFrom) else a.name
            for n in ast.walk(ast.parse(text))
            if isinstance(n, (ast.Import, ast.ImportFrom))
            for a in n.names
        ]
        assert not [m for m in imported if m and m.startswith("repro")]

    def test_exactly_three_scopes_are_carried(self):
        assert set(scope._SCOPES) == SIX
        assert {n for n, s in scope._SCOPES.items() if s.carried} == {
            "repro.faults.inject",
            "repro.ir.passes",
            "repro.perf.vectorized",
        }


class TestAmbient:
    def test_defaults_outside_any_scope(self):
        now = scope.ambient()
        assert set(now) == SIX
        assert now["repro.obs.observe"] is None
        assert now["repro.faults.inject"] is None
        assert now["repro.ir.collect"] is None
        assert now["repro.ir.passes"] == ir.PassPipeline(())
        assert now["repro.perf.vectorized"] is True
        assert now["repro.sweep.execution"].jobs == 1
        assert scope.carried() == {}

    def test_a_session_is_the_six_scopes(self):
        plan = faults.FaultPlan.uniform(loss=0.1, seed=5)
        with repro.Session(faults=plan, passes=True, obs=True, jobs=2) as s:
            now = scope.ambient()
            assert set(now) == SIX
            assert now["repro.obs.observe"] is s.obs is obs.current()
            assert now["repro.faults.inject"] is s.fault_scope
            assert now["repro.faults.inject"].plan is plan
            assert now["repro.ir.passes"] is s.passes is ir.current_pipeline()
            assert now["repro.ir.collect"] is s.ir_reports
            assert now["repro.perf.vectorized"] is perf.enabled() is True
            assert now["repro.sweep.execution"] is s.execution
            assert s.execution is sweep.current_execution()
            assert set(scope.carried()) == {"repro.faults.inject", "repro.ir.passes"}
        assert scope.carried() == {}


class TestScope:
    def test_innermost_wins_and_active_is_outer_to_inner(self):
        s = scope.Scope("tests.scope.nesting", "default")
        try:
            assert (s.current(), s.active()) == ("default", ())
            with s.push("outer") as got:
                assert got == "outer"
                with s.push("inner"):
                    assert (s.current(), s.active()) == ("inner", ("outer", "inner"))
                assert s.current() == "outer"
            assert s.current() == "default"
        finally:
            del scope._SCOPES[s.name]

    def test_pop_on_error(self):
        with_error = perf.vectorized(False)
        try:
            with with_error:
                raise KeyError
        except KeyError:
            pass
        assert perf.enabled() is True

    def test_every_collector_is_notified(self):
        with ir.collect() as outer, ir.collect() as inner:
            ir.config.record_report("r")
        assert outer == inner == ["r"]

    def test_reset_and_entered(self):
        with perf.vectorized(False), ir.passes(["overlap"]), obs.observe():
            shipped = scope.carried()
            held = {n: s.active() for n, s in scope._SCOPES.items()}
            scope.reset()
            try:
                assert scope.carried() == {} and obs.current() is None
                with scope.entered(shipped):
                    assert scope.carried() == shipped
                    assert not perf.enabled()
                    assert ir.current_pipeline().passes == ("overlap",)
                    assert obs.current() is None
                assert scope.carried() == {}
            finally:  # hand the with-statement back what it will pop
                for name, values in held.items():
                    scope._SCOPES[name]._values.extend(values)
