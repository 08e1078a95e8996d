"""Load-bearing or gone: every comm verb has a caller that is not a test.

A name-reachability walk (AST, in the manner of
``test_transport_never_imports_perf``): each public generator verb of
``RankContext``, ``ShmemContext`` and ``WindowHandle`` must be referenced
by attribute name from the code that runs workloads — the transport
endpoints, the IR lowering table, workloads, collectives, cluster jobs,
``repro.comm`` itself — or from ``examples/`` / ``benchmarks/``.  A verb only
``tests/`` reaches is a verb items 2-4 of the ROADMAP would have to write an
equation, an invariant and a generator for: delete it, or name it in
``KEPT`` with the reason.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"

VERB_CLASSES = {
    "context.py": "RankContext",
    "shmem.py": "ShmemContext",
    "window.py": "WindowHandle",
}

REACH_ROOTS = [
    *(SRC / d for d in
      ("transport", "ir", "workloads", "collectives", "cluster", "comm")),
    ROOT / "examples",
    ROOT / "benchmarks",
]

# Verbs nothing outside tests/ calls, kept on purpose.
KEPT = {
    # CommCosts.get is calibrated per machine and part of every machine
    # fingerprint; the verb is what charges it.  (The walk cannot see that
    # it is unreached: ``.get`` is also every dict's.)
    "get",
    # <= 8 lines each over a kept primitive (_atomic_blocking / quiet +
    # barrier), and inputs of the event-budget tests in test_atomics.py.
    "atomic_fetch_add",
    "barrier_all",
}


def _is_generator_verb(fn: ast.FunctionDef) -> bool:
    if fn.name.startswith("_"):
        return False
    if isinstance(fn.returns, ast.Name) and fn.returns.id == "Generator":
        return True  # forwards another verb's generator
    return any(isinstance(n, (ast.Yield, ast.YieldFrom)) for n in ast.walk(fn))


def _verb_defs() -> dict[str, tuple[Path, int]]:
    """``{verb: (file, line of its def)}``."""
    verbs = {}
    for fname, cls in VERB_CLASSES.items():
        path = SRC / "comm" / fname
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and node.name == cls:
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef) and _is_generator_verb(fn):
                        verbs[fn.name] = (path, fn.lineno)
    return verbs


def _referenced_names(verbs: dict[str, tuple[Path, int]]) -> set[str]:
    """Attribute names read under ``REACH_ROOTS``; a verb's reference to
    itself inside its own ``def`` does not count."""
    names: set[str] = set()

    def visit(path: Path, node: ast.AST, inside: str | None) -> None:
        if (
            isinstance(node, ast.FunctionDef)
            and verbs.get(node.name) == (path, node.lineno)
        ):
            inside = node.name
        if isinstance(node, ast.Attribute) and node.attr != inside:
            names.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(path, child, inside)

    for root in REACH_ROOTS:
        for path in sorted(root.rglob("*.py")):
            visit(path, ast.parse(path.read_text()), None)
    return names


def test_every_comm_verb_is_reached_by_something_that_is_not_a_test():
    verbs = _verb_defs()
    assert len(verbs) >= 25  # the walk found the classes
    assert KEPT <= set(verbs)  # no allowance outlives its verb
    unreached = set(verbs) - _referenced_names(verbs)
    assert unreached - KEPT == set(), (
        f"only tests reach {sorted(unreached - KEPT)}: delete the verb or "
        "name it in KEPT with the reason"
    )
