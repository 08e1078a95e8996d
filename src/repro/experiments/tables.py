"""Table I (platforms) and Table II (workload characterisation) runners.

Table I sweeps one point per registered machine; Table II is a single
sweep point running the instrumented workloads on the chosen machine.
"""

from __future__ import annotations

from repro.experiments.report import ExperimentReport
from repro.machines import get_machine, machine_names, table1_row
from repro.sweep import SweepSpec, run_sweep
from repro.workloads.instrument import characterize_workloads
from repro.transport import TWO_SIDED, ONE_SIDED, SHMEM

__all__ = ["run_table1", "run_table2"]


def _table1_point(params, seed):
    name = params["machine"]
    row = table1_row(name)
    return {"row": row, "describe": get_machine(name).describe()}


def run_table1() -> ExperimentReport:
    """Regenerate Table I from the machine registry."""
    sweep = run_sweep(SweepSpec(
        name="table1",
        runner=_table1_point,
        points=[{"machine": name} for name in machine_names()],
    ))
    rows = [
        [v["machine"], v["gpus"], v["cpus/cores"], v["runtimes"], v["links"]]
        for v in (r.value["row"] for r in sweep)
    ]
    expectations = {
        "five platform views registered": len(rows) == 5,
        "both GPU machines expose NVSHMEM-style runtime": all(
            SHMEM in r[3]
            for r in rows
            if r[0] in ("perlmutter-gpu", "summit-gpu")
        ),
        "all CPU machines expose both MPI runtimes": all(
            ONE_SIDED in r[3] and TWO_SIDED in r[3]
            for r in rows
            if r[0].endswith("-cpu") and "gpu" not in r[0]
        ),
    }
    notes = [r.value["describe"] for r in sweep]
    return ExperimentReport(
        experiment="table1",
        title="Evaluation platforms",
        headers=["machine", "GPUs", "CPUs/cores", "runtimes", "links"],
        rows=rows,
        expectations=expectations,
        notes=notes,
    )


def _table2_point(params, seed):
    t2 = characterize_workloads(get_machine(params["machine"]))
    return {
        "cells": [r.cells() for r in t2],
        "facts": {
            r.workload: {"msgs_per_sync": r.msgs_per_sync, "pattern": r.pattern}
            for r in t2
        },
    }


def run_table2(machine_name: str = "perlmutter-cpu") -> ExperimentReport:
    """Regenerate Table II from instrumented workload runs."""
    (result,) = run_sweep(SweepSpec(
        name="table2", runner=_table2_point, points=[{"machine": machine_name}]
    ))
    rows = [list(cells) for cells in result.value["cells"]]
    facts = result.value["facts"]
    expectations = {
        "stencil: 4 messages per synchronization": (
            facts["Stencil"]["msgs_per_sync"].startswith("4")
        ),
        "sptrsv: 1 message per synchronization": (
            facts["SpTRSV"]["msgs_per_sync"].startswith("1")
        ),
        "hashtable: all inserts in one sync epoch": (
            "all inserts" in facts["Hashtable"]["msgs_per_sync"]
        ),
        "patterns match the paper": (
            facts["Stencil"]["pattern"] == "BSP sync"
            and facts["SpTRSV"]["pattern"] == "DAG async"
            and facts["Hashtable"]["pattern"] == "Random async"
        ),
    }
    return ExperimentReport(
        experiment="table2",
        title=f"Workload characterisation (measured on {machine_name})",
        headers=[
            "workload",
            "pattern",
            "notify",
            "two-sided op",
            "one-sided op",
            "P2P pair",
            "#msg/sync",
            "words/msg",
        ],
        rows=rows,
        expectations=expectations,
    )
