"""repro.api — the stable, composed entry point.

The library's power features are *ambient* context managers — an
:func:`repro.obs.observe` session, a :func:`repro.faults.inject` scope, a
:func:`repro.sweep.execution` config — because experiment runners keep
zero-argument signatures (each is one :class:`repro.scope.Scope`;
:func:`repro.scope.ambient` lists what is current).  Composing them by
hand means three nested ``with`` blocks in the right order.
:class:`Session` is that composition as one object::

    import repro
    from repro.workloads.flood import run_flood

    plan = repro.faults.FaultPlan.uniform(loss=0.01, seed=7)
    with repro.Session(faults=plan, obs=True, jobs=4) as s:
        report = repro.run_experiment("fig09")
        flood = run_flood(repro.get_machine("perlmutter-gpu"), repro.SHMEM,
                          4096, 64)
    print(s.obs.snapshot())      # metrics + span timings
    print(s.fault_stats())       # drops / retransmits / ...

A session holds scopes only: every runner is the module function, called
inside the ``with`` block, where it honours the scopes.

Everything here is re-exported from the top-level :mod:`repro` package:
``Session``, :func:`run_experiment`, :func:`run_sweep`,
:func:`get_machine` and the backend name constants.  See ``docs/API.md``
for the stability policy.
"""

from __future__ import annotations

from contextlib import ExitStack
from typing import Any

from repro import faults as _faults
from repro import ir as _ir
from repro import obs as _obs
from repro import sweep as _sweep
from repro.experiments import ALL_EXPERIMENTS
from repro.machines import MACHINES, PROJECTIONS, get_machine
from repro.transport import (
    ONE_SIDED,
    ONE_SIDED_HW,
    SHMEM,
    STREAM_TRIGGERED,
    TWO_SIDED,
    backend_names,
    capabilities,
    require,
)

__all__ = [
    "Session",
    "run_experiment",
    "experiment_names",
    "get_machine",
    "machine_names",
    "backend_names",
    "capabilities",
    "require",
    "TWO_SIDED",
    "ONE_SIDED",
    "SHMEM",
    "ONE_SIDED_HW",
    "STREAM_TRIGGERED",
]


def experiment_names() -> tuple[str, ...]:
    """Names accepted by :func:`run_experiment` (the paper's figures/tables)."""
    return tuple(ALL_EXPERIMENTS)


def machine_names() -> tuple[str, ...]:
    """Names accepted by :func:`get_machine`: measured machines + projections."""
    return tuple(MACHINES) + tuple(PROJECTIONS)


def run_experiment(name: str, **kwargs: Any):
    """Run one named experiment (``fig01``..``table2``...) and return its
    :class:`~repro.experiments.report.ExperimentReport`.

    Honours whatever ambient scopes are active — run it inside a
    :class:`Session` to get observability, faults and parallelism.
    """
    try:
        runner = ALL_EXPERIMENTS[name]
    except KeyError:
        raise ValueError(
            f"unknown experiment {name!r}; valid: {', '.join(ALL_EXPERIMENTS)}"
        ) from None
    return runner(**kwargs)


class Session:
    """One experiment session: the ambient scopes as one object.

    Args:
        faults: a :class:`~repro.faults.FaultPlan` installed via
            :func:`repro.faults.inject` for the session's duration.
        obs: ``True`` for a fresh metrics+spans session, or a pre-built
            :class:`~repro.obs.Obs` (e.g. with tracing on).
        jobs: sweep parallelism (installed via :func:`repro.sweep.execution`).
        cache: a :class:`~repro.sweep.ResultCache` (or a path for one) for
            sweep result caching.
        passes: IR pass pipeline for every program lowered in the session
            (installed via :func:`repro.ir.passes`).  ``True`` enables the
            default pipeline (coalesce, overlap, sync-elide); a sequence of
            pass names or a :class:`~repro.ir.PassPipeline` selects
            explicitly; ``False`` (the default) leaves every pass off —
            lowering is then byte-identical to the pre-IR runners.
            Reports for programs lowered under the session are collected
            in :attr:`ir_reports`; see :meth:`explain_ir`.

    The scopes nest obs -> faults -> passes -> execution, so worker
    processes and fault draws happen *inside* the observed region, exactly
    as the hand-written ``with`` blocks would.  A runner called inside the
    block (:func:`run_experiment`, :func:`repro.sweep.run_sweep`,
    :func:`repro.workloads.flood.run_flood`, ...) honours all of them.
    """

    def __init__(
        self,
        *,
        faults: "_faults.FaultPlan | None" = None,
        obs: "bool | _obs.Obs" = False,
        jobs: int = 1,
        cache: "_sweep.ResultCache | str | None" = None,
        passes=False,
    ):
        self.fault_plan = faults
        self.jobs = _sweep.ExecutionConfig(jobs).jobs  # validated by its owner, eagerly
        self.cache = _sweep.ResultCache(cache) if isinstance(cache, str) else cache
        self.obs: _obs.Obs | None = (
            obs if isinstance(obs, _obs.Obs) else (_obs.Obs() if obs else None)
        )
        # Validate eagerly (unknown pass names fail at construction).
        self.passes = _ir.build_pipeline(passes)
        self.ir_reports: list[_ir.IRReport] = []
        self.fault_scope: _faults.FaultScope | None = None
        self.execution: _sweep.ExecutionConfig | None = None
        self._stack: ExitStack | None = None

    # -- scope management ----------------------------------------------

    def __enter__(self) -> "Session":
        if self._stack is not None:
            raise RuntimeError("Session is not re-entrant")
        with ExitStack() as stack:  # unwinds the scopes entered so far on error
            if self.obs is not None:
                stack.enter_context(_obs.observe(self.obs))
            if self.fault_plan is not None:
                self.fault_scope = stack.enter_context(
                    _faults.inject(self.fault_plan)
                )
            if self.passes.enabled:
                stack.enter_context(_ir.passes(self.passes))
            self.ir_reports = stack.enter_context(_ir.collect())
            self.execution = stack.enter_context(
                _sweep.execution(jobs=self.jobs, cache=self.cache)
            )
            self._stack = stack.pop_all()
        return self

    def __exit__(self, *exc) -> None:
        stack, self._stack = self._stack, None
        self.execution = None
        if stack is not None:
            stack.close()

    def fault_stats(self) -> dict[str, int]:
        """Aggregate fault counters (empty when no plan was injected) of
        *this* process's injectors: points run in sweep worker processes
        (``jobs > 1``) are not counted — use ``jobs=1`` for a complete count."""
        return self.fault_scope.stats() if self.fault_scope is not None else {}

    def explain_ir(self) -> str:
        """Pass reports for every IR program lowered under this session —
        one deduplicated block per distinct (program, target, rewrites)
        shape; see :func:`repro.ir.explain_all`."""
        if self.ir_reports:
            return _ir.explain_all(self.ir_reports)
        if self.jobs > 1:
            return (
                "(no IR reports collected: programs lowered in sweep worker "
                "processes are not collected — use jobs=1)"
            )
        return "(no IR programs lowered in this session)"

    def __repr__(self) -> str:
        bits = []
        if self.fault_plan is not None:
            bits.append("faults=...")
        if self.obs is not None:
            bits.append("obs=on")
        if self.passes.enabled:
            bits.append(f"passes={','.join(self.passes.passes)}")
        bits.append(f"jobs={self.jobs}")
        state = "active" if self._stack is not None else "idle"
        return f"<Session {' '.join(bits)} [{state}]>"
