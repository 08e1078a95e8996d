"""repro.api — the stable, composed entry point.

The library's power features are *ambient* context managers — an
:func:`repro.obs.observe` session, a :func:`repro.faults.inject` scope, a
:func:`repro.sweep.execution` config — because experiment runners keep
zero-argument signatures (each is one :class:`repro.scope.Scope`;
:func:`repro.scope.ambient` lists what is current).  Composing them by
hand means three nested ``with`` blocks in the right order.
:class:`Session` is that composition as one object::

    import repro

    plan = repro.faults.FaultPlan.uniform(loss=0.01, seed=7)
    with repro.Session(machine="perlmutter-gpu", backend=repro.SHMEM,
                       faults=plan, obs=True, jobs=4) as s:
        report = s.run_experiment("fig09")
        flood = s.run_flood(nbytes=4096, msgs_per_sync=64)
    print(s.obs.snapshot())      # metrics + span timings
    print(s.fault_stats())       # drops / retransmits / ...

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
from repro.machines import MACHINES, PROJECTIONS, MachineModel, get_machine
from repro.transport import (
    ONE_SIDED,
    ONE_SIDED_HW,
    SHMEM,
    STREAM_TRIGGERED,
    TWO_SIDED,
    CapsPredicate,
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
    """One experiment session: machine + backend defaults, ambient scopes.

    Args:
        machine: machine model name (``"perlmutter-gpu"``, ...) or a
            pre-built :class:`~repro.machines.base.MachineModel`; resolved
            eagerly so typos fail at construction.
        backend: default runtime backend for the convenience runners — a
            registered name (:data:`TWO_SIDED` / :data:`ONE_SIDED` /
            :data:`SHMEM` / :data:`ONE_SIDED_HW` /
            :data:`STREAM_TRIGGERED`) or a capability predicate built
            with :func:`repro.transport.require`
            (``backend=require(gpu_initiated=True)`` resolves to the
            first qualifying backend; no qualifier raises an error
            listing the full capability table).  Validated eagerly.
        faults: a :class:`~repro.faults.FaultPlan` installed via
            :func:`repro.faults.inject` for the session's duration.
        obs: ``True`` for a fresh metrics+spans session, or a pre-built
            :class:`~repro.obs.Obs` (e.g. with tracing on).
        jobs: sweep parallelism (installed via :func:`repro.sweep.execution`).
        cache: a :class:`~repro.sweep.ResultCache` (or a path for one) for
            sweep result caching.
        placement: default co-scheduling placement policy (``"packed"`` /
            ``"scattered"`` / ``"random"``) for clusters built via
            :meth:`cluster`, validated eagerly.
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
    as the hand-written ``with`` blocks would.
    """

    def __init__(
        self,
        *,
        machine: str | MachineModel | None = None,
        backend: str | CapsPredicate | None = None,
        faults: "_faults.FaultPlan | None" = None,
        obs: "bool | _obs.Obs" = False,
        jobs: int = 1,
        cache: "_sweep.ResultCache | str | None" = None,
        passes=False,
        placement: str = "packed",
    ):
        from repro.cluster import PLACEMENTS

        if placement not in PLACEMENTS:
            raise ValueError(
                f"unknown placement {placement!r}; valid: {PLACEMENTS}"
            )
        self.placement = placement
        self.machine = get_machine(machine) if isinstance(machine, str) else machine
        if isinstance(backend, CapsPredicate):
            # Resolve eagerly: an unsatisfiable predicate fails at
            # construction with the full capability table.
            backend = backend.resolve()
        elif backend is not None and backend not in backend_names():
            raise ValueError(
                f"unknown backend {backend!r}; valid: {', '.join(backend_names())}"
            )
        self.backend = backend
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

    # -- conveniences ---------------------------------------------------

    def _machine(self) -> MachineModel:
        if self.machine is None:
            raise ValueError("Session has no machine= configured")
        return self.machine

    def _backend(self) -> str:
        if self.backend is None:
            raise ValueError("Session has no backend= configured")
        return self.backend

    def run_experiment(self, name: str, **kwargs: Any):
        """:func:`run_experiment` under this session's scopes."""
        return run_experiment(name, **kwargs)

    def run_sweep(self, spec, **kwargs):
        """:func:`repro.sweep.run_sweep` under this session's scopes."""
        return _sweep.run_sweep(spec, **kwargs)

    def run_flood(self, *, nbytes: int, msgs_per_sync: int, **kwargs: Any):
        """One flood point on the session's machine/backend."""
        from repro.workloads.flood import run_flood

        return run_flood(
            self._machine(), self._backend(), nbytes, msgs_per_sync, **kwargs
        )

    def run_cas_flood(self, **kwargs: Any):
        """One CAS-flood measurement on the session's machine/backend."""
        from repro.workloads.flood import run_cas_flood

        return run_cas_flood(self._machine(), self._backend(), **kwargs)

    def run_collective(self, coll: str, *, nranks: int, **kwargs: Any):
        """One collective (:func:`repro.collectives.run_collective`) on
        the session's machine/backend."""
        from repro.collectives import run_collective

        return run_collective(
            self._machine(), self._backend(), coll, nranks=nranks, **kwargs
        )

    def explain_collective(self, coll: str, *, nranks: int, **kwargs: Any):
        """The algorithm selector's verdict + cost table (model only)."""
        from repro.collectives import explain_collective

        return explain_collective(
            self._machine(), self._backend(), coll, nranks=nranks, **kwargs
        )

    def run_training_step(self, *, nranks: int, grad_bytes: float, **kwargs: Any):
        """A data-parallel training step (ML traffic; see repro.workloads.ml)."""
        from repro.workloads.ml import run_training_step

        return run_training_step(
            self._machine(), self._backend(), nranks=nranks,
            grad_bytes=grad_bytes, **kwargs,
        )

    def run_moe_dispatch(self, *, nranks: int, **kwargs: Any):
        """An expert-parallel MoE layer (alltoall dispatch + combine)."""
        from repro.workloads.ml import run_moe_dispatch

        return run_moe_dispatch(
            self._machine(), self._backend(), nranks=nranks, **kwargs
        )

    def cluster(self, machine: "str | MachineModel | None" = None, **kwargs: Any):
        """A :class:`repro.cluster.Cluster` on the session's machine (or an
        explicit one), defaulting to the session's ``placement`` policy.
        Accepts the Cluster keywords (``routing=``, ``congestion=``,
        ``seed=``, ``faults=``)."""
        from repro.cluster import Cluster

        if machine is None:
            machine = self._machine()
        kwargs.setdefault("placement", self.placement)
        return Cluster(machine, **kwargs)

    def run_recoverable_training(
        self, spec=None, *, nranks: int, cluster=None, **kwargs: Any
    ):
        """A checkpoint/restart training job
        (:func:`repro.cluster.run_recoverable_training`) on ``cluster``,
        or on a fresh :meth:`cluster` of the session's machine — which
        picks up the session's fault plan, so hard faults configured via
        ``Session(faults=...)`` fail and recover the job."""
        from repro.cluster import run_recoverable_training

        if cluster is None:
            cluster = self.cluster()
        return run_recoverable_training(cluster, spec, nranks=nranks, **kwargs)

    def run_kv_transfer(self, *, nranks: int, **kwargs: Any):
        """A prefill -> KV-cache hand-off -> decode pipeline."""
        from repro.workloads.ml import run_kv_transfer

        return run_kv_transfer(
            self._machine(), self._backend(), nranks=nranks, **kwargs
        )

    def __repr__(self) -> str:
        bits = []
        if self.machine is not None:
            bits.append(f"machine={self.machine.name!r}")
        if self.backend is not None:
            bits.append(f"backend={self.backend!r}")
        if self.fault_plan is not None:
            bits.append("faults=...")
        if self.obs is not None:
            bits.append("obs=on")
        if self.passes.enabled:
            bits.append(f"passes={','.join(self.passes.names())}")
        bits.append(f"jobs={self.jobs}")
        state = "active" if self._stack is not None else "idle"
        return f"<Session {' '.join(bits)} [{state}]>"
