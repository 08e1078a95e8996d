"""Deterministic fault sampling and the ambient injection scope.

Experiment runners build :class:`~repro.comm.job.Job` objects internally,
so — like :mod:`repro.obs` — a fault plan is installed ambiently::

    from repro import faults

    plan = faults.FaultPlan.uniform(loss=0.05, seed=7)
    with faults.inject(plan) as scope:
        result = run_flood(machine, "one_sided", 65536, 64)
    print(scope.stats())   # drops / retransmits / exhausted / ...

Every job constructed inside the block threads the plan into its fabric
(:func:`injector_for`).  Outside a scope (or with ``inject(None)``)
nothing changes: the fabric takes its zero-overhead, byte-identical
fault-free path.  The scope is a *carried* :class:`repro.scope.Scope`:
the plan changes simulated results, so sweep workers re-enter it and
sweep cache keys name it (:meth:`FaultPlan.fingerprint`).

Determinism: every loss/jitter draw is a pure function of
``(seed, link, direction, message id, attempt)`` via a keyed blake2b
hash.  The message id is the fabric's transfer sequence number, so the
draw a message sees does not depend on how many retries *other* messages
needed — and a draw compared against a larger loss threshold can only
flip from "delivered" to "dropped", which is why degradation curves are
monotone in the loss rate.
"""

from __future__ import annotations

import hashlib
from contextlib import AbstractContextManager

from repro.faults.plan import FaultPlan, FaultSemantics
from repro.scope import Scope

__all__ = ["FaultInjector", "FaultScope", "inject", "injector_for", "current_plan"]

_TWO_64 = float(2**64)

# The counters an injector keeps and a scope sums, in reporting order.
_STATS = (
    "drops",
    "retransmits",
    "exhausted",
    "delivered",
    "delivered_with_retry",
    "down_stall_seconds",
    "hard_drops",
)


class FaultInjector:
    """Per-fabric fault state: the plan, the runtime semantics, counters.

    One injector serves one :class:`~repro.net.fabric.Fabric` (hence one
    job); scopes aggregate across injectors.  The optional ``attempts_hist``
    hook (a :class:`repro.obs.metrics.Histogram`) receives the attempt
    count of every delivered transfer when an obs session is active.
    """

    __slots__ = (
        "plan",
        "semantics",
        "drops",
        "retransmits",
        "exhausted",
        "delivered",
        "delivered_with_retry",
        "down_stall_seconds",
        "drops_by_link",
        "hard_drops",
        "hard_drops_by_link",
        "attempts_hist",
        "_keyed",
    )

    def __init__(self, plan: FaultPlan, semantics: FaultSemantics | None = None):
        self.plan = plan
        self.semantics = semantics if semantics is not None else FaultSemantics()
        self.drops = 0
        self.retransmits = 0
        self.exhausted = 0
        self.delivered = 0
        self.delivered_with_retry = 0
        self.down_stall_seconds = 0.0
        self.drops_by_link: dict[str, int] = {}
        self.hard_drops = 0
        self.hard_drops_by_link: dict[str, int] = {}
        self.attempts_hist = None
        # The seed-keyed hash state, built once: a draw copies it.
        self._keyed = hashlib.blake2b(digest_size=8, key=str(plan.seed).encode())

    # -- deterministic sampling ----------------------------------------

    def unit(self, link: str, tid: int, attempt: int, purpose: str) -> float:
        """A uniform draw in [0, 1): pure function of the arguments + seed."""
        h = self._keyed.copy()
        h.update(f"{link}|{tid}|{attempt}|{purpose}".encode())
        return int.from_bytes(h.digest(), "little") / _TWO_64

    def lost(self, lf, link: str, tid: int, attempt: int) -> bool:
        """Does traversal ``attempt`` of transfer ``tid`` drop on ``link``?"""
        return lf.loss > 0.0 and self.unit(link, tid, attempt, "loss") < lf.loss

    def jitter(self, lf, link: str, tid: int, attempt: int) -> float:
        """Extra latency for this traversal (0 when the link has no jitter)."""
        if lf.jitter <= 0.0:
            return 0.0
        return lf.jitter * self.unit(link, tid, attempt, "jitter")

    # -- bookkeeping ----------------------------------------------------

    def record_drop(self, link: str) -> None:
        self.drops += 1
        self.drops_by_link[link] = self.drops_by_link.get(link, 0) + 1

    def record_hard_drop(self, link: str) -> None:
        """A drop caused by a hard (fail-stop) element outage; also
        counted in the overall drop totals."""
        self.record_drop(link)
        self.hard_drops += 1
        self.hard_drops_by_link[link] = self.hard_drops_by_link.get(link, 0) + 1

    def record_retransmit(self) -> None:
        self.retransmits += 1

    def record_exhausted(self) -> None:
        self.exhausted += 1

    def record_delivery(self, attempts: int) -> None:
        self.delivered += 1
        if attempts > 1:
            self.delivered_with_retry += 1
        if self.attempts_hist is not None:
            self.attempts_hist.observe(attempts)

    def record_down_stall(self, seconds: float) -> None:
        self.down_stall_seconds += seconds

    def stats(self) -> dict[str, float]:
        """Aggregate counters (the shape :class:`FaultScope` merges)."""
        return {name: float(getattr(self, name)) for name in _STATS}

    def metrics_snapshot(self) -> dict[str, float]:
        """Snapshot-time collector payload for a MetricsRegistry."""
        stats = self.stats()
        out = {f"faults.{k}": v for k, v in stats.items() if k != "hard_drops"}
        out["faults.hard.drops"] = stats["hard_drops"]
        for link, n in self.drops_by_link.items():
            out[f"faults.link.{link}.drops"] = float(n)
        for link, n in self.hard_drops_by_link.items():
            out[f"faults.hard.link.{link}.drops"] = float(n)
        return out


class FaultScope:
    """Aggregates fault statistics over every job run inside one
    :func:`inject` block (``plan`` may be None for a no-op scope).  Only
    the plan crosses a process boundary: injectors serve the fabrics of
    the process that built them (a sweep worker's scope starts empty)."""

    def __init__(self, plan: FaultPlan | None):
        self.plan = plan
        self.injectors: list[FaultInjector] = []

    def __getstate__(self) -> dict:
        return {"plan": self.plan, "injectors": []}

    def fingerprint(self) -> dict:
        """What a sweep cache key says of this scope."""
        return {"plan": None if self.plan is None else self.plan.fingerprint()}

    def attach(self, injector: FaultInjector) -> None:
        self.injectors.append(injector)

    def stats(self) -> dict[str, float]:
        merged = dict.fromkeys(_STATS, 0.0)
        for inj in self.injectors:
            for name, value in inj.stats().items():
                merged[name] += value
        return merged


_SCOPE = Scope("repro.faults.inject", carried=True)


def current_plan() -> FaultPlan | None:
    """The innermost active plan, or None (the fault-free default)."""
    scope = _SCOPE.current()
    return scope.plan if scope is not None else None


def inject(plan: FaultPlan | None) -> AbstractContextManager[FaultScope]:
    """Install ``plan`` as the ambient fault plan for the block.

    ``inject(None)`` is a valid no-op scope — convenient for code that
    builds the plan conditionally and always wants a scope to query.
    """
    return _SCOPE.push(FaultScope(plan))


def injector_for(
    plan: FaultPlan | None, semantics: FaultSemantics | None = None
) -> FaultInjector | None:
    """The injector a new fabric carries: built from the explicit ``plan``,
    else the ambient one (how experiment runners reach jobs built deep
    inside workloads), and attached to the ambient scope.  None for a clean
    or absent plan: the fabric keeps its byte-identical fault-free path."""
    scope = _SCOPE.current()
    if plan is None and scope is not None:
        plan = scope.plan
    if plan is None or plan.clean:
        return None
    injector = FaultInjector(plan, semantics)
    if scope is not None:
        scope.attach(injector)
    return injector
