"""Global switch for the vectorized bulk-transfer engine.

The bulk engine (:mod:`repro.perf.engine`) is on by default: it is exact
by construction, so there is no accuracy trade-off in leaving it enabled.
The one override, for benchmarking and debugging, is the
:func:`vectorized` context manager::

    from repro import perf

    with perf.vectorized(False):
        scalar = run_flood(machine, "one_sided", 64, 1024)

The switch is a *carried* :class:`repro.scope.Scope`: which engine runs is
part of a run's stated configuration, so sweep workers take the engine
their parent asked for and a sweep cache key says when it was off.

Independent of this switch, batches fall back to the scalar per-message
path whenever exactness cannot be guaranteed for the whole job: a fabric
that is not replayable (fault plan, congestion control, or a non-minimal
routing policy — each makes a transfer depend on more than port state) or
an enabled tracer (per-message records must be emitted) — see
:func:`bulk_enabled`, which only the batch verbs of :mod:`repro.comm` ask.
"""

from __future__ import annotations

from contextlib import AbstractContextManager

from repro import obs
from repro.scope import Scope

__all__ = ["enabled", "vectorized", "bulk_enabled", "bulk_verdict"]

_ENGINE = Scope("repro.perf.vectorized", True, carried=True)


def enabled() -> bool:
    """Is the bulk engine globally enabled right now?"""
    return _ENGINE.current()


def vectorized(on: bool = True) -> AbstractContextManager[bool]:
    """Force the bulk engine on (default) or off for the block."""
    return _ENGINE.push(bool(on))


def _declined(job) -> str | None:
    """Why batches on ``job`` must stay scalar; None when they may go bulk."""
    if not enabled():
        return "engine_off"
    return job.fabric.not_replayable or ("tracer" if job.tracer.enabled else None)


def bulk_enabled(job) -> bool:
    """May batches on ``job`` take the bulk path?

    True only when the whole job is on the pristine, untraced fast path:

    * the engine is globally enabled (:func:`enabled`);
    * the job's fabric — its own or a cluster's shared one — says it may
      be replayed in batch (:attr:`repro.net.fabric.Fabric.replayable`):
      no fault injector (draws, retransmissions and outage stalls are
      per-message), no congestion control (every transfer's ECN verdict
      feeds the next injection) and routing ``None``/minimal (adaptive
      and failover policies decide per transfer);
    * the job's tracer is disabled (per-message trace records cannot be
      batch-evaluated).

    The question is asked in :mod:`repro.comm` only — by the batch verbs
    that own the scalar verb they replay (``put_batch``,
    ``put_signal_batch`` / ``wait_signal_batch``, ``cas_stream``) — and
    both halves of a signalled batch ask it of the *same* job, so they
    always agree; flipping :func:`vectorized` from inside a running rank
    program is unsupported.
    """
    return _declined(job) is None


def bulk_verdict(job) -> bool:
    """:func:`bulk_enabled` for the sending half of a batch: inside an
    obs session the verdict is also counted, once per batch, as
    ``perf.bulk.engaged`` or ``perf.bulk.declined.<reason>`` (``engine_off``,
    ``faults``, ``congestion``, ``routing``, ``tracer``)."""
    why = _declined(job)
    session = obs.current()
    if session is not None:
        name = "perf.bulk.engaged" if why is None else f"perf.bulk.declined.{why}"
        session.metrics.counter(name).inc()
    return why is None
