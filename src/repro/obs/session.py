"""The :class:`Obs` facade and the ambient observation session.

Experiment runners build :class:`~repro.comm.job.Job` objects internally,
so instrumentation cannot be threaded through their signatures without
touching every runner.  Instead an ``Obs`` session is installed ambiently::

    from repro import obs

    with obs.observe(obs.Obs(trace=True)) as session:
        report = run_fig09()
    obs.write_chrome_trace("run.trace.json", session.traces, session.spans)

Every job constructed inside the ``with`` block attaches itself: its
fabric and comm layers feed ``session.metrics``, and (when ``trace`` is
on) each job gets a fresh tracer — built by ``sink_factory`` — registered
under a ``jobN:machine/runtime`` label in ``session.traces``.

Outside a session nothing changes: jobs default to
:class:`~repro.sim.trace.NullTracer` and no metrics, so the zero-overhead
path stays zero-overhead.  The session is a :class:`repro.scope.Scope` that
is *not* carried: sweep workers start unobserved.
"""

from __future__ import annotations

from collections.abc import Callable
from contextlib import AbstractContextManager
from typing import Any

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanTracker
from repro.scope import Scope
from repro.sim.trace import ListSink, NullTracer, Tracer, TraceSink

__all__ = ["Obs", "observe", "current"]


class Obs:
    """One observation session: metrics + spans + per-job tracers.

    Args:
        trace: when True, jobs created inside :func:`observe` get a real
            tracer (one per job) instead of a :class:`NullTracer`.
        sink_factory: builds the sink for each job tracer; defaults to the
            unbounded in-memory :class:`~repro.sim.trace.ListSink`.  Pass
            ``lambda: RingBufferSink(100_000)`` for bounded memory or a
            ``JsonlSink`` factory for streaming to disk.
        metrics, spans: pre-built registries to feed (fresh ones by
            default).
    """

    def __init__(
        self,
        *,
        trace: bool = False,
        sink_factory: Callable[[], TraceSink] | None = None,
        metrics: MetricsRegistry | None = None,
        spans: SpanTracker | None = None,
    ):
        self.trace = trace
        self.sink_factory = sink_factory if sink_factory is not None else ListSink
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.spans = spans if spans is not None else SpanTracker()
        self.traces: list[tuple[str, Tracer]] = []

    def tracer_for(self, label: str) -> Tracer:
        """A tracer for one job (NullTracer when tracing is off)."""
        if not self.trace:
            return NullTracer()
        tracer = Tracer(sink=self.sink_factory())
        self.traces.append((f"job{len(self.traces)}:{label}", tracer))
        return tracer

    def span(self, name: str):
        return self.spans.span(name)

    def snapshot(self) -> dict[str, Any]:
        """Metrics + span breakdown, JSON-ready (report embedding format)."""
        out: dict[str, Any] = dict(self.metrics.snapshot())
        totals = self.spans.totals()
        for name, seconds in totals.items():
            out[f"span.{name}.seconds"] = seconds
        return out

    def close(self) -> None:
        """Flush/close any closable trace sinks (JSONL files)."""
        for _label, tracer in self.traces:
            close = getattr(tracer.sink, "close", None)
            if close is not None:
                close()


_SESSION = Scope("repro.obs.observe")


def current() -> Obs | None:
    """The innermost active session, or None (the zero-overhead default)."""
    return _SESSION.current()


def observe(session: Obs | None = None) -> AbstractContextManager[Obs]:
    """Install ``session`` (a fresh metrics-only ``Obs`` by default) as the
    ambient observation session for the duration of the block."""
    return _SESSION.push(session if session is not None else Obs())
