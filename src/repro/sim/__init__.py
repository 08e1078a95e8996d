"""Discrete-event simulation engine.

The engine provides virtual time (:class:`Simulator`), one-shot coordination
points (:class:`Event`, :class:`Timeout`, :class:`AllOf`), generator-based
concurrency (:class:`Process`, which yields an event, a float delay or a
:class:`WaitList`), one-consumer heap entries (:class:`InFlight`) and
structured tracing (:class:`Tracer`).

All of ``repro.net``, ``repro.comm`` and the workloads are built on this
package and nothing else; there is no hidden wall-clock anywhere.
"""

from repro.sim.engine import Simulator
from repro.sim.event import AllOf, DeadlockError, Event, SimulationError, Timeout
from repro.sim.process import InFlight, Process, WaitList
from repro.sim.trace import ListSink, NullSink, NullTracer, TraceRecord, Tracer, TraceSink

__all__ = [
    "ListSink",
    "NullSink",
    "TraceSink",
    "Simulator",
    "Event",
    "Timeout",
    "AllOf",
    "SimulationError",
    "DeadlockError",
    "InFlight",
    "Process",
    "WaitList",
    "Tracer",
    "NullTracer",
    "TraceRecord",
]
