"""Event tracing: a structured record of what happened during a run.

The communication layers emit :class:`TraceRecord` rows ("rank 3 injected a
4 KiB put at t=1.2e-5") into a :class:`Tracer`.  The experiment harness uses
traces to compute the paper's instrumented quantities — messages per
synchronization, words per message, achieved bandwidth — and the tests use
them to assert ordering invariants (a signal never overtakes its data, etc.).

Storage is pluggable: a :class:`Tracer` writes records to a *sink*.  The
default :class:`ListSink` keeps everything in memory (the original
behaviour); ``repro.obs.sinks`` adds a bounded ring buffer and a streaming
JSONL file sink for runs — like the hashtable workload at 1e6 msg/sync —
where an unbounded list would not survive.  A sink only needs ``append``,
``__len__``, ``__iter__``, ``clear`` and a ``records`` sequence view.

Hot paths must guard emission with ``if tracer.enabled:`` so the kwargs
dict for ``emit`` is never built when tracing is off (the
:class:`NullTracer` default).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable, Iterator, Sequence
from typing import Any, Protocol, runtime_checkable

__all__ = [
    "TraceRecord",
    "TraceSink",
    "ListSink",
    "NullSink",
    "Tracer",
    "NullTracer",
]

# Payload-bearing record kinds across all three runtimes; the default scope
# of :meth:`Tracer.total_bytes` so one-sided/SHMEM runs are not silently
# summed as zero.
DATA_KINDS: tuple[str, ...] = ("send", "put", "put_signal")


@dataclass(frozen=True)
class TraceRecord:
    """One traced occurrence.

    Attributes:
        t: simulated time (seconds).
        kind: category, e.g. ``"send"``, ``"put"``, ``"signal"``, ``"sync"``.
        rank: acting rank id (or -1 for fabric-level records).
        detail: free-form payload (message size, peer, op name, ...).
    """

    t: float
    kind: str
    rank: int
    detail: dict[str, Any] = field(default_factory=dict)


@runtime_checkable
class TraceSink(Protocol):
    """Destination for trace records (duck-typed; see module docstring)."""

    records: Sequence[TraceRecord]

    def append(self, record: TraceRecord) -> None: ...

    def __len__(self) -> int: ...

    def __iter__(self) -> Iterator[TraceRecord]: ...

    def clear(self) -> None: ...


class ListSink:
    """Unbounded in-memory sink: the classic append-only trace list."""

    __slots__ = ("records",)

    def __init__(self) -> None:
        self.records: list[TraceRecord] = []

    def append(self, record: TraceRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def clear(self) -> None:
        self.records.clear()


class NullSink:
    """Shared immutable sink that drops everything (``NullTracer`` storage)."""

    __slots__ = ()

    records: tuple[TraceRecord, ...] = ()

    def append(self, record: TraceRecord) -> None:
        pass

    def __len__(self) -> int:
        return 0

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(())

    def clear(self) -> None:
        pass


#: Module-level singleton: every ``NullTracer`` shares this, so a disabled
#: tracer carries no mutable per-instance record storage at all.
NULL_SINK = NullSink()


class Tracer:
    """Append-only trace with filtered iteration helpers.

    ``sink`` chooses where records go; the default is an in-memory
    :class:`ListSink`.  ``tracer.records`` is always a sequence view of
    whatever the sink currently retains (a ring sink retains only the last
    N records; a streaming file sink retains nothing — load it back with
    :func:`repro.analysis.traces.load_jsonl`).
    """

    def __init__(self, sink: TraceSink | None = None) -> None:
        self.sink: TraceSink = sink if sink is not None else ListSink()
        self.enabled = True

    @property
    def records(self) -> Sequence[TraceRecord]:
        return self.sink.records

    def emit(self, t: float, kind: str, rank: int, **detail: Any) -> None:
        if self.enabled:
            self.sink.append(TraceRecord(t=t, kind=kind, rank=rank, detail=detail))

    def __len__(self) -> int:
        return len(self.sink)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.sink)

    def filter(
        self, kind: str | None = None, rank: int | None = None
    ) -> list[TraceRecord]:
        out: Iterable[TraceRecord] = self.records
        if kind is not None:
            out = [r for r in out if r.kind == kind]
        if rank is not None:
            out = [r for r in out if r.rank == rank]
        return list(out)

    def count(self, kind: str) -> int:
        return sum(1 for r in self if r.kind == kind)

    def total_bytes(self, kinds: str | Sequence[str] = DATA_KINDS) -> float:
        """Sum the ``nbytes`` detail over records whose kind is in ``kinds``.

        ``kinds`` accepts one kind (``"send"``) or a sequence of kinds; the
        default covers every payload-bearing kind across the three runtimes
        (``send``, ``put``, ``put_signal``) so a one-sided trace is not
        silently summed as zero.
        """
        if isinstance(kinds, str):
            kinds = (kinds,)
        wanted = frozenset(kinds)
        return float(
            sum(r.detail.get("nbytes", 0) for r in self if r.kind in wanted)
        )

    def clear(self) -> None:
        self.sink.clear()


class NullTracer(Tracer):
    """A tracer that drops everything — zero overhead for large runs.

    Shares the module-level :data:`NULL_SINK`, so it owns no mutable record
    storage; ``emit`` is a no-op and ``enabled`` is ``False`` so guarded
    call sites skip building the record kwargs entirely.
    """

    def __init__(self) -> None:
        super().__init__(sink=NULL_SINK)
        self.enabled = False

    def emit(self, t: float, kind: str, rank: int, **detail: Any) -> None:
        pass
