"""Trace sinks beyond the in-memory default.

These plug into :class:`repro.sim.trace.Tracer` via its ``sink`` argument:

* :class:`RingBufferSink` — bounded memory: keeps the most recent
  ``capacity`` records and evicts the oldest.  The right choice for the
  paper's hashtable workload at 1e6 msg/sync, where an unbounded list is
  exactly what collapses.
* :class:`JsonlSink` — streams every record to a file as one JSON object
  per line and retains nothing in memory.  ``repro.analysis.traces`` loads
  the file back into a plain in-memory :class:`~repro.sim.trace.Tracer`,
  so post-run analysis is identical either way.
"""

from __future__ import annotations

import json
from collections import deque
from collections.abc import Iterator
from pathlib import Path
from typing import IO, Any

from repro.sim.trace import TraceRecord
from repro.util.validation import check_count

__all__ = ["RingBufferSink", "JsonlSink", "record_to_json", "record_from_json"]


def record_to_json(record: TraceRecord) -> str:
    """One-line JSON form of a record (the JSONL wire format)."""
    return json.dumps(
        {
            "t": record.t,
            "kind": record.kind,
            "rank": record.rank,
            "detail": record.detail,
        },
        default=repr,
        separators=(",", ":"),
    )


def record_from_json(line: str) -> TraceRecord:
    """Inverse of :func:`record_to_json`."""
    d = json.loads(line)
    return TraceRecord(
        t=d["t"], kind=d["kind"], rank=d["rank"], detail=dict(d.get("detail", {}))
    )


class RingBufferSink:
    """Keep the last ``capacity`` records; evict the oldest in O(1)."""

    __slots__ = ("capacity", "_ring", "dropped")

    def __init__(self, capacity: int):
        self.capacity = check_count("ring capacity", capacity)
        self._ring: deque[TraceRecord] = deque(maxlen=capacity)
        self.dropped = 0  # evicted-record count (so truncation is visible)

    @property
    def records(self) -> list[TraceRecord]:
        return list(self._ring)

    def append(self, record: TraceRecord) -> None:
        if len(self._ring) == self.capacity:
            self.dropped += 1
        self._ring.append(record)

    def __len__(self) -> int:
        return len(self._ring)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._ring)

    def clear(self) -> None:
        self._ring.clear()
        self.dropped = 0


class JsonlSink:
    """Stream records to ``path`` as JSON Lines; retain nothing in memory.

    Usable as a context manager; otherwise call :meth:`close` (or rely on
    the file being line-buffered flushed at interpreter exit).  ``clear``
    truncates the file, mirroring ``Tracer.clear`` semantics.
    """

    __slots__ = ("path", "_fh", "written")

    records: tuple[TraceRecord, ...] = ()  # nothing retained in memory

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._fh: IO[str] | None = self.path.open("w")
        self.written = 0

    def append(self, record: TraceRecord) -> None:
        if self._fh is None:
            raise ValueError(f"JsonlSink({self.path}) is closed")
        self._fh.write(record_to_json(record))
        self._fh.write("\n")
        self.written += 1

    def __len__(self) -> int:
        return 0  # in-memory length; total emitted is .written

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(())

    def clear(self) -> None:
        if self._fh is not None:
            self._fh.close()
        self._fh = self.path.open("w")
        self.written = 0

    def flush(self) -> None:
        if self._fh is not None:
            self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
