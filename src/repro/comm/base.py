"""Common communication-layer types: messages, requests, status, counters.

These are shared between the two-sided MPI layer (``repro.comm.mpi``-style
semantics in ``context``/``matching``), the one-sided window layer
(``repro.comm.window``), and the GPU-initiated SHMEM layer
(``repro.comm.shmem``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.event import Event

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Message",
    "Status",
    "Request",
    "OpCounter",
    "CommError",
]

ANY_SOURCE = -1
ANY_TAG = -1


class CommError(RuntimeError):
    """Raised for misuse of the communication API."""


@dataclass(frozen=True)
class Status:
    """Completion metadata of a receive (mirrors ``MPI_Status``)."""

    source: int
    tag: int
    nbytes: float


@dataclass
class Message:
    """An in-flight two-sided message (envelope + optional payload).

    ``on_match`` hooks the matching engine for protocol messages: when set,
    matching calls ``on_match(posted, msg)`` instead of completing the
    posted receive directly (used for the rendezvous RTS phase).  ``seq``
    is the message's place in its sender's stream to ``dst``.
    """

    src: int
    dst: int
    tag: int
    nbytes: float
    payload: Any = None
    on_match: Any = None
    seq: int = 0

    def matches(self, source: int, tag: int) -> bool:
        """Envelope match against a posted receive's (source, tag) pattern."""
        return (source == ANY_SOURCE or source == self.src) and (
            tag == ANY_TAG or tag == self.tag
        )


class Request:
    """Handle for a non-blocking send, recv or get (a put returns none).

    ``event`` fires when the operation completes; for receives the value is
    a ``(payload, Status)`` pair, for a get the fetched array, for sends
    ``None``.
    """

    __slots__ = ("event", "kind", "nbytes")

    def __init__(self, event: "Event", kind: str, nbytes: float = 0.0):
        self.event = event
        self.kind = kind
        self.nbytes = nbytes

    @property
    def done(self) -> bool:
        return self.event.triggered

    @property
    def value(self) -> Any:
        if not self.event.triggered:
            raise CommError(f"{self.kind} request not complete; wait on it first")
        return self.event.value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.done else "pending"
        return f"<Request {self.kind} {state}>"


@dataclass
class OpCounter:
    """Per-rank instrumentation: the quantities behind the paper's Table II.

    ``messages``/``bytes_sent`` count payload-bearing transfers;
    ``operations`` counts every runtime call (the 2-vs-4 ops-per-message
    distinction); ``syncs`` counts blocking synchronisation points, so
    ``messages / syncs`` is the paper's msg/sync metric.
    """

    messages: int = 0
    bytes_sent: float = 0.0
    operations: int = 0
    syncs: int = 0
    atomics: int = 0
    recv_messages: int = 0
    bytes_received: float = 0.0

    def msgs_per_sync(self) -> float:
        return self.messages / self.syncs if self.syncs else float("nan")

    def ops_per_message(self) -> float:
        return self.operations / self.messages if self.messages else float("nan")

    def words_per_message(self, word_bytes: int = 8) -> float:
        if not self.messages:
            return float("nan")
        return self.bytes_sent / self.messages / word_bytes

    def merge(self, other: "OpCounter") -> "OpCounter":
        """Aggregate counters across ranks (returns a new counter)."""
        return OpCounter(
            messages=self.messages + other.messages,
            bytes_sent=self.bytes_sent + other.bytes_sent,
            operations=self.operations + other.operations,
            syncs=self.syncs + other.syncs,
            atomics=self.atomics + other.atomics,
            recv_messages=self.recv_messages + other.recv_messages,
            bytes_received=self.bytes_received + other.bytes_received,
        )
