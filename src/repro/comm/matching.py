"""The two-sided matching engine: posted receives vs. unexpected messages.

Implements standard MPI matching semantics per receiving rank:

* a posted receive names ``(source, tag)``, either of which may be a
  wildcard (:data:`~repro.comm.base.ANY_SOURCE` / ``ANY_TAG``);
* an arriving message matches the *oldest* posted receive whose pattern it
  satisfies; if none, it joins the unexpected queue;
* a newly posted receive first scans the unexpected queue in arrival order
  (non-overtaking: messages from one sender match in the order sent).  The
  fabric may reorder a pair — NVLink sub-channels, a fast hop after a slow
  one, link jitter — so :meth:`RankContext._deliver
  <repro.comm.context.RankContext._deliver>` hands messages to the engine
  in per-pair send order, by the sequence number ``isend`` stamps, and the
  FIFO queues keep that order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.comm.base import Message, Status
from repro.sim.event import Event
from repro.sim.process import WaitList

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator

__all__ = ["PostedRecv", "MatchingEngine"]


@dataclass
class PostedRecv:
    """One posted (possibly wildcard) receive awaiting a message."""

    source: int
    tag: int
    event: Event  # fires with (payload, Status)


class MatchingEngine:
    """Per-rank mailbox implementing MPI envelope matching.

    ``delay_fn(msg)`` supplies the receiver-side completion delay (matching
    plus copy cost) applied between match time and receive completion,
    regardless of whether the match happened at delivery or at post time.
    """

    def __init__(self, sim: "Simulator", rank: int, delay_fn=None):
        self.sim = sim
        self.rank = rank
        self._delay_fn = delay_fn if delay_fn is not None else (lambda msg: 0.0)
        self._unexpected: deque[Message] = deque()
        self._posted: deque[PostedRecv] = deque()
        self._arrival_watchers = WaitList(f"a message arriving at rank {rank}")
        self.matched_count = 0

    @property
    def unexpected_depth(self) -> int:
        return len(self._unexpected)

    def deliver(self, msg: Message) -> None:
        """A message has arrived from the fabric.

        If a posted receive matches, its event fires after the receiver-side
        matching/copy delay; otherwise the message waits in the unexpected
        queue.
        """
        if msg.dst != self.rank:
            raise ValueError(
                f"message for rank {msg.dst} delivered to engine of rank {self.rank}"
            )
        if self._arrival_watchers:
            self._arrival_watchers.wake()
        for i, posted in enumerate(self._posted):
            if msg.matches(posted.source, posted.tag):
                del self._posted[i]
                self._complete(posted, msg)
                return
        self._unexpected.append(msg)

    def post(self, source: int, tag: int, event: Event) -> None:
        """Post a receive; match immediately against the unexpected queue."""
        for i, msg in enumerate(self._unexpected):
            if msg.matches(source, tag):
                del self._unexpected[i]
                self._complete(PostedRecv(source, tag, event), msg)
                return
        self._posted.append(PostedRecv(source, tag, event))

    def take(self, source: int, tag: int) -> Message | None:
        """Pop the oldest matching unexpected message (polling receive)."""
        for i, msg in enumerate(self._unexpected):
            if msg.matches(source, tag):
                del self._unexpected[i]
                self.matched_count += 1
                return msg
        return None

    def on_arrival(self) -> WaitList:
        """Yield it to park until the next message delivery to this rank."""
        return self._arrival_watchers

    def _complete(self, posted: PostedRecv, msg: Message) -> None:
        self.matched_count += 1
        if msg.on_match is not None:
            # Protocol message (rendezvous RTS): the data phase charges the
            # receive-side costs itself; none are charged here.
            msg.on_match(posted, msg)
            return
        value = (msg.payload, Status(source=msg.src, tag=msg.tag, nbytes=msg.nbytes))
        posted.event.succeed(value, delay=self._delay_fn(msg))
