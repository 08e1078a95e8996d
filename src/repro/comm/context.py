"""Per-rank communication context: the simulated two-sided MPI API.

A rank program is a generator taking a :class:`RankContext`; every
communication call is itself a generator and must be driven with
``yield from`` so that the software overhead it charges advances the rank's
virtual time::

    def program(ctx):
        req = yield from ctx.isend(dest=1, nbytes=1024, payload=data)
        got, status = yield from ctx.recv(source=1)
        yield from ctx.waitall([req])

Timing model (LogGP mapping; costs from the machine's
:class:`~repro.machines.base.CommCosts`):

* ``isend`` charges the sender ``o = costs.isend`` serially — the overhead
  the paper says cannot be overlapped by sending more messages;
* eager messages (≤ ``eager_threshold``) travel immediately and the send
  completes locally (buffered); larger messages use a rendezvous
  (RTS/CTS) exchange that also waits for the receive to be posted;
* the receiver charges ``recv_match + nbytes * copy_per_byte`` per message
  between wire arrival and receive completion;
* a blocking wait that actually blocks charges ``sync_enter`` on wake-up —
  this one-time cost, amortised over all messages completed by the wait,
  is why more messages per synchronization raises achieved bandwidth.
"""

from __future__ import annotations

from collections.abc import Generator
from typing import TYPE_CHECKING, Any

from repro.comm.base import (
    ANY_SOURCE,
    ANY_TAG,
    CommError,
    Message,
    OpCounter,
    Request,
    Status,
)
from repro.comm.matching import MatchingEngine
from repro.sim.process import InFlight

if TYPE_CHECKING:  # pragma: no cover
    from repro.comm.job import Job

__all__ = ["RankContext"]


class _Arrival(InFlight):
    """A two-sided message in flight (an eager send or a rendezvous RTS);
    on arrival it enters the receiver's matching engine.

    Two-sided deliveries only fail when fault injection runs a two-sided
    verb under surface-mode semantics (no receiver exists to surface the
    loss at); re-raising aborts the simulation at the delivery instant
    rather than letting the receiver hang forever.
    """

    __slots__ = ("dst_ctx", "msg", "error")

    def __init__(self, dst_ctx: "RankContext", msg: Message):
        self.dst_ctx, self.msg = dst_ctx, msg

    def _resume(self, _none: None) -> None:
        if self.error is not None:
            raise self.error
        self.dst_ctx._deliver(self.msg)


class _Rendezvous(InFlight):
    """The data phase of a rendezvous send, started when the RTS matches:
    the CTS back to the sender, then the data (``data_sent``), whose
    arrival completes the posted receive and the send."""

    __slots__ = ("sender", "dst_ctx", "msg", "payload", "send_done", "posted",
                 "data_sent", "error")

    def __init__(self, sender, dst_ctx, msg, payload, send_done):
        self.sender, self.dst_ctx, self.msg = sender, dst_ctx, msg
        self.payload, self.send_done = payload, send_done
        self.data_sent = False

    def matched(self, posted, _msg: Message) -> None:
        """``msg.on_match``: matched at max(RTS arrival, recv posted)."""
        self.posted = posted
        self.sender.fabric.send(self.dst_ctx.endpoint, self.sender.endpoint, 0.0, self)

    def _resume(self, _none: None) -> None:
        msg, dst_ctx = self.msg, self.dst_ctx
        if not self.data_sent:
            self.data_sent = True
            self.sender.fabric.send(self.sender.endpoint, dst_ctx.endpoint, msg.nbytes, self)
            return
        self.posted.event.succeed(
            (self.payload, Status(source=msg.src, tag=msg.tag, nbytes=msg.nbytes)),
            delay=dst_ctx._recv_delay(msg),
        )
        if not self.send_done.triggered:
            self.send_done.succeed()


class RankContext:
    """One MPI rank's view of the job: identity, mailbox, and verbs."""

    def __init__(self, job: "Job", rank: int):
        self.job = job
        self.rank = rank
        self.size = job.nranks
        self.sim = job.sim
        self.fabric = job.fabric
        self.machine = job.machine
        self.costs = job.costs
        self.endpoint = job.endpoints[rank]
        self.sharing = job.sharing[self.endpoint]
        self.counter = OpCounter()
        self.engine = MatchingEngine(job.sim, rank, delay_fn=self._recv_delay)
        # Per-pair send order, which the fabric may not keep (see _deliver).
        self._sent: dict[int, int] = {}  # dest -> next seq to stamp
        self._next: dict[int, int] = {}  # source -> next seq to match
        self._held: dict[tuple[int, int], Message] = {}  # (source, seq) -> early msg
        # Path choices that move simulated time, counted on the branch
        # taken (Job exports them as comm.<runtime>.rendezvous / .held).
        self.rendezvous = 0  # sends above the eager threshold
        self.held = 0  # arrivals that overtook an earlier message of the pair
        # Receiver-side copy engine: serialises the runtime's per-byte copy
        # work (Spectrum MPI's extra copy caps achieved X-Bus bandwidth near
        # 25 GB/s in the paper's Fig. 3c).  Zero-cost when copy_per_byte=0.
        self._copy_next_free = 0.0

    # ------------------------------------------------------------------
    # local compute
    # ------------------------------------------------------------------

    def compute(
        self, nbytes: float = 0.0, flops: float = 0.0, seconds: float | None = None
    ) -> Generator:
        """Advance this rank's clock by modelled (or explicit) compute time."""
        t = (
            seconds
            if seconds is not None
            else self.machine.compute_time(nbytes, flops, sharing=self.sharing)
        )
        if t > 0:
            yield t if isinstance(t, float) else float(t)  # a sleep is a float
        return t

    # ------------------------------------------------------------------
    # two-sided verbs
    # ------------------------------------------------------------------

    def charge_copy(self, nbytes: float) -> float:
        """Reserve the rank's copy engine for ``nbytes``; returns the delay
        from now until the copy finishes.  Copies are serialised, so at high
        message rates this becomes the pipeline bottleneck."""
        copy = nbytes * self.costs.copy_per_byte
        if copy <= 0:
            return 0.0
        start = max(self.sim.now, self._copy_next_free)
        finish = start + copy
        self._copy_next_free = finish
        return finish - self.sim.now

    def _recv_delay(self, msg: Message) -> float:
        return self.costs.recv_match + self.charge_copy(msg.nbytes)

    def isend(
        self,
        dest: int,
        nbytes: float,
        tag: int = 0,
        payload: Any = None,
    ) -> Generator:
        """Post a non-blocking send; returns a :class:`Request`.

        Charges ``costs.isend`` of sender time before returning, which
        serialises back-to-back sends exactly as LogGP's per-message ``o``.
        """
        if not 0 <= dest < self.size:
            raise CommError(f"isend dest {dest} out of range (size {self.size})")
        if nbytes < 0:
            raise CommError(f"isend nbytes must be >= 0, got {nbytes}")
        self.counter.operations += 1
        self.counter.messages += 1
        self.counter.bytes_sent += nbytes
        yield self.costs.isend
        seq = self._sent.get(dest, 0)
        self._sent[dest] = seq + 1
        msg = Message(self.rank, dest, tag, nbytes, payload, seq=seq)
        dst_ctx = self.job.contexts[dest]
        send_done = self.sim.event()
        if self.job.tracer.enabled:
            self.job.tracer.emit(
                self.sim.now, "send", self.rank, dst=dest, tag=tag, nbytes=nbytes
            )
        if nbytes <= self.costs.eager_threshold:
            self.fabric.send(self.endpoint, dst_ctx.endpoint, nbytes, _Arrival(dst_ctx, msg))
            # Eager: the library buffers the data; the send completes locally
            # — a flag on the request, not an occurrence anyone is woken by.
            send_done.settle()
        else:
            # RTS/CTS protocol: data moves only after the receive is posted.
            self.rendezvous += 1
            msg.on_match = _Rendezvous(self, dst_ctx, msg, payload, send_done).matched
            msg.payload = None  # envelope only; data moves in the CTS phase
            self.fabric.send(self.endpoint, dst_ctx.endpoint, 0.0, _Arrival(dst_ctx, msg))
        return Request(send_done, "isend", nbytes)

    def _deliver(self, msg: Message) -> None:
        """Fabric callback: a message has arrived at this rank.  It enters
        the matching engine in its sender's order: one that overtook an
        earlier message of the pair waits here for it."""
        src = msg.src
        if msg.seq != self._next.get(src, 0):
            self._held[src, msg.seq] = msg
            self.held += 1
            return
        while msg is not None:
            self._next[src] = msg.seq + 1
            self.counter.recv_messages += 1
            self.counter.bytes_received += msg.nbytes
            if self.job.tracer.enabled:
                self.job.tracer.emit(
                    self.sim.now, "arrive", self.rank, src=src, tag=msg.tag, nbytes=msg.nbytes
                )
            self.engine.deliver(msg)
            msg = self._held.pop((src, msg.seq + 1), None) if self._held else None

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Generator:
        """Post a non-blocking receive; returns a :class:`Request` whose
        value on completion is ``(payload, Status)``."""
        if source != ANY_SOURCE and not 0 <= source < self.size:
            raise CommError(f"irecv source {source} out of range (size {self.size})")
        self.counter.operations += 1
        if self.costs.irecv > 0:
            yield self.costs.irecv
        ev = self.sim.event()
        self.engine.post(source, tag, ev)
        return Request(ev, "irecv")

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Generator:
        """Blocking receive: ``irecv`` + ``wait``; returns ``(payload, Status)``."""
        req = yield from self.irecv(source, tag)
        value = yield from self.wait(req)
        return value

    def recv_poll(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Generator:
        """Hot-loop blocking receive (probe-and-take polling).

        A tight ``Iprobe``/``Recv`` loop, the receive idiom of
        message-rate-bound codes like GUPS: when the message is already
        queued only the matching/copy cost is paid; otherwise the rank
        spins, paying the profile's ``wait_poll`` per wake instead of the
        full ``sync_enter`` wake-up of a descheduling wait.
        """
        self.counter.operations += 1
        self.counter.syncs += 1
        while True:
            msg = self.engine.take(source, tag)
            if msg is not None:
                if msg.on_match is not None:
                    # Rendezvous RTS: kick off the data phase and wait on it.
                    from repro.comm.matching import PostedRecv

                    ev = self.sim.event()
                    msg.on_match(PostedRecv(source, tag, ev), msg)
                    value = yield ev
                    return value
                delay = self._recv_delay(msg)
                if delay > 0:
                    yield delay
                return (
                    msg.payload,
                    Status(source=msg.src, tag=msg.tag, nbytes=msg.nbytes),
                )
            yield self.engine.on_arrival(), self.costs.wait_poll

    # ------------------------------------------------------------------
    # completion
    # ------------------------------------------------------------------

    def wait(self, req: Request) -> Generator:
        """Block until ``req`` completes; returns its value.

        If the request is already complete only per-request bookkeeping is
        charged; a wait that actually blocks pays ``sync_enter`` on wake-up.
        """
        self.counter.syncs += 1
        self.counter.operations += 1
        if req.done:
            if self.costs.wait_per_req > 0:
                yield self.costs.wait_per_req
            if not req.event.ok:
                # Fault injection: the operation failed before we waited;
                # the loss surfaces here, at the synchronisation point.
                raise req.event.value
            return req.event.value
        value = yield req.event
        wake = self.costs.sync_enter + self.costs.wait_per_req
        if wake > 0:
            yield wake
        return value

    def waitall(self, reqs: list[Request]) -> Generator:
        """Block until every request completes (``MPI_Waitall``).

        Charges ``sync_enter`` once (if any blocking happened) plus
        ``wait_per_req`` per request — one synchronisation amortised over
        the whole batch, the heart of the msg/sync metric.
        """
        self.counter.syncs += 1
        self.counter.operations += 1
        # Already-failed requests (fault injection) are folded back in so
        # the AllOf fails and the loss surfaces at this synchronisation.
        pending = [r.event for r in reqs if not r.done or not r.event.ok]
        blocked = bool(pending)
        if pending:
            yield self.sim.all_of(pending)
        post = self.costs.wait_per_req * len(reqs) + (
            self.costs.sync_enter if blocked else 0.0
        )
        if post > 0:
            yield post
        return [r.event.value for r in reqs]

    # ------------------------------------------------------------------
    # user-implemented receiver notification (paper Listing 1)
    # ------------------------------------------------------------------

    def poll_wait_signals(
        self, signal_win, slots: list[int], expected: int, value: int = 1
    ) -> Generator:
        """Software receiver acknowledgment over a signal window.

        Reproduces the paper's Listing 1: because standard one-sided MPI has
        no signal-waiting primitive, the receiver repeatedly scans a mask
        array of ``len(slots)`` signal words, masking out each slot whose
        signal arrived, until ``expected`` messages are in.  Each scan pass
        is charged ``costs.poll_slot`` per still-unmasked slot — the "extra
        work to maintain data arrival" that stops one-sided SpTRSV from
        scaling at high parallelism.

        Returns the list of slots received, in arrival order.
        """
        if expected > len(slots):
            raise CommError(
                f"expected {expected} signals but only {len(slots)} slots"
            )
        remaining = list(slots)
        received: list[int] = []
        self.counter.syncs += 1
        self.counter.operations += 1
        sig = signal_win.buffers[self.rank]
        hit = True
        while len(received) < expected:
            scan_cost = self.costs.poll_slot * max(len(remaining), 1)
            if not hit:
                # Nothing new last pass: this scan is triggered by the next
                # write landing in the window (busy-poll without progress is
                # pure spin; modelling it as a wake keeps the event count
                # bounded while still charging the scan work per arrival).
                yield signal_win.on_write(self.rank), scan_cost
            elif scan_cost > 0:
                yield scan_cost
            hit = [s for s in remaining if sig[s] >= value]
            for s in hit:
                remaining.remove(s)
                received.append(s)
        return received

    # ------------------------------------------------------------------
    # collectives
    # ------------------------------------------------------------------

    def barrier(self) -> Generator:
        """Dissemination barrier across all ranks of the job: the allreduce
        of nothing."""
        return self.allreduce_sum(0.0)

    def allreduce_sum(self, value: float) -> Generator:
        """Sum a scalar across ranks (recursive-doubling cost model).

        Values are combined centrally for correctness; each rank is charged
        ``ceil(log2 P)`` rounds of small-message exchange after the last
        arrival.
        """
        self.counter.syncs += 1
        self.counter.operations += 1
        return (yield self.job._arrive(value))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RankContext rank={self.rank}/{self.size} on {self.endpoint}>"
