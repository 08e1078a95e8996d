"""Runtime-neutral transport API: specs, channels, and endpoint verbs.

The paper's central comparison — two-sided MPI vs one-sided MPI RMA vs
GPU-initiated NVSHMEM — maps onto four *communication patterns* that the
workloads use.  Each pattern is described by a declarative spec and served
by a :class:`Channel` over the endpoint class the backend declares for it:

======================  ==============================  ====================
pattern / spec          verbs (on the rank Endpoint)    used by
======================  ==============================  ====================
:class:`HaloSpec`       ``begin / put / finish``        stencil (BSP halos)
:class:`MailboxSpec`    ``expect / send / recv /        SpTRSV (notified
                        drain``                         point-to-point)
                        ``send_round / recv_round``     collectives (round-
                                                        slotted messages)
:class:`BatchSpec`      ``send_batch / wait_batch``     flood (bandwidth)
:class:`AtomicDomainSpec`  ``cas / faa / swap /         hashtable, CAS flood
                        publish / native_cas``
======================  ==============================  ====================

A workload is written *once* against these verbs; the backend chosen by
name (see :mod:`repro.transport.registry`) supplies the op sequence with
the paper-calibrated accounting:

* two-sided: 2 ops per message (``Isend`` + matching receive);
* one-sided MPI: the 4-op emulation — ``Put``, ``Win_flush``,
  ``Put(signal)``, ``Win_flush`` — with the Listing-1 software polling
  receiver;
* NVSHMEM: fused ``put_signal_nbi`` + hardware ``wait_until`` waits.

Verbs are simulation generators: call them with ``yield from`` inside a
rank program.  A verb that is a pure no-op for some backend still yields
zero events, so programs never branch on the backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Mapping, Sequence
from functools import cached_property
from typing import Any

import numpy as np

__all__ = [
    "TransportError",
    "UnknownBackendError",
    "UnsupportedTransportOp",
    "BackendCaps",
    "HaloSpec",
    "MailboxMsg",
    "MailboxSpec",
    "BatchSpec",
    "SpaceSpec",
    "AtomicDomainSpec",
    "Channel",
    "Endpoint",
    "part_bounds",
]


def part_bounds(words: int, parts: int) -> list[tuple[int, int]]:
    """Balanced split of a ``words``-long payload into ``parts`` ranges.

    The canonical stripe partition shared by both sides of a round message
    (collective stripes map to NCCL's multi-ring): part ``s`` gets
    ``words // parts`` elements plus one of the first ``words % parts``
    remainders.  Parts may be empty when ``words < parts``.
    """
    if parts < 1:
        raise ValueError(f"parts must be >= 1, got {parts}")
    base, rem = divmod(words, parts)
    out = []
    lo = 0
    for s in range(parts):
        hi = lo + base + (1 if s < rem else 0)
        out.append((lo, hi))
        lo = hi
    return out


class TransportError(RuntimeError):
    """Base class for transport-layer failures."""


class UnknownBackendError(TransportError, ValueError):
    """Raised for a runtime/backend name that is not registered.

    Carries did-you-mean suggestions: close matches from the registered
    names (typos like ``"stream_trigered"``) are appended to the message.
    """

    def __init__(self, name: str, valid: Sequence[str]):
        import difflib

        self.name = name
        self.valid = tuple(valid)
        self.suggestions = tuple(
            difflib.get_close_matches(name, self.valid, n=2, cutoff=0.5)
        )
        msg = (
            f"unknown runtime backend {name!r}; valid backends: "
            + ", ".join(repr(v) for v in self.valid)
        )
        if self.suggestions:
            msg += " (did you mean " + " or ".join(
                repr(s) for s in self.suggestions
            ) + "?)"
        super().__init__(msg)


class UnsupportedTransportOp(TransportError):
    """A verb the selected backend does not implement for this pattern."""

    def __init__(self, backend: str, op: str):
        super().__init__(f"backend {backend!r} does not support {op}")


@dataclass(frozen=True)
class BackendCaps:
    """What a backend can do natively (programs may branch on these to
    pick an algorithm, never to pick an op sequence).

    Caps are declared once, on the backend class, and queried through
    :func:`repro.transport.capabilities` — selector, IR passes, and the
    CLI branch on these fields, never on backend-name strings.
    """

    remote_atomics: bool = True  # true sender's-control CAS/FAA/swap
    # Paper Table I accounting; ``register_backend`` derives it from the
    # mailbox endpoint's per-message ops.
    ops_per_message: int | None = None
    gpu_initiated: bool = False
    # Halo begin/finish are both a collective fence over the same window
    # (one-sided RMA): back-to-back finish/begin pairs carry no exposure
    # and may collapse (MPI_MODE_NOPRECEDE) — the IR sync-elide pass
    # fires only where this is declared.
    fence_epochs: bool = False
    # Completion is consumed on the device with no host synchronisation
    # call at all (no ``o_sync`` host term): the stream-triggered family.
    host_bypass: bool = False
    # Communication ops are enqueued on an ordered stream behind kernels;
    # epoch-open fences carry no ordering beyond what the stream already
    # guarantees, so sync-elide may drop them (the stream-ordered analogue
    # of ``fence_epochs``).
    stream_ordered: bool = False

    def matches(self, **flags: Any) -> bool:
        """True when every keyword equals the corresponding cap field
        (the predicate primitive behind :func:`repro.transport.require`)."""
        for key, want in flags.items():
            if not hasattr(self, key):
                raise TypeError(f"BackendCaps has no capability {key!r}")
            if getattr(self, key) != want:
                return False
        return True

    def summary(self) -> str:
        """One-line rendering for explain reports and the caps table."""
        bits = [
            f"{self.ops_per_message} op/msg",
            "gpu-initiated" if self.gpu_initiated else "host-driven",
        ]
        if self.fence_epochs:
            bits.append("fence epochs")
        if self.stream_ordered:
            bits.append("stream-ordered")
        if self.host_bypass:
            bits.append("host-bypass (no o_sync)")
        if self.remote_atomics:
            bits.append("remote atomics")
        return ", ".join(bits)


# ---------------------------------------------------------------------------
# pattern specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HaloSpec:
    """BSP halo exchange: every rank swaps fixed strips with its grid
    neighbours each iteration.

    The workload derives it once per program from its own geometry; a
    backend only reads where a strip lands.  ``landing`` is *global*
    (rank-indexed) because one-sided puts target the receiver's window
    layout, which differs from the sender's when blocks are uneven.
    """

    # rank -> {seg: (src, slot, offset, nelems)}, in exchange order: the
    # strip ``src`` puts as ``seg`` lands at ``offset`` of this rank's halo
    # window, ``nelems`` long, announced by signal slot / tag ``slot``.
    landing: Mapping[int, Mapping[str, tuple[int, int, int, int]]]
    # symmetric window allocation (max layout across ranks).
    win_count: int
    dtype: Any = np.float64

    @property
    def itemsize(self) -> int:
        return np.dtype(self.dtype).itemsize

    @cached_property
    def nslots(self) -> int:
        """Signal slots per rank: one past the highest any strip uses."""
        return 1 + max(
            (site[1] for sites in self.landing.values() for site in sites.values()),
            default=0,
        )

    def strips(self, rank: int, buf: np.ndarray, base: int = 0) -> dict:
        """``{seg: view}`` of the strips landed in ``rank``'s halo window
        ``buf``, whose layout starts at ``base``."""
        return {
            seg: buf[base + off : base + off + n]
            for seg, (_, _, off, n) in self.landing[rank].items()
        }


@dataclass(frozen=True)
class MailboxMsg:
    """One expected notified message: a receive slot, its payload length
    in words, and opaque metadata handed back by ``recv``."""

    slot: int
    words: int
    meta: Any = None


@dataclass(frozen=True)
class MailboxSpec:
    """Notified point-to-point messages into pre-planned receive slots
    (SpTRSV's one-message-per-sync pattern)."""

    # Symmetric data window size in words; >= any rank's slot layout.
    data_words: int
    # Symmetric signal window size; >= any rank's expected-message count.
    nslots: int
    # rank -> word offset of each receive slot in its data window.
    offsets: Mapping[int, Sequence[int]]
    dtype: Any = np.float64
    signal_dtype: Any = np.int64
    # Copy payloads out of the data window on recv (execute mode).
    read_data: bool = False

    @cached_property
    def itemsize(self) -> float:
        """Bytes per word: a word is one ``dtype`` element on every backend
        (a float, so the byte counts derived from it stay floats)."""
        return float(np.dtype(self.dtype).itemsize)


@dataclass(frozen=True)
class BatchSpec:
    """Flood batches: n back-to-back messages rank->rank, then one
    synchronisation (the paper's msg/sync axis)."""

    nbytes: int
    dtype: Any = np.float64
    nsignals: int = 4

    def __post_init__(self):
        # Window-backed backends move whole elements: any other size would
        # be truncated on the wire while bandwidth is computed on nbytes.
        item = np.dtype(self.dtype).itemsize
        if self.nbytes < item or self.nbytes % item:
            raise ValueError(
                f"batch nbytes must be a positive multiple of the {item}-byte "
                f"element, got {self.nbytes}"
            )

    @property
    def nelems(self) -> int:
        return int(self.nbytes // np.dtype(self.dtype).itemsize)


@dataclass(frozen=True)
class SpaceSpec:
    """One named symmetric array in an atomic domain."""

    count: int
    dtype: Any = np.int64
    fill: Any = 0


@dataclass(frozen=True)
class AtomicDomainSpec:
    """A set of named symmetric spaces targeted by remote atomics
    (hashtable's table/chain/heap/meta, the CAS flood's counter)."""

    spaces: Mapping[str, SpaceSpec] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# channel / endpoint contract
# ---------------------------------------------------------------------------


class Channel:
    """Per-job communication resources for one pattern: the windows its
    endpoint class asks for (:meth:`Endpoint.windows` — none at all for
    pure two-sided messaging), set as attributes of the channel under the
    names the endpoint reads them by.

    Created by ``Job.channel(spec)`` before the run; each rank program
    derives its :class:`Endpoint` with ``channel.endpoint(ctx)`` at zero
    simulated cost.
    """

    def __init__(self, backend, job, spec, endpoint_cls):
        self.backend = backend
        self.job = job
        self.spec = spec
        self.endpoint_cls = endpoint_cls
        vars(self).update(endpoint_cls.windows(job, spec))

    @property
    def caps(self) -> BackendCaps:
        return self.backend.caps

    def endpoint(self, ctx) -> "Endpoint":
        return self.endpoint_cls(self, ctx)

    def array(self, space: str, rank: int) -> np.ndarray:
        """A rank's backing array of one atomic-domain space, for post-run
        collection (atomic domains only)."""
        if not isinstance(self.spec, AtomicDomainSpec):
            raise UnsupportedTransportOp(self.backend.name, "array()")
        return self.wins[space].local(rank)


def _mailbox_windows(job, spec: MailboxSpec) -> dict:
    """The data window and the signal-slot window of a window-backed
    mailbox (one-sided MPI and the put-with-signal family alike)."""
    return {
        "data_win": job.window(max(spec.data_words, 1), dtype=spec.dtype),
        "sig_win": job.window(max(spec.nslots, 1), dtype=spec.signal_dtype),
    }


def _read_slot(ep, slot: int, words: int) -> np.ndarray | None:
    """A private copy of the ``words`` landed in receive ``slot`` of a
    window-backed mailbox endpoint's own data window (the next message into
    the slot overwrites it); None unless the spec has ``read_data``."""
    if not ep.spec.read_data:
        return None
    rank = ep.ctx.rank
    off = ep.spec.offsets[rank][slot]
    return np.array(ep.data_win.local(rank)[off : off + words], copy=True)


def _space_windows(job, spec: AtomicDomainSpec) -> dict:
    """One symmetric window per named space.  Every backend lays atomic
    domains out this way; they differ only in how a rank updates a remote
    space (owner-routed triplets, native MPI atomics, SHMEM AMOs)."""
    return {
        "wins": {
            name: job.window(s.count, dtype=s.dtype, fill=s.fill)
            for name, s in spec.spaces.items()
        }
    }


class Endpoint:
    """One rank's verbs on a channel.  Subclasses implement the verb set
    matching their channel's spec; everything else raises
    :class:`UnsupportedTransportOp`.

    ``ops`` is the op accounting :meth:`TransportBackend.loggp` prices: the
    :class:`CommCosts` fields one message and one synchronisation cost, in
    issue order — what the verbs must execute (``test_op_accounting.py``).
    """

    ops: tuple[tuple[str, ...], tuple[str, ...]] = ((), ())

    def __init__(self, channel: Channel, ctx):
        self.channel = channel
        self.ctx = ctx
        self.spec = channel.spec

    @staticmethod
    def windows(job, spec) -> dict:
        """``{channel attribute: window}`` — what a channel of this
        endpoint class allocates on ``job`` before the run.  Matching alone
        needs nothing (two-sided)."""
        return {}

    @property
    def caps(self) -> BackendCaps:
        return self.channel.caps

    def _unsupported(self, op: str):
        raise UnsupportedTransportOp(self.channel.backend.name, op)

    # -- halo ----------------------------------------------------------
    def begin(self, it: int):
        self._unsupported("begin")

    def put(self, seg: str, dst: int, values=None):
        self._unsupported("put")

    def finish(self, it: int):
        self._unsupported("finish")

    # -- mailbox -------------------------------------------------------
    def expect(self, msgs: Mapping[int, MailboxMsg]) -> None:
        self._unsupported("expect")

    def send(self, dst: int, slot: int, *, words: int, values=None,
             meta=None, tag: int = 0):
        self._unsupported("send")

    def recv(self):
        self._unsupported("recv")

    def drain(self):
        self._unsupported("drain")

    def send_round(self, dst: int, slot: int, *, words: int, parts: int = 1,
                   values=None):
        """Send one *round message* into the receiver's ``slot``.

        The round-slotted mailbox verbs carry collective algorithms: every
        round of a collective schedule is one logical message per
        (receiver, round), addressed by a globally agreed slot index, so
        concurrent in-flight rounds can never be mismatched (the plain
        ``recv`` verb matches ANY_SOURCE / scans all expected slots and is
        only safe for one-at-a-time patterns like SpTRSV).

        ``parts`` splits the payload into that many concurrent
        sub-messages over :func:`part_bounds` (collective striping, NCCL's
        multi-ring); the receiver's matching :meth:`recv_round` must pass
        the same ``words``/``parts``.  A ``words=0`` message is legal and
        carries only the notification (signal / zero-byte send) — how the
        collectives keep their round structure when chunks are empty.
        """
        self._unsupported("send_round")

    def recv_round(self, src: int, slot: int, *, words: int, parts: int = 1):
        """Block until the round message in ``slot`` (from ``src``) landed;
        returns the payload array when the spec has ``read_data``, else
        None.  Epoch-style wait (one synchronisation per round)."""
        self._unsupported("recv_round")

    # -- batch ---------------------------------------------------------
    def send_batch(self, dst: int, it: int, n: int):
        """Iteration ``it``'s batch: ``n`` back-to-back ``spec.nbytes``
        messages to ``dst``, then the sender-side completion."""
        self._unsupported("send_batch")

    def wait_batch(self, src: int, it: int, n: int):
        self._unsupported("wait_batch")

    # -- atomic domain -------------------------------------------------
    def local(self, space: str) -> np.ndarray:
        self._unsupported("local")

    def cas(self, space: str, dst: int, offset: int, compare: int, value: int):
        self._unsupported("cas")

    def faa(self, space: str, dst: int, offset: int, value: int):
        self._unsupported("faa")

    def swap(self, space: str, dst: int, offset: int, value: int):
        self._unsupported("swap")

    def publish(self, space: str, dst: int, values, *, offset: int = 0):
        self._unsupported("publish")

    def native_cas(self, space: str, dst: int, offset: int, compare: int,
                   value: int):
        self._unsupported("native_cas")

    def cas_stream(self, space: str, dst: int, offset: int,
                   ops: Sequence[tuple[int, int]]):
        """Back-to-back blocking CAS ops on one word (sender's-control
        stream: the Fig. 4 CAS flood, a hashtable insert epoch).

        Semantically identical to looping ``native_cas`` over the
        ``(compare, value)`` pairs — that loop is the default — and
        returns the list of old values.  Window-backed endpoints hand the
        whole stream to :meth:`repro.comm.window.WindowHandle.cas_stream`;
        the stream assumes a passive target for its duration.
        """
        out = []
        for compare, value in ops:
            old = yield from self.native_cas(space, dst, offset, compare, value)
            out.append(old)
        return out

    def post_msg(self, dst: int, *, nbytes: float, payload=None, tag: int = 0):
        self._unsupported("post_msg")

    def recv_msg_poll(self, tag: int = 0):
        self._unsupported("recv_msg_poll")


class _WindowAtomicEndpoint(Endpoint):
    """Native remote atomics on one window per space
    (MPI_Compare_and_swap / MPI_Fetch_and_op, SHMEM AMOs).  The
    CAS/FAA/swap insert sequence is the blocking window verbs on every
    backend (the context supplies the op costs); backends differ only in
    how ``native_cas`` — the Fig. 4 CAS flood's op — completes.
    """

    # A blocking atomic is one message and one synchronisation (the wait's
    # wake-up); its round trip is the caller's to add.
    ops = (("fetch_op",), ("sync_enter",))
    #: True: CAS + ``ctx.wait`` (MPI ``cas_blocking``).  False: the fused
    #: ``shmem_atomic_compare_swap``, which resumes on the response.
    cas_waits = True
    windows = staticmethod(_space_windows)

    def __init__(self, channel, ctx):
        super().__init__(channel, ctx)
        self.h = {name: win.handle(ctx) for name, win in channel.wins.items()}

    def local(self, space):
        return self.channel.wins[space].local(self.ctx.rank)

    # The blocking verbs return the handle's generator: one frame from the
    # program body to the fabric.
    def cas(self, space, dst, offset, compare, value):
        return self.h[space].cas_blocking(dst, offset, compare, value)

    def faa(self, space, dst, offset, value):
        return self.h[space].faa_blocking(dst, offset, value)

    def swap(self, space, dst, offset, value):
        return self.h[space].swap_blocking(dst, offset, value)

    def publish(self, space, dst, values, *, offset=0):
        # flush_local orders the element write before any subsequent op
        # from this origin.
        yield from self.h[space].put(dst, values, offset=offset)
        yield from self.h[space].flush_local(dst)

    def native_cas(self, space, dst, offset, compare, value):
        if self.cas_waits:
            return self.h[space].cas_blocking(dst, offset, compare, value)
        return self.ctx.atomic_compare_swap(
            self.channel.wins[space], dst, offset, compare, value
        )

    def cas_stream(self, space, dst, offset, ops):
        return self.h[space].cas_stream(dst, offset, ops, wait=self.cas_waits)
