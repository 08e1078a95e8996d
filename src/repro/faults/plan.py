"""Fault plans: a declarative description of fabric misbehaviour.

The Message Roofline assumes a perfect fabric; a :class:`FaultPlan` states
how a simulated fabric departs from that ideal, per link:

* ``loss`` — probability that one traversal of the link drops the message
  (the sender's retransmission machinery then recovers it, paying the full
  LogGP cost of the retry — see :mod:`repro.net.fabric`);
* ``jitter`` — extra per-traversal latency, uniform on ``[0, jitter)``;
* ``degrade`` — a permanent slowdown factor on the link's per-byte time
  (``2.0`` = the link runs at half bandwidth);
* ``down`` — transient outage windows ``[start, end)`` in simulated
  seconds during which the link accepts no new messages (heads stall at
  the injection port until the window closes).

Everything is deterministic: loss and jitter draws are pure functions of
``(plan.seed, link, message id, attempt)`` — see
:class:`~repro.faults.inject.FaultInjector` — so two runs with the same
plan produce identical schedules, and raising ``loss`` can only delay a
message, never reorder its draws (degradation curves are monotone).

How a *runtime* reacts to loss is described separately by
:class:`FaultSemantics`, a knob each :class:`repro.transport` backend
carries: two-sided MPI retransmits inside the library off a sender-side
ack timer, one-sided MPI only discovers a lost Put at the next
flush/synchronisation (a larger effective detection timeout plus a
re-sync round trip per retry), and NVSHMEM-style transports retry in NIC
hardware.  This is what gives the runtimes genuinely different
degradation shapes in ``repro run degradation``.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field

from repro.util.validation import check_count, check_non_negative, check_positive

__all__ = [
    "FaultError",
    "LinkFaults",
    "HardFaults",
    "RouterFaults",
    "NodeFaults",
    "NicFaults",
    "RetransmitPolicy",
    "FaultSemantics",
    "FaultPlan",
    "NO_FAULTS",
]

class FaultError(RuntimeError):
    """A message could not be delivered within the retransmission budget.

    For library-retransmit runtimes (two-sided MPI) this aborts the job at
    the send, like an MPI communicator error; for one-sided runtimes the
    failure is carried by the operation's completion event and surfaces at
    the next ``flush``/``wait``/``quiet``.
    """


@dataclass(frozen=True)
class LinkFaults:
    """Fault parameters of one link (or the plan-wide default)."""

    loss: float = 0.0  # per-traversal drop probability, [0, 1)
    jitter: float = 0.0  # max extra per-traversal latency (seconds)
    degrade: float = 1.0  # per-byte time multiplier (>= 1)
    down: tuple[tuple[float, float], ...] = ()  # [start, end) outage windows

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss < 1.0:
            raise ValueError(f"loss must be in [0, 1), got {self.loss}")
        check_non_negative("jitter", self.jitter)
        if not 1.0 <= self.degrade < math.inf:
            raise ValueError(f"degrade must be finite and >= 1, got {self.degrade}")
        windows = tuple(sorted((float(a), float(b)) for a, b in self.down))
        for a, b in windows:
            if not 0.0 <= a < b:
                raise ValueError(f"down window [{a}, {b}) is not a valid interval")
        object.__setattr__(self, "down", windows)

    @property
    def clean(self) -> bool:
        """True when this link behaves perfectly (no sampling needed)."""
        return (
            self.loss == 0.0
            and self.jitter == 0.0
            and self.degrade == 1.0
            and not self.down
        )


NO_FAULTS = LinkFaults()


@dataclass(frozen=True)
class HardFaults:
    """Fail-stop windows on one named topology *element* (not a link).

    During each ``[fail_at, recover_at)`` window the element is dead:
    every link attached to it drops every message atomically (a dead
    router takes down all its ports at once).  ``recover_at`` may be
    ``float("inf")`` for an element that never comes back.  Unlike the
    soft :class:`LinkFaults` knobs, hard faults are not sampled — the
    windows themselves are the whole behaviour, so two runs with the
    same plan replay identically by construction.

    Subclasses name the element kind the plan resolver binds against a
    topology: :class:`RouterFaults` (switch/router endpoints),
    :class:`NodeFaults` (a whole ``n{i}`` node and everything inside
    it), :class:`NicFaults` (one NIC endpoint).
    """

    element: str
    windows: tuple[tuple[float, float], ...] = ()

    kind = "element"

    def __post_init__(self) -> None:
        if not self.element or not isinstance(self.element, str):
            raise ValueError(f"element must be a non-empty name, got {self.element!r}")
        windows = tuple(sorted((float(a), float(b)) for a, b in self.windows))
        for a, b in windows:
            if not 0.0 <= a < b:
                raise ValueError(
                    f"hard-fault window [{a}, {b}) is not a valid interval"
                )
        object.__setattr__(self, "windows", windows)

    @property
    def clean(self) -> bool:
        """True when this element never actually fails."""
        return not self.windows


@dataclass(frozen=True)
class RouterFaults(HardFaults):
    """Hard failure of one switch/router (all attached links die)."""

    kind = "router"


@dataclass(frozen=True)
class NodeFaults(HardFaults):
    """Hard failure of one whole node (``n{i}``): every link touching
    any of the node's endpoints dies, including node-internal links."""

    kind = "node"


@dataclass(frozen=True)
class NicFaults(HardFaults):
    """Hard failure of one NIC endpoint (its cable and on-node links die;
    the rest of the node keeps computing)."""

    kind = "nic"


@dataclass(frozen=True)
class RetransmitPolicy:
    """How lost messages are recovered.

    Attempt ``k`` (0-based) of a message that was dropped is detected
    ``timeout * backoff**k`` after its injection started (scaled by the
    runtime's :attr:`FaultSemantics.detect_scale`), and the next attempt
    re-enters the fabric then — re-paying injection serialisation, link
    occupancy and latency in full.  After ``max_retries`` failed retries
    the transfer gives up and raises/fails with :class:`FaultError`.
    """

    timeout: float = 20e-6  # base detection timeout (seconds)
    backoff: float = 2.0  # exponential backoff factor
    max_retries: int = 8  # retries after the first attempt

    def __post_init__(self) -> None:
        check_positive("timeout", self.timeout)
        if not 1.0 <= self.backoff < math.inf:
            raise ValueError(f"backoff must be finite and >= 1, got {self.backoff}")
        check_count("max_retries", self.max_retries, 0)


@dataclass(frozen=True)
class FaultSemantics:
    """How one runtime experiences and recovers from message loss.

    Attributes:
        mode: ``"abort"`` — exhaustion of the retry budget raises
            :class:`FaultError` at the send (library-internal recovery,
            MPI-style job abort on catastrophic loss); ``"surface"`` —
            the operation's completion event *fails* instead, and the
            error reaches the program at the next flush/wait/quiet.
        detect_scale: multiplies :attr:`RetransmitPolicy.timeout` — how
            quickly this runtime notices a lost message.  A sender-side
            ack timer (two-sided) detects at 1x; one-sided MPI discovers
            loss only at the synchronisation point (4x); hardware NIC
            retry (NVSHMEM) reacts fastest (0.5x).
        resync_penalty: when True, every retry also pays one extra round
            trip of route latency — the origin must re-synchronise its
            window state before re-issuing (the one-sided flush dance).
    """

    mode: str = "abort"
    detect_scale: float = 1.0
    resync_penalty: bool = False

    def __post_init__(self) -> None:
        if self.mode not in ("abort", "surface"):
            raise ValueError(f"mode must be 'abort' or 'surface', got {self.mode!r}")
        check_positive("detect_scale", self.detect_scale)


def _normalize_links(
    links: Mapping[tuple[str, str], LinkFaults],
) -> dict[frozenset[str], LinkFaults]:
    out: dict[frozenset[str], LinkFaults] = {}
    for pair, lf in links.items():
        a, b = pair
        key = frozenset((a, b))
        if key in out:
            raise ValueError(f"duplicate link override for {a!r}<->{b!r}")
        out[key] = lf
    return out


@dataclass(frozen=True)
class FaultPlan:
    """A seed-reproducible description of every fault in one run.

    ``default`` applies to every topology link; ``links`` overrides it for
    specific unordered endpoint pairs (``{("cpu0", "cpu1"): LinkFaults(...)}``).
    Loopback (``src == dst``) transfers never traverse a link and are
    unaffected.  ``seed`` namespaces all loss/jitter draws.

    ``hard`` lists fail-stop element faults (:class:`RouterFaults` /
    :class:`NodeFaults` / :class:`NicFaults`); they are resolved against
    the concrete topology when a fabric is built (see
    :func:`repro.faults.resolve_hard_faults`) — elements absent from a
    given topology simply do not bind there, so one plan can span
    machines of different scales.
    """

    seed: int = 0
    default: LinkFaults = NO_FAULTS
    links: Mapping[tuple[str, str], LinkFaults] = field(default_factory=dict)
    retransmit: RetransmitPolicy = RetransmitPolicy()
    hard: tuple[HardFaults, ...] = ()

    def __post_init__(self) -> None:
        check_count("seed", self.seed, 0)
        object.__setattr__(self, "links", _normalize_links(dict(self.links)))
        hard = tuple(self.hard)
        seen: set[tuple[str, str]] = set()
        for hf in hard:
            if not isinstance(hf, HardFaults):
                raise ValueError(
                    f"hard entries must be RouterFaults/NodeFaults/NicFaults, "
                    f"got {hf!r}"
                )
            key = (hf.kind, hf.element)
            if key in seen:
                raise ValueError(
                    f"duplicate hard fault for {hf.kind} {hf.element!r}"
                )
            seen.add(key)
        object.__setattr__(self, "hard", hard)

    @classmethod
    def uniform(
        cls,
        *,
        loss: float = 0.0,
        jitter: float = 0.0,
        degrade: float = 1.0,
        down: tuple[tuple[float, float], ...] = (),
        seed: int = 0,
        timeout: float = 20e-6,
        backoff: float = 2.0,
        max_retries: int = 8,
        hard: tuple[HardFaults, ...] = (),
    ) -> "FaultPlan":
        """The common case: the same faults on every link."""
        return cls(
            seed=seed,
            default=LinkFaults(loss=loss, jitter=jitter, degrade=degrade, down=down),
            retransmit=RetransmitPolicy(
                timeout=timeout, backoff=backoff, max_retries=max_retries
            ),
            hard=hard,
        )

    def fingerprint(self) -> dict:
        """Canonical JSON-able form: what a sweep cache key says of a plan."""
        return {
            "seed": self.seed,
            "default": asdict(self.default),
            "links": {
                "|".join(sorted(pair)): asdict(lf) for pair, lf in self.links.items()
            },
            "retransmit": asdict(self.retransmit),
            "hard": sorted([hf.kind, hf.element, hf.windows] for hf in self.hard),
        }

    def for_link(self, a: str, b: str) -> LinkFaults:
        """The fault parameters governing the (unordered) link ``a<->b``.

        Cluster machines prefix node-internal endpoints with ``n{i}.``
        (``n3.cpu0``), so a per-link override written against the bare
        node model (``("cpu0", "cpu1")``) also binds every node's copy of
        that link: when both endpoints carry the *same* node prefix and
        no exact override exists, the lookup retries with the prefix
        stripped.
        """
        lf = self.links.get(frozenset((a, b)))
        if lf is not None:
            return lf
        if self.links:
            from repro.net.topology import node_of  # repro.net imports this module

            node = node_of(a)
            if node != a and node_of(b) == node != b:
                cut = len(node) + 1
                lf = self.links.get(frozenset((a[cut:], b[cut:])))
                if lf is not None:
                    return lf
        return self.default

    @property
    def clean(self) -> bool:
        """True when no link in this plan can misbehave and no element
        ever hard-fails."""
        return (
            self.default.clean
            and all(lf.clean for lf in self.links.values())
            and all(hf.clean for hf in self.hard)
        )
