"""Backend registry: the single home of runtime names.

Every runtime the repo knows about is a :class:`TransportBackend`
registered here under its name.  ``Job`` resolves the name through
:func:`get_backend`, so the string literals ``"two_sided"``,
``"one_sided"``, ``"shmem"`` (NVSHMEM) and ``"one_sided_hw"`` appear in
exactly one place — import the constants instead of spelling them out.

Adding a runtime is a single file: subclass :class:`TransportBackend`
(usually one of the built-in adapters), give it a ``name`` — the
machine's cost profile it charges, unless it overrides
:meth:`TransportBackend.costs` — and, where its op sequences differ,
entries of the ``endpoints`` table, and call :func:`register_backend`.  No workload code
changes — see ``examples/custom_backend.py``.

The paper's 2 / 4 / 1 op accounting is each endpoint class's ``ops``;
:meth:`TransportBackend.loggp` is where it becomes a LogGP tuple.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping, Sequence
from typing import Any

from repro.faults.plan import FaultSemantics
from repro.net.loggp import LogGPParams
from repro.transport.api import (
    AtomicDomainSpec,
    BackendCaps,
    BatchSpec,
    Channel,
    HaloSpec,
    MailboxSpec,
    TransportError,
    UnknownBackendError,
)

__all__ = [
    "TWO_SIDED",
    "ONE_SIDED",
    "SHMEM",
    "ONE_SIDED_HW",
    "STREAM_TRIGGERED",
    "TransportBackend",
    "op_seconds",
    "pattern_of",
    "register_backend",
    "get_backend",
    "backend_names",
    "capabilities",
    "require",
]

# Canonical runtime names (the CommCosts keys machines are calibrated
# with).  "shmem" is the NVSHMEM GPU-initiated runtime.
TWO_SIDED = "two_sided"
ONE_SIDED = "one_sided"
SHMEM = "shmem"
# Hypothetical CrayMPI with hardware put-with-signal (DESIGN.md ablation
# #3): the 4-op one-sided emulation fused into one op.
ONE_SIDED_HW = "one_sided_hw"
# Stream-triggered, CPU-free communication (ROADMAP item 5): ops are
# enqueued on ordered device streams behind kernels and complete without
# any host synchronisation; costs derive from the machine's host-driven
# profiles plus a device-initiation term (see repro.comm.stream).
STREAM_TRIGGERED = "stream_triggered"

# The communication patterns a backend may serve, and the spec that opens each.
_PATTERNS = {
    "halo": HaloSpec,
    "mailbox": MailboxSpec,
    "batch": BatchSpec,
    "atomic": AtomicDomainSpec,
}

_REGISTRY: dict[str, "TransportBackend"] = {}
_BUILTINS_LOADED = False


def pattern_of(spec: Any) -> str:
    """The pattern name (``halo | mailbox | batch | atomic``) of a channel spec."""
    for pattern, spec_cls in _PATTERNS.items():
        if type(spec) is spec_cls:
            return pattern
    raise TypeError(f"unknown channel spec {type(spec).__name__}")


def op_seconds(costs, ops: Sequence[str]) -> float:
    """CPU seconds of an op sequence under a :class:`CommCosts` table: each
    distinct op's cost times its count (the paper's ops x ``o``)."""
    return sum(
        (ops.count(op) * getattr(costs, op) for op in dict.fromkeys(ops)), 0.0
    )


class TransportBackend:
    """A named runtime adapter: context class + cost profile + the
    ``spec -> endpoint`` table its channels are opened from.

    Class attributes:

    * ``name`` — registry key, ``--runtime`` value and the machine's
      :class:`CommCosts` entry :meth:`costs` charges;
    * ``caps`` — :class:`BackendCaps` programs may branch on
      (``ops_per_message`` is derived at registration);
    * ``endpoints`` — ``{spec class: endpoint class}``, one entry per
      communication pattern the runtime serves: the op sequences are the
      endpoint's verbs, their accounting its ``ops``, the windows its
      ``windows`` hook;
    * ``fault_semantics`` — how this runtime experiences message loss
      under an active :class:`repro.faults.FaultPlan` (detection speed,
      abort-at-send vs surface-at-flush, re-sync penalty per retry).
    """

    name: str = ""
    caps: BackendCaps = BackendCaps()
    description: str = ""
    fault_semantics: FaultSemantics = FaultSemantics()
    endpoints: Mapping[type, type] = {}

    @property
    def context_cls(self):
        from repro.comm.context import RankContext

        return RankContext

    def costs(self, machine):
        """The :class:`CommCosts` this runtime charges on ``machine``: its
        calibrated profile under ``name`` (a KeyError when it has none)."""
        return machine.runtime(self.name)

    # -- channel factory -----------------------------------------------

    def _serving(self, pattern: str) -> type:
        """The endpoint class this backend serves ``pattern`` with."""
        if pattern not in _PATTERNS:
            raise ValueError(
                f"unknown pattern {pattern!r}; valid: {', '.join(_PATTERNS)}"
            )
        endpoint_cls = self.endpoints.get(_PATTERNS[pattern])
        if endpoint_cls is None:
            raise NotImplementedError(
                f"{self.name}: {pattern} channels unsupported"
            )
        return endpoint_cls

    def open(self, job, spec: Any) -> Channel:
        """Allocate the channel resources for ``spec`` on ``job``."""
        return Channel(self, job, spec, self._serving(pattern_of(spec)))

    # -- analytic-model bridge -----------------------------------------

    def ops(self, pattern: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """The ``(per-message, per-sync)`` op names declared by the
        endpoint class that serves ``pattern``."""
        return self._serving(pattern).ops

    def loggp(self, machine, pattern: str, src: int = 0, dst: int = 1, *,
              nranks: int = 2, placement: str = "spread") -> LogGPParams:
        """The ``(L, o, g, G, o_sync)`` of this runtime between two ranks of
        ``machine`` — what the Message Roofline, the collectives selector
        and the IR cost model run on.  ``o`` and ``o_sync`` price the
        pattern's per-message and per-sync ops; a ``flush`` is also a
        remote-completion round trip, stretching ``L`` when every message
        carries it and ``o_sync`` when the synchronisation does.
        """
        per_msg, per_sync = self.ops(pattern)
        costs = self.costs(machine)
        route = machine.topology.route(
            machine.endpoint_of_rank(src, nranks, placement),
            machine.endpoint_of_rank(dst, nranks, placement),
        )
        return LogGPParams(
            L=route.latency * (1.0 + 2.0 * per_msg.count("flush")),
            o=op_seconds(costs, per_msg),
            g=max(route.gap, 0.0),
            G=route.G + costs.copy_per_byte,
            o_sync=op_seconds(costs, per_sync)
            + per_sync.count("flush") * 2.0 * route.latency,
        )


def register_backend(backend: TransportBackend, *, replace: bool = False) -> TransportBackend:
    """Register ``backend`` under ``backend.name``; returns it for chaining.

    A name collision is an error unless ``replace=True``; the diagnostic
    names the incumbent class (and its description) so a double-import or
    an accidental shadowing of a built-in is identifiable from the
    message alone.  ``caps.ops_per_message`` is filled in here from the
    mailbox endpoint's per-message ops; a declared count that disagrees
    with them is an error.
    """
    if not backend.name:
        raise ValueError("backend must define a non-empty name")
    incumbent = _REGISTRY.get(backend.name)
    if incumbent is not None and not replace:
        detail = type(incumbent).__name__
        if incumbent.description:
            detail += f" ({incumbent.description})"
        raise ValueError(
            f"backend name {backend.name!r} is already registered by "
            f"{detail}; pass replace=True to "
            f"{'re-register it' if type(incumbent) is type(backend) else 'shadow it'}"
        )
    mailbox = backend.endpoints.get(MailboxSpec)
    if mailbox is not None:
        per_msg = mailbox.ops[0]
        declared = backend.caps.ops_per_message
        if declared is None:
            backend.caps = dataclasses.replace(
                backend.caps, ops_per_message=len(per_msg)
            )
        elif declared != len(per_msg):
            raise ValueError(
                f"backend {backend.name!r} declares {declared} op/msg but its "
                f"mailbox endpoint issues {len(per_msg)}: {', '.join(per_msg)}"
            )
    _REGISTRY[backend.name] = backend
    return backend


def _load_builtins() -> None:
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    _BUILTINS_LOADED = True
    # Imported lazily so this module stays import-cycle-free: the backend
    # modules pull in comm.context/window/shmem, which must not be loaded
    # just to resolve a name constant.
    from repro.transport import two_sided  # noqa: F401
    from repro.transport import rma  # noqa: F401
    from repro.transport import shmem  # noqa: F401
    from repro.transport import hw  # noqa: F401
    from repro.transport import stream  # noqa: F401


def get_backend(name: str) -> TransportBackend:
    """Resolve a runtime name, with a listing of valid names on miss."""
    _load_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownBackendError(name, backend_names()) from None


def backend_names() -> tuple[str, ...]:
    """All registered runtime names, built-ins first."""
    _load_builtins()
    return tuple(_REGISTRY)


def capabilities() -> dict[str, BackendCaps]:
    """The stable capability table: ``{backend name -> BackendCaps}``.

    This mapping is the *single query surface* for backend capabilities —
    selector annotations, IR passes, and the CLI read caps from here (or
    via ``get_backend(name).caps``, the same objects) instead of
    comparing backend-name strings.  The returned dict is a snapshot;
    mutating it does not affect the registry.
    """
    _load_builtins()
    return {name: backend.caps for name, backend in _REGISTRY.items()}


def require(**flags) -> str:
    """The first registered backend whose caps match every flag, e.g.
    ``require(gpu_initiated=True, host_bypass=True) == STREAM_TRIGGERED`` —
    a name, so it goes wherever a runtime name is taken.  Every qualifying
    backend is ``[n for n, c in capabilities().items() if c.matches(**flags)]``.

    An unknown flag is a ``TypeError``, no flag a ``ValueError``, and no
    qualifier a :class:`TransportError` listing the capability table.
    """
    if not flags:
        raise ValueError("require() needs at least one capability flag")
    table = capabilities()
    for name, caps in table.items():
        if caps.matches(**flags):
            return name
    want = ", ".join(f"{k}={v!r}" for k, v in flags.items())
    listing = "; ".join(
        f"{n}: " + ", ".join(f"{k}={getattr(c, k)!r}" for k in flags)
        for n, c in table.items()
    )
    raise TransportError(
        f"no registered backend satisfies require({want}); capabilities: {listing}"
    )
