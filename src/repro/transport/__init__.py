"""repro.transport — runtime-neutral communication channels.

Write each workload once against the :class:`Endpoint` verbs; pick the
runtime by backend name at ``Job`` construction.  See docs/TRANSPORT.md.
"""

from repro.transport.api import (
    AtomicDomainSpec,
    BackendCaps,
    BatchSpec,
    Channel,
    Endpoint,
    HaloSpec,
    MailboxMsg,
    MailboxSpec,
    SpaceSpec,
    TransportError,
    UnknownBackendError,
    UnsupportedTransportOp,
)
from repro.transport.registry import (
    ONE_SIDED,
    ONE_SIDED_HW,
    SHMEM,
    STREAM_TRIGGERED,
    TWO_SIDED,
    TransportBackend,
    backend_names,
    capabilities,
    get_backend,
    register_backend,
    require,
    _load_builtins,
)

_load_builtins()

__all__ = [
    "TWO_SIDED",
    "ONE_SIDED",
    "SHMEM",
    "ONE_SIDED_HW",
    "STREAM_TRIGGERED",
    "TransportBackend",
    "register_backend",
    "get_backend",
    "backend_names",
    "capabilities",
    "require",
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
]
