"""repro.faults — deterministic fault injection for the simulated fabric.

Public surface:

* :class:`FaultPlan` / :class:`LinkFaults` / :class:`RetransmitPolicy` —
  declarative description of link loss, jitter, outages and degradation.
* :class:`RouterFaults` / :class:`NodeFaults` / :class:`NicFaults` —
  hard (fail-stop) faults scoped to topology elements, resolved against
  a concrete fabric by :func:`resolve_hard_faults`.
* :class:`FaultSemantics` — how a runtime reacts to loss (carried by each
  :mod:`repro.transport` backend).
* :func:`inject` / :func:`current_plan` — ambient
  installation of a plan, mirroring :func:`repro.obs.observe`.
* :class:`FaultError` — delivery failure after the retry budget (or a
  partitioned topology under failover routing).
* :class:`UnknownElementError` — a hard-fault target the topology doesn't
  have (raised by the eager :func:`validate_element` check).
"""

from repro.faults.plan import (
    NO_FAULTS,
    FaultError,
    FaultPlan,
    FaultSemantics,
    HardFaults,
    LinkFaults,
    NicFaults,
    NodeFaults,
    RetransmitPolicy,
    RouterFaults,
)
from repro.faults.hard import (
    UnknownElementError,
    element_catalog,
    elements_down_at,
    resolve_hard_faults,
    validate_element,
)
from repro.faults.inject import (
    FaultInjector,
    FaultScope,
    current_plan,
    inject,
)

__all__ = [
    "NO_FAULTS",
    "FaultError",
    "FaultPlan",
    "FaultSemantics",
    "HardFaults",
    "LinkFaults",
    "NicFaults",
    "NodeFaults",
    "RetransmitPolicy",
    "RouterFaults",
    "UnknownElementError",
    "FaultInjector",
    "FaultScope",
    "current_plan",
    "element_catalog",
    "elements_down_at",
    "inject",
    "resolve_hard_faults",
    "validate_element",
]
