"""Resolving hard element faults against a concrete topology.

A :class:`~repro.faults.plan.FaultPlan` names failed *elements* —
routers, nodes, NICs — while the fabric operates on *links*.  This
module bridges the two:

* :func:`element_catalog` classifies a topology's endpoints into the
  three element kinds (using the cluster naming convention: ``n{i}.``
  prefixes mark node-internal endpoints, ``nic*`` suffixes mark NICs,
  everything else at fabric level is a router/switch);
* :func:`resolve_hard_faults` maps every hard fault in a plan to the
  set of topology links it takes down, merging overlapping windows —
  a dead router kills **all** of its attached links atomically, a dead
  node kills every link touching any of its endpoints (internal links
  included), a dead NIC kills just that endpoint's links;
* :func:`validate_element` raises :class:`UnknownElementError` (listing
  the valid names, mirroring ``UnknownBackendError``) — the eager check
  the ``repro flood`` fault flags run before building a plan.  Resolution
  itself is lenient by default so one plan can span machines of
  different scales (an element absent from a topology does not bind
  there, exactly like a ``links`` override for a link that machine
  doesn't have).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.faults.plan import FaultPlan, HardFaults
from repro.net.topology import is_nic, node_of

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.topology import TopologySpec

__all__ = [
    "UnknownElementError",
    "element_catalog",
    "elements_down_at",
    "resolve_hard_faults",
    "validate_element",
]


class UnknownElementError(ValueError):
    """A hard-fault target names an element the topology doesn't have."""

    def __init__(self, kind: str, name: str, valid: tuple[str, ...]):
        self.kind = kind
        self.name = name
        self.valid = tuple(valid)
        if self.valid:
            hint = f"valid {kind}s: {', '.join(self.valid)}"
        else:
            hint = f"this topology has no {kind} elements"
        super().__init__(f"unknown {kind} {name!r}; {hint}")


def element_catalog(
    topology: "TopologySpec", *, compute: tuple[str, ...] = ()
) -> dict[str, tuple[str, ...]]:
    """The named elements of ``topology``, per kind.

    ``compute`` (the machine's compute endpoints) excludes bare-node
    devices like ``cpu0`` from the router list — on a single-node
    machine nothing is a router; on a generated fabric blueprint
    everything is.
    """
    compute_set = set(compute)
    routers: list[str] = []
    nodes: set[str] = set()
    nics: list[str] = []
    for ep in topology.endpoints:
        node = node_of(ep)
        if node != ep:
            nodes.add(node)
        if is_nic(ep):
            nics.append(ep)
        elif node == ep and ep not in compute_set:
            routers.append(ep)
    return {
        "router": tuple(sorted(routers)),
        "node": tuple(sorted(nodes, key=lambda n: int(n[1:]))),
        "nic": tuple(sorted(nics)),
    }


def validate_element(
    topology: "TopologySpec",
    kind: str,
    name: str,
    *,
    compute: tuple[str, ...] = (),
) -> None:
    """Raise :class:`UnknownElementError` unless ``name`` is a ``kind``
    element of ``topology`` (the CLI's eager check)."""
    catalog = element_catalog(topology, compute=compute)
    if kind not in catalog:
        raise ValueError(f"unknown element kind {kind!r}; valid: {sorted(catalog)}")
    if name not in catalog[kind]:
        raise UnknownElementError(kind, name, catalog[kind])


def _element_links(
    topology: "TopologySpec", fault: HardFaults
) -> list[frozenset[str]]:
    """The topology links a dead element takes down (possibly none)."""
    if fault.kind == "node":
        prefix = f"{fault.element}."
        return [
            key for key in topology.links
            if any(ep.startswith(prefix) for ep in key)
        ]
    # Routers and NICs are single endpoints: all incident links.
    return [key for key in topology.links if fault.element in key]


def _merge_windows(
    windows: list[tuple[float, float]],
) -> tuple[tuple[float, float], ...]:
    """Sort and coalesce overlapping/adjacent ``[a, b)`` windows."""
    merged: list[tuple[float, float]] = []
    for a, b in sorted(windows):
        if merged and a <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], b))
        else:
            merged.append((a, b))
    return tuple(merged)


def resolve_hard_faults(
    plan: FaultPlan,
    topology: "TopologySpec",
) -> dict[frozenset[str], tuple[tuple[float, float], ...]]:
    """Map each topology link to its merged hard-outage windows.

    Only links covered by at least one firing hard fault appear in the
    result.  An element the topology doesn't have binds nothing (the plan
    may span machines of different scales).
    """
    out: dict[frozenset[str], list[tuple[float, float]]] = {}
    for hf in plan.hard:
        if hf.clean:
            continue
        for key in _element_links(topology, hf):
            out.setdefault(key, []).extend(hf.windows)
    return {key: _merge_windows(ws) for key, ws in out.items()}


def elements_down_at(plan: FaultPlan, t: float) -> list[HardFaults]:
    """The plan's hard faults whose outage window covers time ``t``
    (the recovery layer's view of "what is dead right now")."""
    return [
        hf
        for hf in plan.hard
        if any(a <= t < b for a, b in hf.windows)
    ]

