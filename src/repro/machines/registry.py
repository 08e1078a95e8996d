"""Registry of evaluation platforms (the paper's Table I / Table III).

Machines are constructed lazily and fresh on every call — a
:class:`~repro.machines.base.MachineModel` carries mutable route caches and
must not be shared across concurrently running simulations.

This module is the single source of machine lookups: experiment point
runners resolve registry *names* via :func:`get_machine` (projections
included), and the sweep result cache fingerprints a machine's LogGP and
topology parameters via :func:`machine_fingerprint` so recalibrating a
platform invalidates exactly its cached points.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import re
from collections.abc import Callable

from repro.machines.base import MachineModel
from repro.machines.cluster import make_cluster
from repro.machines.frontier import frontier_cpu, frontier_gpu_projection
from repro.machines.perlmutter import perlmutter_cpu, perlmutter_gpu
from repro.machines.summit import summit_cpu, summit_gpu
from repro.net.topology import dragonfly, fat_tree, torus

__all__ = [
    "MACHINES",
    "PROJECTIONS",
    "get_machine",
    "get_topology",
    "machine_fingerprint",
    "machine_names",
    "table1_row",
]

# The five platform views the paper evaluates (Table I).
MACHINES: dict[str, Callable[[], MachineModel]] = {
    "perlmutter-cpu": perlmutter_cpu,
    "perlmutter-gpu": perlmutter_gpu,
    "frontier-cpu": frontier_cpu,
    "summit-cpu": summit_cpu,
    "summit-gpu": summit_gpu,
}

# Platforms the paper names as future work, modelled here as projections;
# excluded from Table I but reachable by name everywhere else.
PROJECTIONS: dict[str, Callable[[], MachineModel]] = {
    "frontier-gpu": frontier_gpu_projection,
}


# Generator expression grammar: "dragonfly(g,r,n)", "fattree(k)",
# "torus(d0,d1,...)".  Cluster name grammar: "{base}-x{N}" is an N-node
# star-switch cluster of the registered node model {base}; an optional
# "@generator(args)" suffix swaps the star for a generated router fabric,
# e.g. "perlmutter-cpu-x8@dragonfly(2,2,2)", "summit-cpu-x4@fattree(4)",
# "frontier-cpu-x4@torus(2,2)".
_GENERATOR = r"(?P<gen>dragonfly|fattree|torus)\((?P<args>\d+(?:,\d+)*)\)"
_GENERATOR_RE = re.compile(rf"^{_GENERATOR}$")
_CLUSTER_RE = re.compile(rf"^(?P<base>.+)-x(?P<n>\d+)(?:@{_GENERATOR})?$")

_GENERATORS: dict[str, Callable[..., object]] = {
    "dragonfly": lambda *a: dragonfly(*a),
    "fattree": lambda *a: fat_tree(*a),
    "torus": lambda *a: torus(a),
}


def _generated(m: re.Match, name: str):
    """The fabric blueprint a matched generator expression builds."""
    args = tuple(int(x) for x in m.group("args").split(","))
    try:
        return _GENERATORS[m.group("gen")](*args)
    except TypeError:
        raise ValueError(
            f"bad generator arity in {name!r}: {m.group('gen')}({m.group('args')})"
        ) from None


def _cluster_from_name(name: str) -> MachineModel | None:
    m = _CLUSTER_RE.match(name)
    if m is None:
        return None
    factory = MACHINES.get(m.group("base")) or PROJECTIONS.get(m.group("base"))
    if factory is None:
        return None
    fabric = _generated(m, name) if m.group("gen") is not None else None
    return make_cluster(factory(), int(m.group("n")), fabric=fabric, name=name)


def get_topology(name: str):
    """The topology of a machine name, or of a bare generator expression
    (``"dragonfly(4,2,2)"``) built without a machine around it."""
    m = _GENERATOR_RE.match(name)
    if m is not None:
        return _generated(m, name).topology
    return get_machine(name).topology


def get_machine(name: str) -> MachineModel:
    """Build a fresh machine model by registry name (incl. projections).

    Beyond the literal registry entries, cluster names compose on the fly:
    ``"{base}-x{N}"`` (star switch) and ``"{base}-x{N}@dragonfly(g,r,n)"`` /
    ``"...@fattree(k)"`` / ``"...@torus(d0,d1,...)"`` (generated fabrics).
    """
    factory = MACHINES.get(name) or PROJECTIONS.get(name)
    if factory is not None:
        return factory()
    cluster = _cluster_from_name(name)
    if cluster is not None:
        return cluster
    raise KeyError(
        f"unknown machine {name!r}; available: "
        f"{sorted(MACHINES) + sorted(PROJECTIONS)} "
        f"(or a cluster name like 'perlmutter-cpu-x4@dragonfly(2,2,2)')"
    )


def machine_names(*, include_projections: bool = False) -> list[str]:
    names = sorted(MACHINES)
    if include_projections:
        names += sorted(PROJECTIONS)
    return names


def table1_row(name: str) -> dict[str, str]:
    """One machine's row of the paper's Table I."""
    m = get_machine(name)
    gpus = f"{len(m.compute_endpoints)}x GPU" if m.is_gpu_machine else "-"
    return {
        "machine": m.name,
        "gpus": gpus,
        "cpus/cores": f"{len(m.compute_endpoints)}x{m.cores_per_endpoint}"
        if not m.is_gpu_machine
        else "host",
        "runtimes": "+".join(sorted(m.runtimes)),
        "links": "; ".join(
            f"{k}: {v}" for k, v in sorted(m.nominal_link_specs.items())
        ),
    }


def machine_fingerprint(name: str) -> str:
    """Hash of everything that shapes a machine's simulated performance.

    Covers the per-runtime software cost tables (the LogGP ``o``
    components), every topology link's wire parameters, injection ports,
    the loopback model, rank capacity, and the compute-rate/GPU
    parameters.  Used by :class:`repro.sweep.cache.ResultCache` so cached
    sweep points go stale the moment a machine model is recalibrated.
    """
    m = get_machine(name)
    topo = m.topology
    payload = {
        "name": m.name,
        "runtimes": {
            k: dataclasses.asdict(v) for k, v in sorted(m.runtimes.items())
        },
        "links": {
            "<->".join(sorted(key)): dataclasses.asdict(params)
            for key, params in topo.links.items()
        },
        "injection": {
            ep: dataclasses.asdict(params)
            for ep, params in sorted(topo.injection.items())
        },
        "loopback": dataclasses.asdict(topo.loopback),
        "compute_endpoints": list(m.compute_endpoints),
        "cores_per_endpoint": m.cores_per_endpoint,
        "mem_bandwidth_per_endpoint": m.mem_bandwidth_per_endpoint,
        "mem_bandwidth_per_core": m.mem_bandwidth_per_core,
        "flop_rate_per_core": m.flop_rate_per_core,
        "gpu": dataclasses.asdict(m.gpu) if m.gpu is not None else None,
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
