"""Per-layer attribution of one traced rep.

The harness wraps the workload body in the stdlib deterministic profiler
(``cProfile``) — nothing inside ``src/`` changes.  Every profiled function
is a span; a layer's self time is the sum of the self times of the
functions whose file lives in that layer.  Built-in / C callees (``heapq``,
numpy, ``isinstance``) have no file: their time is charged to the layer of
the Python function that called them, using the profiler's caller table.
Everything else (stdlib, numpy's Python shims, the harness's own loop)
is ``other``, so the layers sum to the profiled total by construction.
"""

from __future__ import annotations

import cProfile
import functools
from pathlib import Path

import repro

# Layer names are module names below ``repro``; the longest match wins.
LAYERS = (
    "sim.engine", "sim.event", "sim.process",
    "net.fabric", "net.link", "net.routing", "net.topology", "net.congestion",
    "faults", "comm", "transport", "ir", "perf", "collectives", "cluster",
    "workloads", "sweep", "machines", "experiments", "obs",
    "other",
)
_PACKAGE = Path(repro.__file__).resolve().parent
# perf.bulk_calls counts calls that enter these modules from outside perf.
_BULK_MODULES = ("perf.engine", "perf.atomics")


@functools.cache
def _module(filename: str) -> str | None:
    """Dotted module name below ``repro`` for a source file, else None."""
    try:
        rel = Path(filename).resolve().relative_to(_PACKAGE)
    except ValueError:
        return None
    return ".".join(rel.with_suffix("").parts)


def _layer(module: str | None) -> str:
    if module is not None:
        parts = module.split(".")
        for depth in (2, 1):
            name = ".".join(parts[:depth])
            if name in LAYERS:
                return name
    return "other"


def layer_metrics(profile: cProfile.Profile) -> dict[str, float]:
    """``<layer>.self_s`` / ``<layer>.calls`` plus the profile-derived exact
    counts ``sim.events`` and ``perf.bulk_calls``."""
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    events = bulk_calls = 0
    builtin_total = builtin_charged = 0.0

    for entry in profile.getstats():
        if isinstance(entry.code, str):  # built-in: no file, charged via its callers
            builtin_total += entry.inlinetime
            continue
        module = _module(entry.code.co_filename)
        layer = _layer(module)
        self_s[layer] += entry.inlinetime
        calls[layer] += entry.callcount
        if module == "sim.engine" and entry.code.co_qualname == "Simulator.step":
            events = entry.callcount
        for callee in entry.calls or ():
            if isinstance(callee.code, str):
                self_s[layer] += callee.inlinetime
                builtin_charged += callee.inlinetime
            elif layer != "perf" and _module(callee.code.co_filename) in _BULK_MODULES:
                bulk_calls += callee.callcount
    # Built-ins the profiler saw without a Python caller (its own disable()).
    self_s["other"] += builtin_total - builtin_charged

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.calls"] = calls[layer]
    out["sim.events"] = events
    out["perf.bulk_calls"] = bulk_calls
    return out


# obs counter -> per-layer metric name, for the counts the code already keeps.
OBS_COUNTS = {
    "net.fabric.transfers": "net.fabric.messages",
    "net.fabric.bytes": "net.fabric.bytes",
    "net.link.reservations": "net.link_wait_seconds.count",
    "net.link.wait_sim_s": "net.link_wait_seconds.sum",
    "net.congestion.marks": "net.cc.marks",
    "net.congestion.backoffs": "net.cc.backoffs",
    "faults.drops": "faults.drops",
    "faults.retransmits": "faults.retransmits",
    "ir.programs_lowered": "ir.programs.lowered",
    "ir.ops_lowered": "ir.ops.lowered",
    "sweep.points_run": "sweep.points.completed",
    "sweep.cache_hits": "sweep.cache.hits",
    "sweep.cache_misses": "sweep.cache.misses",
}


def obs_counts(snapshot: dict) -> dict[str, float]:
    return {name: snapshot.get(key, 0) for name, key in OBS_COUNTS.items()}
