"""Fig. 2 — node architectures of the evaluation platforms.

The paper's Fig. 2 diagrams the four node fabrics; here each is regenerated
from the machine models as an edge inventory, and the structural facts the
paper's analysis leans on are asserted:

* (a) Perlmutter CPU: two Milans over IF, NIC on socket 0;
* (b) Frontier: NICs attached behind the GPUs, IF as the on-node bound;
* (c) Summit: the dual-island dumbbell — two fully-connected 3-GPU islands
  bridged only by the CPU X-Bus;
* (d) Perlmutter GPU: four A100s fully connected by NVLink3 port groups.

One sweep point per panel; each point returns its panel's edge rows plus
the panel-local structural facts, and the summary stitches them together.
"""

from __future__ import annotations

from itertools import combinations

from repro.experiments.report import ExperimentReport
from repro.machines.registry import get_machine
from repro.sweep import SweepSpec, run_sweep

__all__ = ["run_fig02"]

_PANELS = (
    ("2a perlmutter-cpu", "perlmutter-cpu"),
    ("2b frontier-cpu", "frontier-cpu"),
    ("2c summit", "summit-gpu"),
    ("2d perlmutter-gpu", "perlmutter-gpu"),
)


def _connected(m, a, b):
    try:
        m.topology.route(a, b)
        return True
    except KeyError:
        return False


def _panel_facts(panel: str, m) -> dict[str, bool]:
    """The paper's structural claims that live entirely inside one panel."""
    if panel.startswith("2a"):
        return {
            "2a: NIC hangs off socket 0": (
                m.topology.route("cpu1", "nic0").hops[0] == ("cpu1", "cpu0")
            ),
        }
    if panel.startswith("2b"):
        return {
            "2b: frontier NICs sit behind the GPUs": all(
                any("gpu" in ep for hop in m.topology.route("numa0", f"nic{i}").hops
                    for ep in hop)
                for i in range(4)
            ),
        }
    if panel.startswith("2c"):
        island0 = [f"gpu{i}" for i in range(3)]
        island1 = [f"gpu{i}" for i in range(3, 6)]
        return {
            "2c: islands internally fully connected": all(
                m.topology.route(a, b).nhops == 1
                for isl in (island0, island1)
                for a, b in combinations(isl, 2)
            ),
            "2c: no direct GPU link across islands": all(
                m.topology.route(a, b).nhops > 1
                for a in island0
                for b in island1
            ),
            "2c: the only bridge is the X-Bus": all(
                ("cpu0", "cpu1") in m.topology.route(a, b).hops
                for a in island0
                for b in island1
            ),
        }
    if panel.startswith("2d"):
        return {
            "2d: A100s fully connected, one hop": all(
                m.topology.route(a, b).nhops == 1
                for a, b in combinations([f"gpu{i}" for i in range(4)], 2)
            ),
            "2d: NVLink3 pair = 100 GB/s over 4 ports": (
                m.topology.link_params("gpu0", "gpu1").bandwidth == 100e9
                and m.topology.link_params("gpu0", "gpu1").channels == 4
            ),
        }
    raise ValueError(f"unknown panel {panel!r}")


def _point(params, seed):
    panel = params["panel"]
    m = get_machine(params["machine"])
    rows = []
    for key, p in sorted(m.topology.links.items(), key=lambda kv: sorted(kv[0])):
        a, b = sorted(key)
        rows.append([panel, p.name, f"{a} <-> {b}", p.bandwidth / 1e9,
                     p.latency * 1e6])
    return {
        "rows": rows,
        "facts": _panel_facts(panel, m),
        "routable": all(
            _connected(m, m.compute_endpoints[0], ep)
            for ep in m.topology.endpoints
        ),
        "describe": m.topology.describe(),
    }


def run_fig02() -> ExperimentReport:
    sweep = run_sweep(SweepSpec(
        name="fig02",
        runner=_point,
        points=[{"panel": panel, "machine": machine} for panel, machine in _PANELS],
    ))
    headers = ["panel", "link", "endpoints", "GB/s/dir", "latency (us)"]
    rows = [row for r in sweep for row in r.value["rows"]]
    expectations: dict[str, bool] = {}
    for r in sweep:
        expectations.update(r.value["facts"])
    expectations["all panels fully routable"] = all(
        r.value["routable"] for r in sweep
    )
    notes = [r.value["describe"] for r in sweep]
    return ExperimentReport(
        experiment="fig02",
        title="Node architectures (regenerated from the machine models)",
        headers=headers,
        rows=rows,
        expectations=expectations,
        notes=notes,
    )
