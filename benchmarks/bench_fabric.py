"""Benchmark the routed fabric: transfer throughput and layer contracts.

Drives a bully-loaded dragonfly fabric with adaptive routing + congestion
control and measures wall-clock routed transfers per second; writes
``benchmarks/output/BENCH_fabric.json``.  Gates:

* minimal-routing parity — a fabric built with ``routing="minimal"``
  produces bit-identical arrivals to the no-policy default (the
  golden-pinned path);
* adaptive routing detours under load (some decision leaves the minimal
  hops) and still replays bit-identically from the same schedule;
* congestion control engages (marks > 0) and backs off (rate < 1) under
  the flood;
* routed-transfer throughput stays useful (absolute floor here; host time
  is measured by ``benchmarks/perf``, workload ``fabric_adaptive_cc``).

Run standalone (``python benchmarks/bench_fabric.py``) or via pytest.
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

from repro.net import AdaptiveRouting, CongestionConfig, Fabric, dragonfly
from repro.sim import Simulator

OUTPUT = pathlib.Path(__file__).parent / "output" / "BENCH_fabric.json"

FABRIC = (4, 4, 1)  # dragonfly(groups, routers_per_group, nodes_per_router)
N_TRANSFERS = 20_000
NBYTES = 65536


def _pairs(topo):
    """A deterministic all-groups traffic pattern over the routers."""
    routers = topo.endpoints
    n = len(routers)
    return [(routers[i % n], routers[(i * 7 + 3) % n]) for i in range(64)]


def _run_schedule(routing, congestion):
    sim = Simulator()
    f = Fabric(
        sim, dragonfly(*FABRIC).topology, routing=routing, congestion=congestion
    )
    pairs = _pairs(f.topology)
    arrivals = []
    detoured = 0
    for i in range(N_TRANSFERS):
        src, dst = pairs[i % len(pairs)]
        if src == dst:
            continue
        d = f.transfer(src, dst, NBYTES)
        arrivals.append(d.arrival)
        if d.route.nhops > f.topology.route(src, dst).nhops:
            detoured += 1
    return f, arrivals, detoured


def _minimal_parity() -> bool:
    _f1, default, _ = _run_schedule(None, None)
    _f2, minimal, _ = _run_schedule("minimal", None)
    return default == minimal  # exact float equality, not approx


def run_bench() -> dict:
    parity = _minimal_parity()

    t0 = time.perf_counter()
    fabric, arrivals, detoured = _run_schedule(
        AdaptiveRouting(candidates=2), CongestionConfig()
    )
    elapsed = time.perf_counter() - t0
    per_sec = len(arrivals) / elapsed

    _f2, replay, _ = _run_schedule(AdaptiveRouting(candidates=2), CongestionConfig())
    deterministic = arrivals == replay

    cc = fabric.cc
    result = {
        "bench": "fabric",
        "fabric": f"dragonfly{FABRIC}",
        "transfers": len(arrivals),
        "nbytes": NBYTES,
        "throughput": {
            "routed_transfers_per_sec": round(per_sec, 1),
            "elapsed_s": round(elapsed, 4),
        },
        "adaptive": {
            "detoured_transfers": detoured,
            "cc_marks": cc.marks,
            "cc_backoffs": cc.backoffs,
        },
        "checks": {
            "minimal_routing_bit_identical_to_default": parity,
            "adaptive_detours_under_load": detoured > 0,
            "adaptive_schedule_deterministic": deterministic,
            "congestion_marks_under_load": cc.marks > 0,
            "congestion_backs_off": any(
                v < 1.0 for k, v in cc.stats().items() if k.startswith("cc.rate.")
            ),
            "throughput_at_least_10k_per_sec": per_sec >= 10_000,
        },
    }
    OUTPUT.parent.mkdir(exist_ok=True)
    OUTPUT.write_text(json.dumps(result, indent=2) + "\n")
    return result


def test_fabric_bench():
    result = run_bench()
    failed = [k for k, ok in result["checks"].items() if not ok]
    assert not failed, f"fabric bench checks failed: {failed} in {result}"


def main() -> int:
    result = run_bench()
    print(json.dumps(result, indent=2))
    print(f"wrote {OUTPUT}")
    return 0 if all(result["checks"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
