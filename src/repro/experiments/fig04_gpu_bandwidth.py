"""Fig. 4 — NVSHMEM GPU-initiated put-with-signal and atomic CAS bandwidth.

Two panels: Perlmutter GPUs (NVLink3) and Summit GPUs (NVLink2).  Paper
observations reproduced and checked:

* achieved bandwidth rises with messages per synchronization, exactly like
  CPU-initiated communication;
* effective per-message latency falls from ~4 us (n=1) toward ~0.5 us on
  Perlmutter GPUs — "similar to the latency of 5 us to 0.3 us on
  Perlmutter CPUs" — and from ~5 us on Summit GPUs;
* observed GPU bandwidth is much higher than CPU bandwidth (NVLink3 pair
  peak 100 GB/s vs IF 32 GB/s);
* remote atomic CAS: ~0.8 us on Perlmutter GPUs, ~1.0 us within a Summit
  island, ~1.6 us across the Summit sockets.

The flood grid and the three CAS cases ride in one sweep; the CAS points
are explicit (irregular) entries after the regular grid.
"""

from __future__ import annotations

from repro.experiments.points import run_point
from repro.experiments.report import ExperimentReport, index
from repro.sweep import SweepSpec, run_sweep
from repro.transport import SHMEM

__all__ = ["run_fig04"]

_SIZES = (64, 4096, 65536, 1048576)
_NS = (1, 16, 256)
_MACHINES = ("perlmutter-gpu", "summit-gpu")
_CAS_CASES = (
    # label -> (machine, nranks, target_rank)
    ("perlmutter", "perlmutter-gpu", 2, 1),
    ("summit-in-island", "summit-gpu", 2, 1),
    ("summit-cross-socket", "summit-gpu", 6, 3),
)


def run_fig04(*, iters: int = 2) -> ExperimentReport:
    sweep = run_sweep(SweepSpec(
        name="fig04",
        runner=run_point,
        points=[
            {"workload": "flood", "machine": m, "msgs": n, "size": B, "iters": iters}
            for m in _MACHINES
            for n in _NS
            for B in _SIZES
        ] + [
            {"workload": "cas", "label": label, "machine": m, "nranks": nranks,
             "target_rank": target}
            for label, m, nranks, target in _CAS_CASES
        ],
        common={"runtime": SHMEM},
    ))
    flood = index(
        [r for r in sweep if r.params["workload"] == "flood"], "machine", "size", "msgs"
    )
    cas = index([r for r in sweep if r.params["workload"] == "cas"], "label")
    headers = ["machine", "B (bytes)", "msg/sync", "GB/s", "us/msg"]
    rows = [
        [*key, v["bandwidth"] / 1e9, v["latency_per_message"] * 1e6]
        for key, v in flood.items()
    ] + [
        [f"CAS {label}", 8, v["ops"], 0.0, v["latency_per_cas"] * 1e6]
        for label, v in cas.items()
    ]
    lat = {key: v["latency_per_message"] for key, v in flood.items()}
    bw = {key: v["bandwidth"] for key, v in flood.items()}

    p1 = lat[("perlmutter-gpu", 64, 1)] * 1e6
    pn = lat[("perlmutter-gpu", 64, max(_NS))] * 1e6
    s1 = lat[("summit-gpu", 64, 1)] * 1e6
    expectations = {
        "perlmutter: n=1 latency ~4 us": 3.0 <= p1 <= 5.5,
        "perlmutter: high-n latency ~0.5 us": 0.3 <= pn <= 0.8,
        "summit: n=1 latency ~5 us": 4.0 <= s1 <= 6.5,
        "bandwidth rises with msg/sync": (
            bw[("perlmutter-gpu", 65536, 256)] > bw[("perlmutter-gpu", 65536, 1)]
        ),
        "GPU bandwidth exceeds CPU IF peak at high n": (
            bw[("perlmutter-gpu", 1048576, 256)] > 32e9
        ),
        "CAS perlmutter ~0.8 us": 0.6 <= cas["perlmutter"]["latency_per_cas"] * 1e6 <= 1.0,
        "CAS summit in-island ~1.0 us": (
            0.8 <= cas["summit-in-island"]["latency_per_cas"] * 1e6 <= 1.3
        ),
        "CAS summit cross-socket ~1.6 us": (
            1.3 <= cas["summit-cross-socket"]["latency_per_cas"] * 1e6 <= 2.0
        ),
    }
    return ExperimentReport(
        experiment="fig04",
        title="NVSHMEM GPU-initiated put-with-signal and CAS",
        headers=headers,
        rows=rows,
        expectations=expectations,
    )
