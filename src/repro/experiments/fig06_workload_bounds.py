"""Fig. 6 — communication upper bounds of the three workloads on
Perlmutter CPUs.

Places each workload's *measured* communication profile (message sizes and
messages per synchronization, from instrumented runs) on the machine's
Message Roofline.  Checked paper numbers:

* (b) Stencil: one-sided and two-sided converge around 2^16-byte messages;
  the message-size range spans 2^13..2^16 as parallelism grows 128..4;
* (b) SpTRSV at one message per sync: two-sided costs ~3.3 us per sync
  (one op) vs one-sided ~5 us (four ops);
* (c) HashTable: with ~100 msgs/sync the two-sided per-message time is
  ~0.3 us; one-sided sustains one CAS per ~2 us.

The sweep carries one analytic bound point per workload profile plus the
two measured calibration points (a stencil-like flood and a CAS stream).
"""

from __future__ import annotations

from repro.experiments.points import run_point
from repro.experiments.report import ExperimentReport, index
from repro.machines.registry import get_machine
from repro.roofline import WorkloadProfile, bound_workload
from repro.sweep import SweepSpec, run_sweep
from repro.transport import TWO_SIDED, ONE_SIDED

__all__ = ["run_fig06"]

_STENCIL_SIZES = tuple(float(2**k) for k in range(13, 17))

# Profile name -> (workload, sizes, msgs_per_sync, runtime, pattern): the
# pattern is the channel the workload opens, whose endpoint declares the
# op accounting.
_PROFILES = {
    "stencil/two": ("stencil", _STENCIL_SIZES, 4, TWO_SIDED, "halo"),
    "stencil/one": ("stencil", _STENCIL_SIZES, 4, ONE_SIDED, "halo"),
    "sptrsv/two": ("sptrsv", (24.0, 800.0, 1040.0), 1, TWO_SIDED, "mailbox"),
    "sptrsv/one": ("sptrsv", (24.0, 800.0, 1040.0), 1, ONE_SIDED, "mailbox"),
    "hashtable/two": ("hashtable", (24.0,), 100, TWO_SIDED, "atomic"),
}


def _point(params, seed):
    """A profile's analytic bound; the two measured dots are workload runs."""
    if "profile" not in params:
        return run_point(params, seed)
    prof = WorkloadProfile(
        params["workload"],
        tuple(params["sizes"]),
        msgs_per_sync=params["msgs"],
        pattern=params["pattern"],
    )
    wb = bound_workload(get_machine(params["machine"]), params["runtime"], prof)
    return {
        "rows": [dict(r) for r in wb.rows()],
        "time_per_sync": list(wb.time_per_sync),
        # The bound at the profile's largest size and the stencil's 4
        # msgs/sync — the convergence check's operand.
        "bw_at_max_size_n4": float(wb.roofline.bandwidth(max(params["sizes"]), 4)),
    }


def run_fig06(*, iters: int = 2) -> ExperimentReport:
    *bound_points, flood, cas = run_sweep(SweepSpec(
        name="fig06",
        runner=_point,
        points=[
            {"profile": name, "workload": wl, "sizes": list(sizes), "msgs": msgs,
             "runtime": runtime, "pattern": pattern}
            for name, (wl, sizes, msgs, runtime, pattern) in _PROFILES.items()
        ] + [
            {"workload": "flood", "runtime": TWO_SIDED, "size": 2**16, "msgs": 4,
             "iters": iters},
            {"workload": "cas", "runtime": ONE_SIDED},
        ],
        common={"machine": "perlmutter-cpu"},
    ))
    bounds = index(bound_points, "profile")
    stencil_bw = flood.value["bandwidth"]
    cas_lat = cas.value["latency_per_cas"]

    headers = ["profile", "B (bytes)", "msg/sync", "bound GB/s", "us/sync",
               "frac of peak"]
    rows = []
    for name in _PROFILES:
        for row in bounds[name]["rows"]:
            rows.append(
                [
                    name,
                    int(row["message_size_B"]),
                    int(row["msgs_per_sync"]),
                    row["bound_GBps"],
                    row["time_per_sync_us"],
                    row["fraction_of_peak"],
                ]
            )

    # Measured dots to compare against the bounds.
    measured_notes = [
        "measured stencil-like flood (64 KiB x 4/sync): "
        f"{stencil_bw / 1e9:.1f} GB/s",
        f"measured one-sided CAS: {cas_lat * 1e6:.2f} us "
        "(paper: one CAS per ~2 us => 500K GUPS/rank bound)",
    ]

    sptrsv_two_us = bounds["sptrsv/two"]["time_per_sync"][0] * 1e6
    sptrsv_one_us = bounds["sptrsv/one"]["time_per_sync"][0] * 1e6
    ht_msg_us = bounds["hashtable/two"]["time_per_sync"][0] / 100 * 1e6
    two_bw = bounds["stencil/two"]["bw_at_max_size_n4"]
    one_bw = bounds["stencil/one"]["bw_at_max_size_n4"]
    expectations = {
        "sptrsv: two-sided per-sync ~3.3 us": 2.6 <= sptrsv_two_us <= 4.2,
        "sptrsv: one-sided per-sync ~5 us": 4.0 <= sptrsv_one_us <= 6.5,
        "sptrsv: one-sided bound worse than two-sided": sptrsv_one_us > sptrsv_two_us,
        "hashtable: two-sided ~0.3 us/msg at 100 msg/sync": 0.2 <= ht_msg_us <= 0.8,
        "hashtable: one CAS per ~2 us": (
            1.6 <= cas_lat * 1e6 <= 2.6
        ),
        "stencil: variants converge at 2^16 (within 20%)": (
            abs(one_bw / two_bw - 1.0) < 0.2
        ),
    }
    return ExperimentReport(
        experiment="fig06",
        title="Workload communication bounds on Perlmutter CPUs",
        headers=headers,
        rows=rows,
        expectations=expectations,
        notes=measured_notes,
    )
