"""Compare two result sets of the host-time benchmark.

    python benchmarks/perf/compare.py A.json B.json

Each file is one record written by ``run.py --out`` or a ``history.jsonl``
of several (a *set* of runs); the raw samples of every record in a file
are pooled.  One row per workload x end-to-end metric: both medians with
quartiles, the ratio B/A (base: A), and a verdict from the bounds in
``BENCHMARK.json``:

* ``worse``      — B's median is worse than A's by more than the bound;
* ``unresolved`` — not worse, but the quartile spread of A or B exceeds the
  bound, so "unchanged" cannot be claimed (unless every sample of B reads
  better than every sample of A);
* ``ok``         — otherwise.

Exits non-zero on any ``worse`` and on any decrease of ``pass_frac``.
``sim_digest`` and the exact per-layer counts are compared too when the
seeds match; they are information, not a gate, because a model fix may
legitimately move them.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
_EXACT_UNITS = ("count", "bytes")
_EXACT_SIM_SECONDS = ("sim.makespan_s", "net.link.wait_sim_s")
# Host-dependent counts: import machinery / stdlib calls, scheduler noise.
_NOT_EXACT = ("other.calls", "host.disturbed_reps")


def is_exact(metric: dict) -> bool:
    """Does this per-layer metric repeat exactly for one commit and seed?"""
    name = metric["name"]
    return name not in _NOT_EXACT and (
        metric["unit"] in _EXACT_UNITS or name in _EXACT_SIM_SECONDS
    )


def load(path: str) -> list[dict]:
    text = Path(path).read_text()
    try:
        return [json.loads(text)]
    except json.JSONDecodeError:
        return [json.loads(line) for line in text.splitlines() if line.strip()]


def samples(records: list[dict], workload: str, metric: str) -> list[float]:
    """Raw samples of one end-to-end metric, pooled over the records."""
    out: list[float] = []
    for record in records:
        w = record["workloads"].get(workload)
        if w is None:
            continue
        raw = w["samples"]
        if metric == "ops_per_ref_s":
            out += [w["ops"] / ref for ref in raw["wall_ref_s"]]
        elif metric in raw:
            out += raw[metric]
        elif metric in w["end_to_end"]:
            out.append(w["end_to_end"][metric])
    return out


def summary(values: list[float]) -> tuple[float, float, float]:
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def verdict(metric: dict, a: list[float], b: list[float]) -> str:
    sign = 1.0 if metric["better"] == "lower" else -1.0
    (med_a, q1_a, q3_a), (med_b, q1_b, q3_b) = summary(a), summary(b)
    worsening = sign * (med_b - med_a) / abs(med_a)
    if worsening > metric["bound"] or (metric["name"] == "pass_frac" and worsening > 0):
        return "worse"
    b_always_better = max(sign * v for v in b) < min(sign * v for v in a)
    spread = max((q3_a - q1_a) / abs(med_a), (q3_b - q1_b) / abs(med_b))
    if spread > metric["bound"] and not b_always_better:
        return "unresolved"
    return "ok"


def exact_values(records: list[dict], workload: str) -> dict[int, dict]:
    """seed -> {"sim_digest": ..., <exact per-layer metric>: ...}."""
    exact = [m["name"] for m in SPEC["per_layer"] if is_exact(m)]
    out = {}
    for record in records:
        w = record["workloads"].get(workload)
        if w is None:
            continue
        values = {"sim_digest": w["sim_digest"]}
        if w.get("per_layer"):
            values.update({name: w["per_layer"][name] for name in exact})
        out.setdefault(record["stamp"]["seed"], {}).update(values)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    a_records, b_records = load(argv[0]), load(argv[1])
    print(f"A = {argv[0]} ({len(a_records)} record(s))   B = {argv[1]} ({len(b_records)} record(s))")
    header = (f"{'workload':<20}{'metric':<15}{'A median [q1, q3] n':<40}"
              f"{'B median [q1, q3] n':<40}{'B/A':>8}  verdict")
    print(header)
    bad = 0
    workloads = list(dict.fromkeys(w for r in a_records + b_records for w in r["workloads"]))
    for workload in workloads:
        for metric in SPEC["end_to_end"]:
            a = samples(a_records, workload, metric["name"])
            b = samples(b_records, workload, metric["name"])
            if not a or not b:
                continue
            v = verdict(metric, a, b)
            bad += v == "worse"
            cells = [f"{m:.6g} [{q1:.6g}, {q3:.6g}] n={len(s)}"
                     for s in (a, b) for m, q1, q3 in [summary(s)]]
            ratio = statistics.median(b) / statistics.median(a)
            print(f"{workload:<20}{metric['name']:<15}{cells[0]:<40}{cells[1]:<40}"
                  f"{ratio:>8.4f}  {v}")
        ea, eb = exact_values(a_records, workload), exact_values(b_records, workload)
        for seed in sorted(ea.keys() & eb.keys()):
            shared = ea[seed].keys() & eb[seed].keys()
            moved = sorted(k for k in shared if ea[seed][k] != eb[seed][k])
            print(f"{workload:<20}seed {seed}: {len(shared)} exact value(s) compared, "
                  + (f"DIFFER: {', '.join(moved)}" if moved else "identical"))
    print(f"{bad} worse")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
