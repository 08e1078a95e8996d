"""Tests of the benchmark harness itself (``pytest benchmarks/perf``).

Not part of tier-1 (``testpaths = ["tests"]``): every test drives
``run.py --smoke`` as a subprocess, the way a user or the driver would.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
import compare  # noqa: E402
import run as harness  # noqa: E402

SPEC = compare.SPEC
WORKLOADS = list(harness.WORKLOAD_NAMES)  # all seven; the driver runs DECLARED
DECLARED = [w["name"] for w in SPEC["workloads"]]
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
FABRIC = [w for w in WORKLOADS if w.startswith("fabric_")]

EXACT = [m["name"] for m in SPEC["per_layer"] if compare.is_exact(m)]


def run(tmp: Path, *flags: str, script: Path = HERE / "run.py"):
    """Run the harness; return (completed process, record or None, seconds)."""
    out = tmp / f"record-{time.monotonic_ns()}.json"
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(script), "--smoke", "--out", str(out), *flags],
        capture_output=True, text=True, timeout=600,
    )
    elapsed = time.perf_counter() - t0
    record = json.loads(out.read_text()) if out.exists() else None
    return proc, record, elapsed


@pytest.fixture(scope="module")
def tmp(tmp_path_factory):
    return tmp_path_factory.mktemp("perfbench")


@pytest.fixture(scope="module")
def smoke(tmp):
    return run(tmp, "--seed", "11")


@pytest.fixture(scope="module")
def traced(tmp):
    """Two traced smoke runs with the same seed."""
    return run(tmp, "--seed", "11", "--trace"), run(tmp, "--seed", "11", "--trace", "1")


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/perf"]
    assert len(WORKLOADS) == 7 and len(END_TO_END) == 5 and len(PER_LAYER) <= 128
    assert 2 <= len(DECLARED) <= 8 and set(DECLARED) <= set(WORKLOADS)
    # 4 + 22 runs per workload, each run_seconds plus set-ups, inside 3420 s
    assert (4 + 22 * len(DECLARED)) * (SPEC["run_seconds"] + 8) <= 3420
    names = WORKLOADS + END_TO_END + PER_LAYER
    assert len(set(names)) == len(names)
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
        assert m["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in SPEC["workloads"])


def test_smoke_is_fast_and_emits_every_end_to_end_metric(smoke):
    proc, record, elapsed = smoke
    assert proc.returncode == 0, proc.stderr
    # 30 s on the quiet sandbox: scale by how slow the host was meanwhile, as
    # paper_suite (most of a smoke run) saw it.
    suite = record["workloads"]["paper_suite"]["samples"]
    slowdown = max(1.0, suite["wall_s"][0] / suite["wall_ref_s"][0])
    assert elapsed / slowdown < 30, f"--smoke took {elapsed:.1f} s at slowdown {slowdown:.2f}"
    assert list(record["workloads"]) == WORKLOADS
    for name, w in record["workloads"].items():
        assert list(w["end_to_end"]) == END_TO_END, name
        assert all(v > 0 for v in w["end_to_end"].values()), name
        assert w["end_to_end"]["pass_frac"] == 1.0 and w["failed"] == 0, w["failed_checks"]
        for metric in END_TO_END:  # printed by name with its unit
            assert re.search(rf"^  {re.escape(metric)} +\S+ \S+", proc.stdout, re.M)
    stamp = record["stamp"]
    assert {"commit", "dirty", "python", "numpy", "nproc", "cpu_model", "seed", "reps"} <= set(stamp)


def test_trace_emits_every_per_layer_metric_and_layers_sum_to_total(traced):
    (proc, record, _), _ = traced
    assert proc.returncode == 0, proc.stderr
    for name, w in record["workloads"].items():
        layers = w["per_layer"]
        assert list(layers) == PER_LAYER, name
        total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        assert total == pytest.approx(layers["trace.total_s"], rel=0.02), name
        assert w["failed"] == 0, w["failed_checks"]


def test_layers_land_where_the_workloads_put_them(traced):
    (_, record, _), _ = traced
    layers = {name: w["per_layer"] for name, w in record["workloads"].items()}
    for name in FABRIC:  # no event is ever stepped, nothing is lowered
        assert layers[name]["sim.events"] == 0 and layers[name]["ir.ops_lowered"] == 0
        assert layers[name]["net.fabric.transfers"] == record["workloads"][name]["ops"]
    assert layers["fabric_clean"]["net.routing.calls"] == 0
    assert layers["fabric_adaptive_cc"]["net.routing.self_s"] > 0
    assert layers["fabric_adaptive_cc"]["net.congestion.marks"] > 0
    assert layers["fabric_faulty"]["faults.drops"] > 0
    assert layers["fabric_clean"]["faults.drops"] == 0
    assert layers["bulk_epoch"]["perf.bulk_calls"] > 0
    assert layers["cluster_step"]["perf.bulk_calls"] == 0
    assert layers["cluster_step"]["collectives.self_s"] > 0
    assert layers["cluster_step"]["net.fabric.transfers"] == record["workloads"]["cluster_step"]["ops"]
    sweep = layers["sweep_grid"]
    assert sweep["sweep.points_run"] == record["workloads"]["sweep_grid"]["ops"]
    assert sweep["sweep.cache_hits"] + sweep["sweep.cache_misses"] == sweep["sweep.points_run"]
    assert layers["paper_suite"]["experiments.self_s"] > 0


def test_same_seed_repeats_digests_and_exact_counts(traced):
    (_, a, _), (_, b, _) = traced
    for name in WORKLOADS:
        wa, wb = a["workloads"][name], b["workloads"][name]
        assert wa["sim_digest"] == wb["sim_digest"], name
        moved = [k for k in EXACT if wa["per_layer"][k] != wb["per_layer"][k]]
        assert not moved, (name, moved)


def test_another_seed_moves_fabric_digests_but_not_op_counts(tmp, smoke):
    _, base, _ = smoke
    proc, other, _ = run(tmp, "--seed", "12", *(f for w in FABRIC for f in ("--workload", w)))
    assert proc.returncode == 0, proc.stderr
    assert list(other["workloads"]) == FABRIC
    for name in FABRIC:
        assert other["workloads"][name]["sim_digest"] != base["workloads"][name]["sim_digest"]
        assert other["workloads"][name]["ops"] == base["workloads"][name]["ops"]


def test_failing_check_lowers_pass_frac_and_fails_the_run(tmp):
    proc, record, _ = run(tmp, "--workload", "sweep_grid", "--inject-failure")
    assert proc.returncode != 0
    w = record["workloads"]["sweep_grid"]
    assert w["end_to_end"]["pass_frac"] < 1.0 and w["failed_checks"] == ["injected_failure"]
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is False


def test_unknown_workload_lists_the_valid_names(tmp):
    proc, record, _ = run(tmp, "--workload", "nope")
    assert proc.returncode != 0 and record is None
    assert all(name in proc.stderr for name in WORKLOADS)


@pytest.mark.parametrize("trace,declared", [("0", END_TO_END), ("1", PER_LAYER)])
def test_last_line_is_the_drivers_json_object(tmp, trace, declared):
    proc, _, _ = run(tmp, "--workload", "fabric_faulty", "--seed", "3",
                     "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert list(last["metrics"]) == declared
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for name, m in last["metrics"].items():
        assert set(m) == {"value", "unit"} and m["unit"] == units[name]
        assert isinstance(m["value"], (int, float))


def test_fails_without_a_result_where_the_repo_is_absent(tmp):
    bare = tmp / "bare"
    shutil.copytree(HERE, bare / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__", ".work", "latest*", "history*"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc, record, _ = run(tmp, "--workload", "fabric_clean",
                          script=bare / "benchmarks" / "perf" / "run.py")
    assert proc.returncode != 0 and record is None
    assert not proc.stdout.strip().endswith("}")


def test_compare_verdicts(tmp, smoke, capsys):
    _, record, _ = smoke
    a = tmp / "a.json"
    a.write_text(json.dumps(record))
    assert compare.main([str(a), str(a)]) == 0
    assert " worse" not in capsys.readouterr().out.replace("0 worse", "")

    slower = json.loads(json.dumps(record))
    w = slower["workloads"]["cluster_step"]
    w["samples"]["wall_ref_s"] = [2 * v for v in w["samples"]["wall_ref_s"]]
    b = tmp / "b.jsonl"  # a set of runs: one record per line
    b.write_text(json.dumps(slower) + "\n" + json.dumps(slower) + "\n")
    assert compare.main([str(a), str(b)]) == 1
    rows = [r for r in capsys.readouterr().out.splitlines() if r.startswith("cluster_step")]
    assert [r.split()[-1] for r in rows if " wall_ref_s " in r or " ops_per_ref_s " in r] == ["worse"] * 2

    failing = json.loads(json.dumps(record))
    failing["workloads"]["bulk_epoch"]["end_to_end"]["pass_frac"] = 0.9999
    b.write_text(json.dumps(failing))
    assert compare.main([str(a), str(b)]) == 1


def test_refclock_divides_work_by_the_slowdown_around_it():
    import refclock

    r = refclock.REFERENCE_S
    clock = refclock.RefClock()
    # 200 calibrations 10 ms apart at the reference cost, then 200 at 3x.
    for i in range(400):
        cost = r if i < 200 else 3 * r
        clock.starts.append(0.01 * i)
        clock.ends.append(0.01 * i + cost)
        clock._cpu.append(cost)
    ref, raw, calibration_cpu = clock.split(0.495, 1.005)  # calibrations 50 .. 100
    assert raw == pytest.approx(0.51 - 51 * r) and calibration_cpu == pytest.approx(51 * r)
    assert ref == pytest.approx(raw)
    ref, raw, _ = clock.split(2.995, 3.505)  # calibrations 300 .. 350
    assert raw == pytest.approx(0.51 - 51 * 3 * r) and ref == pytest.approx(raw / 3)
    ref, raw, _ = clock.split(1.5, 2.5)  # across the step: in between
    assert raw / 3 < ref < raw
    # No calibration inside the interval: the ones around it scale it.
    assert clock.split(3.002, 3.004) == pytest.approx((0.002 / 3, 0.002, 0.0))

    with refclock.RefClock() as live:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.1:
            pass
        t1 = time.perf_counter()
    ref, raw, _ = live.split(t0, t1)
    assert len(live.starts) > 5 and 0 < raw < t1 - t0 and ref > 0
