"""Layered host-time benchmark: one command, seven workloads.

    python benchmarks/perf/run.py                    # every workload, end to end
    python benchmarks/perf/run.py --trace --reps 5   # + the per-layer profile
    python benchmarks/perf/run.py --workload fabric_clean --seed 7 --seconds 25 --trace 0

Each workload runs in its own fresh interpreter (this file, re-invoked
with ``--worker``), one at a time, so peaks in RSS do not leak across
workloads and ``setup_s`` includes ``import repro``.  All timings are host
time; the end-to-end ones are *reference seconds* (``refclock.py``: raw
seconds divided by the host's slowdown at that moment), the traced ones raw.
Simulated quantities are exact and used only as digests and counts.
See README.md in this directory for every metric's definition.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import compare  # sibling module: the declared metrics and the quartile summary
from refclock import RefClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = compare.SPEC
# Every workload of the harness, in the order a full run takes them.  The
# driver's time cap holds four of them at a steady run length; BENCHMARK.json
# declares those (see README.md, "What the driver runs").
WORKLOAD_NAMES = ("paper_suite", "fabric_clean", "fabric_adaptive_cc", "fabric_faulty",
                  "bulk_epoch", "cluster_step", "sweep_grid")
RESULTS = HERE / "results"

DEFAULT_SEED = 20230
DEFAULT_REPS = 5
MIN_REPS = 3  # floor when --seconds decides the rep count
# A rep whose wall exceeds its CPU time by more than this was descheduled.
DISTURBED_RATIO = 1.05
MAX_EXTRA_REPS = 2
# Set-ups measured per workload, each a fresh interpreter (one under --smoke).
SETUP_SAMPLES = 3


class WorkerError(RuntimeError):
    """A worker interpreter died or reported nothing."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", metavar="NAME",
                   help="run only this workload (repeatable)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--reps", type=int,
                   help=f"timed reps per workload (default {DEFAULT_REPS}; 1 with --trace)")
    p.add_argument("--seconds", type=float,
                   help=f"take timed reps for this many seconds (floor {MIN_REPS} reps)")
    p.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
                   help="add one traced rep and report the per-layer metrics")
    p.add_argument("--smoke", action="store_true",
                   help="op counts / 50; paper_suite runs the five golden experiments")
    p.add_argument("--record", action="store_true",
                   help="append the record to results/history.jsonl")
    p.add_argument("--out", type=Path, default=RESULTS / "latest.json")
    p.add_argument("--inject-failure", action="store_true",
                   help="add one failing check per workload (tests the failure path)")
    p.add_argument("--worker", metavar="NAME", help=argparse.SUPPRESS)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    unknown = [w for w in args.workload or () if w not in WORKLOAD_NAMES]
    if unknown:
        p.error(f"unknown workload {', '.join(unknown)}; valid: {', '.join(WORKLOAD_NAMES)}")
    if args.reps is not None and args.reps < 1:
        p.error("--reps must be >= 1")
    return args


# -- worker: one workload in a fresh interpreter ------------------------------


def worker_main(args) -> int:
    entered = time.monotonic()
    with RefClock() as clock:
        begin = time.perf_counter()
        if str(ROOT / "src") not in sys.path:
            sys.path.insert(0, str(ROOT / "src"))
        import workloads

        workload = workloads.WORKLOADS[args.worker](args.seed)
        ready = time.perf_counter()
    # The parent's clock and this one are the same CLOCK_MONOTONIC.  The
    # stretch before the reference clock ran (interpreter start, this file's
    # imports) is scaled by the slowdown of the stretch after it.
    ref, raw, _ = clock.split(begin, ready)
    spawn_to_ready = (entered - args.spawned_at) + raw
    setup = {"setup_s": spawn_to_ready * ref / raw, "setup_raw_s": spawn_to_ready}
    print("READY " + json.dumps(setup), flush=True)
    if args.setup_only:
        return 0
    print("RESULT " + json.dumps(measure(workload, args, clock)), flush=True)
    return 0


def _planned_reps(workload, args) -> int | None:
    """Fixed rep count, or None when --seconds decides as reps complete."""
    if workload.cold_single_rep:
        return 1
    if args.reps is not None:
        return args.reps
    if args.trace:
        return 1
    return None if args.seconds is not None else DEFAULT_REPS


def measure(workload, args, clock: RefClock) -> dict:
    sizes = workload.SMOKE if args.smoke else workload.FULL
    ops = workload.ops(sizes)
    planned = _planned_reps(workload, args)
    checks: list[tuple[str, bool]] = []
    refs, walls, cpus, digests = [], [], [], []
    disturbed = raised = 0
    peak_rss_mb = per_layer = None

    def more_reps_wanted() -> bool:
        if planned is not None:
            return len(walls) < planned
        if len(walls) < MIN_REPS:
            return True
        elapsed = time.perf_counter() - started  # prepare and discarded reps too
        return elapsed + elapsed / len(walls) <= args.seconds

    try:
        with clock:
            if not workload.cold_single_rep:
                warm = workload.prepare(workload.SMOKE)
                workload.body(warm)
                workload.finish(warm)
            started = time.perf_counter()
            extra = 0
            while more_reps_wanted():
                fresh = workload.prepare(sizes)
                gc.collect()
                try:
                    cpu0, t0 = time.process_time(), time.perf_counter()
                    out = workload.body(fresh)
                    t1, cpu1 = time.perf_counter(), time.process_time()
                finally:
                    workload.finish(fresh)
                ref, wall, calibration_cpu = clock.split(t0, t1)
                cpu = cpu1 - cpu0 - calibration_cpu
                if wall > DISTURBED_RATIO * cpu:
                    disturbed += 1
                    if extra < MAX_EXTRA_REPS and not workload.cold_single_rep:
                        extra += 1
                        continue  # descheduled: discard and run it again
                refs.append(ref)
                walls.append(wall)
                cpus.append(cpu)
                digests.append(hashlib.sha256(workload.digest(out)).hexdigest())
                checks += workload.checks(sizes, out)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        checks += [(f"rep{i}:digest_equals_rep0", d == digests[0])
                   for i, d in enumerate(digests) if i]
        checks += workload.final_checks(sizes)
        if args.trace:
            per_layer, traced_digest = traced_rep(
                workload, sizes, statistics.median(refs), statistics.median(walls),
                statistics.median(cpus), disturbed,
            )
            checks.append(("traced_digest_equals_rep0", traced_digest == digests[0]))
    except Exception:
        traceback.print_exc()
        raised = 1
    if args.inject_failure:
        checks.append(("injected_failure", False))

    return {
        "ops": ops,
        "op_unit": workload.op_unit,
        "samples": {"wall_ref_s": refs, "wall_s": walls, "cpu_s": cpus},
        "peak_rss_mb": peak_rss_mb,
        "disturbed_reps": disturbed,
        "sim_digest": digests[0] if digests else None,
        "attempted": ops * (len(walls) + raised) + len(checks),
        "failed": ops * raised + sum(not ok for _, ok in checks),
        "failed_checks": [name for name, ok in checks if not ok] + ["raised"] * raised,
        "per_layer": per_layer,
    }


def traced_rep(workload, sizes, ref, wall, cpu, disturbed) -> tuple[dict, str]:
    """One rep under cProfile inside a metrics-only obs session (tracer off,
    so the bulk engine takes the same path as in the timed reps), with the
    reference clock off.  ``ref``, ``wall`` and ``cpu`` are the untraced
    medians the ratios are taken against (reference, raw and CPU seconds).
    Returns the per-layer metrics and the rep's sim digest."""
    import layers
    from repro import obs

    profile = cProfile.Profile()
    with obs.observe(obs.Obs()) as session:
        fresh = workload.prepare(sizes, session.metrics)
        gc.collect()
        try:
            t0 = time.perf_counter()
            profile.enable()
            out = workload.body(fresh)
            profile.disable()
            total = time.perf_counter() - t0
        finally:
            workload.finish(fresh)
    snapshot = session.metrics.snapshot()

    metrics = layers.layer_metrics(profile)
    metrics.update(layers.obs_counts(snapshot))
    metrics["net.routing.detours"] = 0
    metrics.update(workload.counts(out))
    metrics["sim.makespan_s"] = workload.makespan(out, snapshot)
    metrics["trace.total_s"] = total
    metrics["trace.overhead_ratio"] = total / wall
    metrics["host.wall_s"] = wall
    metrics["host.cpu_s"] = cpu
    metrics["host.slowdown"] = wall / ref
    metrics["host.disturbed_reps"] = disturbed
    for name, count in (("host.us_per_event", metrics["sim.events"]),
                        ("host.us_per_transfer", metrics["net.fabric.transfers"])):
        metrics[name] = 1e6 * ref / count if count else 0.0
    declared = {m["name"]: metrics[m["name"]] for m in SPEC["per_layer"]}
    return declared, hashlib.sha256(workload.digest(out)).hexdigest()


# -- orchestrator -------------------------------------------------------------


def run_workload(name: str, args) -> dict:
    """Set-up samples plus one measuring worker, each a fresh interpreter."""
    base = [sys.executable, str(HERE / "run.py"), "--worker", name, "--seed", str(args.seed)]
    flags = ["--trace", str(args.trace)]
    if args.reps is not None:
        flags += ["--reps", str(args.reps)]
    if args.seconds is not None:
        flags += ["--seconds", str(args.seconds)]
    flags += ["--smoke"] * args.smoke + ["--inject-failure"] * args.inject_failure

    n_setups = 1 if args.smoke else SETUP_SAMPLES
    setups = [_spawn(base + ["--setup-only"])[0] for _ in range(n_setups - 1)]
    setup, result = _spawn(base + flags)
    setups.append(setup)
    if result is None:
        raise WorkerError(f"worker for {name} produced no result")
    for key in setup:
        result["samples"][key] = [s[key] for s in setups]
    return result


def _spawn(cmd) -> tuple[dict, dict | None]:
    """Run one worker; return (its set-up seconds, spawn to inputs ready,
    as the worker measured them against the reference clock; its result)."""
    cmd = cmd + ["--spawned-at", repr(time.monotonic())]
    # A fixed string-hash seed: dict and set layout, and with them a percent or
    # two of speed, would otherwise differ from one interpreter to the next.
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    setup = result = None
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env) as proc:
        for line in proc.stdout:
            if setup is None and line.startswith("READY "):
                setup = json.loads(line[len("READY "):])
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
    if proc.returncode != 0 or setup is None:
        raise WorkerError(f"worker failed (exit {proc.returncode}): {' '.join(cmd)}")
    return setup, result


def end_to_end(result: dict) -> dict[str, float]:
    samples = result["samples"]
    metrics = {}
    if result["peak_rss_mb"] is not None:  # None when a rep raised: only pass_frac then
        ref = statistics.median(samples["wall_ref_s"])
        metrics = {
            "setup_s": statistics.median(samples["setup_s"]),
            "wall_ref_s": ref,
            "ops_per_ref_s": result["ops"] / ref,
            "peak_rss_mb": result["peak_rss_mb"],
        }
    metrics["pass_frac"] = 1.0 - result["failed"] / result["attempted"]
    return metrics


def stamp(args) -> dict:
    commit, dirty = "unknown", None
    if (ROOT / ".git").exists():  # the driver's checkout is not a repository
        def git(*a):
            return subprocess.run(["git", "-C", str(ROOT), *a], capture_output=True,
                                  text=True, check=False).stdout.strip()
        commit, dirty = git("rev-parse", "HEAD") or "unknown", bool(git("status", "--porcelain"))
    cpu_model = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "commit": commit, "dirty": dirty,
        "python": platform.python_version(), "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(), "cpu_model": cpu_model,
        "seed": args.seed, "reps": args.reps, "seconds": args.seconds,
        "smoke": args.smoke, "trace": bool(args.trace),
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def print_workload(name: str, result: dict) -> None:
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    n = len(result["samples"]["wall_s"])
    print(f"\n{name}: {result['ops']} {result['op_unit']} per rep, {n} timed rep(s)")
    for metric, value in result["end_to_end"].items():
        line = f"  {metric:<24} {value:>16.6g} {units[metric]}"
        samples = result["samples"].get(metric)
        if samples:
            _, q1, q3 = compare.summary(samples)
            line += f"   n={len(samples)} q1={q1:.6g} q3={q3:.6g}"
        print(line)
    if result["samples"]["wall_s"]:
        raw = statistics.median(result["samples"]["wall_s"])
        slowdown = raw / statistics.median(result["samples"]["wall_ref_s"])
        print(f"  {'(raw wall_s)':<24} {raw:>16.6g} s   host slowdown {slowdown:.3f}, "
              f"raw setup_s {statistics.median(result['samples']['setup_raw_s']):.6g}")
    print(f"  {'checks':<24} {result['attempted']} attempted, {result['failed']} failed"
          + (f": {', '.join(result['failed_checks'][:5])}" if result["failed"] else ""))
    print(f"  {'sim_digest':<24} {result['sim_digest']}")
    for metric, value in (result["per_layer"] or {}).items():
        print(f"  {metric:<24} {value:>16.6g} {units[metric]}")


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.worker:
        return worker_main(args)

    names = args.workload or list(WORKLOAD_NAMES)
    results = {}
    for name in names:
        try:
            result = run_workload(name, args)
        except WorkerError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        result["end_to_end"] = end_to_end(result)
        print_workload(name, result)
        results[name] = result
    record = {"stamp": stamp(args), "workloads": results}

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    if args.record:
        with (RESULTS / "history.jsonl").open("a") as f:
            f.write(json.dumps(record) + "\n")
    print(f"\nwrote {args.out}")

    failed = sum(r["failed"] for r in results.values())
    result = results[names[0]]
    declared = SPEC["per_layer"] if args.trace else SPEC["end_to_end"]
    values = result["per_layer"] if args.trace else result["end_to_end"]
    if len(names) == 1 and values and all(m["name"] in values for m in declared):
        # The driver's contract: the last line is one JSON object.
        print(json.dumps({
            "correct": failed == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in declared},
        }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
