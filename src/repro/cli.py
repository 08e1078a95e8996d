"""Command-line interface: run experiments, ablations, and quick tools.

Usage (also via ``python -m repro``):

    repro list                      # available experiments & machines
    repro run fig08                 # run one experiment, print the report
    repro run all --jobs 8          # every figure/table, 8 worker processes
    repro run fig03 --no-cache      # force re-execution of every point
    repro ablation polling          # run one ablation (or 'all')
    repro machines                  # platform inventory (Table I detail)
    repro flood perlmutter-cpu two_sided --nbytes 64KiB --msgs-per-sync 256
    repro flood perlmutter-cpu one_sided --loss 0.05   # faulty vs clean
    repro roofline frontier-cpu one_sided --nbytes 4KiB --msgs-per-sync 100
    repro run fig09 --metrics       # embed the obs metrics snapshot
    repro run table2,fig03 --out reports     # <name>.json + <name>.txt files
    repro trace fig09 --out run.trace.json   # chrome://tracing export
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter

from repro._version import __version__
from repro.faults import NicFaults, NodeFaults, RouterFaults

__all__ = ["main", "build_parser"]

# The hard-fault kinds ``repro flood`` takes as ``--fail-<kind>``.
_HARD_FAULTS = (RouterFaults, NodeFaults, NicFaults)
# ``repro flood``'s fault flags and their defaults: given any one, the point
# also runs under the fault plan they build and is compared to clean.
_FAULT_FLAGS = {
    "loss": 0.0, "jitter_us": 0.0, "degrade": 1.0, "down": (),
    **{f"fail_{cls.kind}": () for cls in _HARD_FAULTS},
    "seed": 0, "timeout_us": 20.0, "max_retries": 8,
}


def _positive_int(text: str) -> int:
    """argparse type for ``--jobs``: a strictly positive integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be >= 1 (got {value}); use 1 for serial execution"
        )
    return value


def _cache_dir(text: str) -> str:
    """argparse type for ``--cache-dir``: a usable directory path.

    The directory itself need not exist (the cache creates it), but the
    path must be non-empty and must not name an existing non-directory.
    """
    import os

    if not text.strip():
        raise argparse.ArgumentTypeError(
            "cache directory must be a non-empty path "
            "(or pass --no-cache to disable caching)"
        )
    if os.path.exists(text) and not os.path.isdir(text):
        raise argparse.ArgumentTypeError(
            f"{text!r} exists and is not a directory"
        )
    return text


def _writable(flag: str, text: str, *, directory: bool) -> bool:
    """Check an output path before any experiment runs: a ``directory`` is
    created, a file must go into an existing directory.  Otherwise one
    stderr line naming ``flag`` and the path, and ``False`` (exit 2)."""
    import pathlib

    path, why = pathlib.Path(text), None
    if not directory:
        if path.is_dir() or not path.parent.is_dir():
            why = "not a file in an existing directory"
    else:
        try:
            path.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            why = exc.strerror or str(exc)
    if why:
        print(f"{flag}: cannot write {text!r}: {why}", file=sys.stderr)
    return why is None


def build_parser() -> argparse.ArgumentParser:
    from repro.experiments.ablations import ALL_ABLATIONS
    from repro.ir.pipeline import _PASSES, DEFAULT_PASSES
    from repro.sweep import DEFAULT_CACHE_DIR
    from repro.transport import backend_names

    p = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Evaluating the Performance of One-sided "
            "Communication on CPUs and GPUs' (SC 2023)"
        ),
    )
    p.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments, ablations and machines")

    runp = sub.add_parser("run", help="run a figure/table experiment")
    runp.add_argument(
        "experiment", help="e.g. fig08, table2, a comma list, or 'all'"
    )
    shape = runp.add_mutually_exclusive_group()
    shape.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    shape.add_argument(
        "--out", metavar="DIR",
        help="write <name>.json and <name>.txt per experiment into DIR "
        "(created if missing) and print one status line each",
    )
    runp.add_argument(
        "--metrics",
        action="store_true",
        help="collect the repro.obs metrics snapshot and embed it in each report",
    )
    runp.add_argument(
        "--jobs", type=_positive_int, default=1, metavar="N",
        help="worker processes for sweep points (default 1 = serial; "
        "results are identical to serial at any N)",
    )
    runp.add_argument(
        "--no-cache", action="store_true",
        help="ignore and do not write the on-disk sweep result cache",
    )
    runp.add_argument(
        "--cache-dir", type=_cache_dir, default=DEFAULT_CACHE_DIR, metavar="DIR",
        help=f"sweep result cache directory (default {DEFAULT_CACHE_DIR!r})",
    )

    tp = sub.add_parser(
        "trace",
        help="run an experiment under tracing; export a Chrome/Perfetto trace",
    )
    tp.add_argument("experiment", help="e.g. fig09")
    tp.add_argument(
        "--out", default="run.trace.json",
        help="Chrome trace-event JSON output path (open in chrome://tracing)",
    )
    tp.add_argument(
        "--sink", choices=["list", "ring", "jsonl"], default="list",
        help="per-job record storage: unbounded list, bounded ring, or "
        "streaming JSONL files",
    )
    tp.add_argument(
        "--capacity", type=int, default=100_000,
        help="ring sink capacity (records kept per job; --sink ring)",
    )
    tp.add_argument(
        "--jsonl-dir", default="trace-jsonl",
        help="directory for per-job JSONL record streams (--sink jsonl)",
    )

    abp = sub.add_parser("ablation", help="run an ablation study")
    abp.add_argument("name", help="|".join([*ALL_ABLATIONS, "all"]))

    sub.add_parser("machines", help="describe the modelled platforms")

    top = sub.add_parser(
        "topo",
        help="summarise a machine/fabric topology (nodes, links, diameter, "
        "bisection bandwidth)",
    )
    top.add_argument(
        "name",
        help="a machine name (incl. cluster grammar like "
        "'perlmutter-cpu-x8@dragonfly(4,2,2)') or a bare generator "
        "like 'dragonfly(4,2,2)', 'fattree(8)', 'torus(4,4)'",
    )
    top.add_argument(
        "--dot", action="store_true",
        help="emit the topology as Graphviz DOT on stdout instead",
    )

    fp = sub.add_parser(
        "flood",
        help="run a flood bandwidth point; given a fault flag, also under "
        "that fault plan, compared to clean",
    )
    _add_point_args(fp)
    fp.add_argument("--iters", type=int, default=3)
    fp.add_argument(
        "--placement", choices=["spread", "block"], default="spread",
        help="rank placement: 'spread' keeps the flood on-node, 'block' "
             "crosses the switched fabric (where hard faults live)",
    )
    fault_flags = fp.add_argument_group(
        "fault flags", "any one runs the point clean and under the plan"
    )
    # No argparse default: a flag is a fault flag only when given.
    quiet = {"default": argparse.SUPPRESS}
    fault_flags.add_argument(
        "--loss", type=float, **quiet,
        help="per-traversal link loss probability in [0, 1) (default 0)",
    )
    fault_flags.add_argument(
        "--jitter-us", type=float, **quiet,
        help="max extra per-traversal latency, microseconds",
    )
    fault_flags.add_argument(
        "--degrade", type=float, **quiet,
        help="per-byte time multiplier on every link (>= 1)",
    )
    fault_flags.add_argument(
        "--down", action="append", metavar="START:END", **quiet,
        help="link outage window in simulated microseconds (repeatable)",
    )
    for cls in _HARD_FAULTS:
        fault_flags.add_argument(
            f"--fail-{cls.kind}", action="append", metavar="NAME[:START:END]",
            **quiet,
            help=f"hard-fail a {cls.kind}, taking down its links (outage "
            "window in simulated microseconds, END may be 'inf'; bare NAME "
            "means dead for the whole run; repeatable)",
        )
    fault_flags.add_argument("--seed", type=int, **quiet, help="fault plan seed")
    fault_flags.add_argument(
        "--timeout-us", type=float, **quiet,
        help="base retransmission detection timeout, microseconds (default 20)",
    )
    fault_flags.add_argument(
        "--max-retries", type=int, **quiet,
        help="retries per message before the transfer fails (default 8)",
    )

    rp = sub.add_parser("roofline", help="query the analytic bound")
    _add_point_args(rp)

    from repro.collectives.plan import ALGORITHMS

    cop = sub.add_parser(
        "collective",
        help="run one collective; print timing, accounting, and the "
        "selector's reasoning",
    )
    cop.add_argument("machine")
    cop.add_argument("runtime", choices=backend_names())
    cop.add_argument("coll", choices=sorted(ALGORITHMS))
    cop.add_argument("--nranks", type=_positive_int, default=4)
    cop.add_argument(
        "--nbytes", default="64KiB",
        help="payload size (e.g. 4MiB); ignored for barrier",
    )
    cop.add_argument(
        "--algorithm", default="auto",
        help="a named algorithm, or 'auto' for the alpha-beta selector",
    )
    cop.add_argument(
        "--stripes", type=_positive_int, default=1,
        help="concurrent puts per hop on ring schedules (NCCL multi-ring)",
    )
    cop.add_argument("--iters", type=_positive_int, default=1)
    cop.add_argument(
        "--explain", action="store_true",
        help="print the selector's full modeled cost table",
    )

    irp = sub.add_parser(
        "ir",
        help="inspect the communication-pattern IR: run an experiment "
        "under the pass pipeline and report every fired rewrite",
    )
    irp.add_argument("action", choices=["explain"])
    irp.add_argument("experiment", help="e.g. fig03, fig05, or 'all'")
    irp.add_argument(
        "--passes", default=None,
        help=f"comma-separated pass names ({', '.join(_PASSES)}); "
        f"default: {', '.join(DEFAULT_PASSES)}",
    )
    return p


def _add_point_args(p: argparse.ArgumentParser) -> None:
    """``machine runtime`` and the message-shape flags of ``flood`` /
    ``roofline``."""
    from repro.transport import backend_names

    p.add_argument("machine")
    p.add_argument("runtime", choices=backend_names())
    p.add_argument("--nbytes", default="64KiB", help="message size (e.g. 4KiB)")
    p.add_argument(
        "--msgs-per-sync", type=int, default=64, help="messages per sync",
    )


def _resolve_names(text: str, catalogue, what: str, *, one: bool = False):
    """``'all'`` | one name | a comma list -> the names, all in ``catalogue``
    (``one``: exactly one name, for commands that take a single run).  On a
    miss: the unknown names and the catalogue on stderr, and ``None`` — the
    caller exits 2."""
    if one:
        names = [text]
    else:
        names = sorted(catalogue) if text == "all" else text.split(",")
    unknown = [n for n in names if n not in catalogue]
    if unknown:
        print(
            f"unknown {what} {', '.join(repr(n) for n in unknown)}; "
            f"available: {', '.join(sorted(catalogue))}",
            file=sys.stderr,
        )
        return None
    return names


def _run_reports(args: argparse.Namespace, names, catalogue, what: str, emit) -> int:
    """Run each of ``names`` in ``catalogue`` (experiments or ablations) and
    ``emit(name, report)`` it; exit code 1 unless every entry passed.

    An entry that raises is marked ERROR and the rest still run.  ``run``
    runs inside a :func:`repro.sweep.execution` block configured from its
    flags.  Progress, the PASS/FAIL/ERROR summary (more than one
    entry) and the cache line (a cached run) go to stderr, so ``--json``
    stdout stays parseable.
    """
    import contextlib
    import traceback

    from repro import obs
    from repro.sweep import ResultCache, execution

    block = contextlib.nullcontext() if "jobs" not in args else execution(
        jobs=args.jobs,
        cache=None if args.no_cache else ResultCache(args.cache_dir),
        progress=lambda line: print(line, file=sys.stderr),
    )
    statuses: dict[str, str] = {}
    with block as cfg:
        for n in names:
            try:
                if getattr(args, "metrics", False):
                    with obs.observe(obs.Obs()) as session, session.span(n):
                        report = catalogue[n]()
                    report.metrics = session.snapshot()
                else:
                    report = catalogue[n]()
            except Exception:
                print(f"{what} {n} raised:", file=sys.stderr)
                traceback.print_exc()
                statuses[n] = "ERROR"
                continue
            emit(n, report)
            statuses[n] = "PASS" if report.all_expectations_met else "FAIL"
        cache = cfg.cache if cfg is not None else None
    if len(statuses) > 1:
        print("summary:", file=sys.stderr)
        for n, status in statuses.items():
            print(f"  {n:<20} {status}", file=sys.stderr)
        total, counts = len(statuses), Counter(statuses.values())
        parts = [
            f"{counts[status]}/{total} {what}s {verb}"
            for status, verb in (("FAIL", "failed expectations"), ("ERROR", "raised"))
            if counts[status]
        ]
        print(f"  {'; '.join(parts) or f'all {total} {what}s passed'}", file=sys.stderr)
    if cache is not None:
        s = cache.stats()
        print(f"[sweep] cache: hits={s['hits']} misses={s['misses']}", file=sys.stderr)
    return 0 if all(s == "PASS" for s in statuses.values()) else 1


def _cmd_list(_args) -> int:
    from repro.experiments import ALL_EXPERIMENTS
    from repro.experiments.ablations import ALL_ABLATIONS
    from repro.machines import machine_names

    print("experiments:", ", ".join(sorted(ALL_EXPERIMENTS)))
    print("ablations  :", ", ".join(sorted(ALL_ABLATIONS)))
    print("machines   :", ", ".join(machine_names(include_projections=True)))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    import pathlib

    from repro.experiments import ALL_EXPERIMENTS

    names = _resolve_names(args.experiment, ALL_EXPERIMENTS, "experiment")
    if names is None:
        return 2
    if args.out is not None and not _writable("--out", args.out, directory=True):
        return 2

    def emit(n, report):
        if args.out is None:
            print(report.to_json() if args.json else report.render() + "\n")
            return
        out = pathlib.Path(args.out)
        (out / f"{n}.json").write_text(report.to_json() + "\n")
        (out / f"{n}.txt").write_text(report.render() + "\n")
        status = "ok" if report.all_expectations_met else "CHECKS FAILED"
        print(f"  {n}: {status} -> {out / n}.{{json,txt}}")

    return _run_reports(args, names, ALL_EXPERIMENTS, "experiment", emit)


def _cmd_trace(args: argparse.Namespace) -> int:
    import pathlib

    from repro import obs
    from repro.experiments import ALL_EXPERIMENTS

    name = args.experiment
    if _resolve_names(name, ALL_EXPERIMENTS, "experiment", one=True) is None:
        return 2
    if not _writable("--out", args.out, directory=False):
        return 2
    if args.sink == "ring":
        if args.capacity < 1:
            print(f"--capacity must be >= 1, got {args.capacity}", file=sys.stderr)
            return 2

        def factory():
            return obs.RingBufferSink(args.capacity)
    elif args.sink == "jsonl":
        if not _writable("--jsonl-dir", args.jsonl_dir, directory=True):
            return 2
        jsonl_dir = pathlib.Path(args.jsonl_dir)
        counter = iter(range(1_000_000))

        def factory():
            return obs.JsonlSink(jsonl_dir / f"job{next(counter)}.jsonl")
    else:
        factory = None  # unbounded in-memory ListSink
    session = obs.Obs(trace=True, sink_factory=factory)
    with obs.observe(session), session.span(name):
        report = ALL_EXPERIMENTS[name]()
    session.close()
    traces: list = []
    for label, tracer in session.traces:
        records = tracer.records
        if not records and isinstance(tracer.sink, obs.JsonlSink):
            from repro.analysis.traces import load_jsonl

            records = load_jsonl(tracer.sink.path).records
        traces.append((label, records))
    out = obs.write_chrome_trace(args.out, traces, session.spans)
    kept = sum(len(records) for _label, records in traces)
    print(report.render() + "\n")
    print(f"trace     : {out} ({kept} records across {len(traces)} jobs)")
    print("open in   : chrome://tracing or https://ui.perfetto.dev")
    if args.sink == "jsonl":
        print(f"jsonl     : {args.jsonl_dir}/job*.jsonl "
              "(load with repro.analysis.traces.load_jsonl)")
    snap = session.metrics.snapshot()
    for key in ("net.fabric.messages", "net.fabric.bytes"):
        if key in snap:
            print(f"{key:<20}: {snap[key]:.0f}")
    return 0 if report.all_expectations_met else 1


def _cmd_ablation(args: argparse.Namespace) -> int:
    from repro.experiments.ablations import ALL_ABLATIONS

    names = _resolve_names(args.name, ALL_ABLATIONS, "ablation")
    if names is None:
        return 2
    return _run_reports(
        args, names, ALL_ABLATIONS, "ablation",
        lambda _name, report: print(report.render() + "\n"),
    )


def _cmd_machines(_args) -> int:
    from repro.machines import get_machine, machine_names

    for name in machine_names(include_projections=True):
        print(get_machine(name).describe() + "\n")
    return 0


def _cmd_topo(args: argparse.Namespace) -> int:
    from repro.machines.registry import get_topology
    from repro.util import fmt_bw

    topo = get_topology(args.name)
    if args.dot:
        print(f'graph "{topo.name}" {{')
        for ep in topo.endpoints:
            print(f'  "{ep}";')
        for key, params in sorted(topo.links.items(), key=lambda kv: sorted(kv[0])):
            a, b = sorted(key)
            print(f'  "{a}" -- "{b}" [label="{params.name} {params.bandwidth / 1e9:.0f}GB/s"];')
        print("}")
        return 0
    diameter = topo.diameter_hops()  # before any output: its ValueError is main()'s exit 2
    print(f"topology  : {topo.name}")
    print(f"endpoints : {len(topo.endpoints)}")
    print(f"links     : {len(topo.links)}")
    print(f"diameter  : {diameter} hops")
    print(f"bisection : {fmt_bw(topo.bisection_bandwidth())}")
    kinds = Counter(params.name for params in topo.links.values())
    for kind, count in sorted(kinds.items()):
        print(f"  {count:>4} x {kind}")
    return 0


def _us_window(bounds: list[str], complaint: str) -> tuple[float, float]:
    """``[START, END]`` in microseconds -> seconds; anything else is a
    ``ValueError(complaint)``, which :func:`main` reports with exit code 2."""
    try:
        start, end = bounds
        return float(start) * 1e-6, float(end) * 1e-6
    except ValueError:
        raise ValueError(complaint) from None


def _cmd_flood(args: argparse.Namespace) -> int:
    from repro import faults
    from repro.machines import get_machine
    from repro.util import fmt_bw, fmt_time, parse_size
    from repro.workloads.flood import run_flood

    machine = get_machine(args.machine)
    faulty_run = any(flag in args for flag in _FAULT_FLAGS)
    args = argparse.Namespace(**{**_FAULT_FLAGS, **vars(args)})
    down = [
        _us_window(spec.split(":"),
                   f"--down expects START:END in microseconds, got {spec!r}")
        for spec in args.down
    ]
    hard: list[faults.HardFaults] = []
    compute = tuple(machine.compute_endpoints)
    for cls in _HARD_FAULTS:
        windows: dict[str, list[tuple[float, float]]] = {}
        for spec in getattr(args, f"fail_{cls.kind}"):
            name, *bounds = spec.split(":")
            window = (0.0, float("inf")) if not bounds else _us_window(
                bounds,
                f"--fail-{cls.kind} expects NAME or NAME:START:END in "
                f"microseconds, got {spec!r}",
            )
            # Validate the element name eagerly, before any simulation runs.
            faults.validate_element(machine.topology, cls.kind, name, compute=compute)
            windows.setdefault(name, []).append(window)
        hard.extend(cls(name, windows=tuple(ws)) for name, ws in windows.items())
    plan = faults.FaultPlan.uniform(
        loss=args.loss,
        jitter=args.jitter_us * 1e-6,
        degrade=args.degrade,
        down=tuple(down),
        seed=args.seed,
        timeout=args.timeout_us * 1e-6,
        max_retries=args.max_retries,
        hard=tuple(hard),
    )
    point = (machine, args.runtime, parse_size(args.nbytes), args.msgs_per_sync)
    clean = run_flood(*point, iters=args.iters, placement=args.placement)
    message = f"message   : {args.nbytes} x {args.msgs_per_sync}/sync x {args.iters} iters"
    if not faulty_run:
        print(f"machine   : {clean.machine} / {clean.runtime}")
        print(message)
        print(f"bandwidth : {fmt_bw(clean.bandwidth)}")
        print(f"latency   : {fmt_time(clean.latency_per_message)} per message")
        return 0
    try:
        with faults.inject(plan) as scope:
            faulty = run_flood(*point, iters=args.iters, placement=args.placement)
    except faults.FaultError as exc:
        print(f"machine   : {machine.name} / {args.runtime}")
        print(f"plan      : loss={args.loss} jitter={args.jitter_us}us "
              f"degrade={args.degrade} hard={len(hard)} element(s) "
              f"seed={args.seed}")
        print(f"aborted   : {exc}")
        return 1
    s = scope.stats()
    print(f"machine   : {machine.name} / {args.runtime}")
    print(message)
    print(f"plan      : loss={args.loss} jitter={args.jitter_us}us "
          f"degrade={args.degrade} down={len(down)} window(s) "
          f"hard={len(hard)} element(s) seed={args.seed}")
    print(f"clean     : {fmt_bw(clean.bandwidth)}")
    print(f"faulty    : {fmt_bw(faulty.bandwidth)} "
          f"({faulty.bandwidth / clean.bandwidth * 100:.1f}% of clean)")
    print(f"recovery  : {int(s['drops'])} drops "
          f"({int(s['hard_drops'])} at dead elements), "
          f"{int(s['retransmits'])} retransmits, "
          f"{int(s['exhausted'])} exhausted")
    if s["down_stall_seconds"] > 0:
        print(f"stalled   : {s['down_stall_seconds'] * 1e6:.1f} us at down links")
    return 0


def _cmd_roofline(args: argparse.Namespace) -> int:
    from repro.machines import get_machine
    from repro.roofline import MessageRoofline
    from repro.transport import get_backend
    from repro.util import fmt_bw, fmt_time, parse_size

    machine = get_machine(args.machine)
    backend = get_backend(args.runtime)
    # The command's axis is msgs/sync: the batch endpoint's accounting.
    params = backend.loggp(machine, "batch")
    per_msg, per_sync = backend.ops("batch")
    roof = MessageRoofline(params)
    B = parse_size(args.nbytes)
    bound = roof.bound(B, args.msgs_per_sync)
    print(f"machine : {machine.name} / {args.runtime}")
    print(
        f"params  : L={params.L * 1e6:.2f} us, o={params.o * 1e6:.2f} us, "
        f"g={params.g * 1e6:.2f} us, o_sync={params.o_sync * 1e6:.2f} us, "
        f"peak={fmt_bw(params.peak_bandwidth)}"
    )
    print(f"ops     : {', '.join(per_msg)} /msg; {', '.join(per_sync)} /sync")
    print(f"bound   : {fmt_bw(bound['bound_bandwidth'])} "
          f"({bound['fraction_of_peak'] * 100:.1f}% of peak)")
    print(f"per sync: {fmt_time(bound['bound_time_per_sync'])}")
    return 0


def _cmd_collective(args: argparse.Namespace) -> int:
    from repro.collectives import explain_collective, run_collective
    from repro.machines import get_machine
    from repro.util import fmt_bw, fmt_time, parse_size

    machine = get_machine(args.machine)
    nbytes = None if args.coll == "barrier" else parse_size(args.nbytes)
    r = run_collective(
        machine, args.runtime, args.coll,
        nranks=args.nranks, nbytes=nbytes, algorithm=args.algorithm,
        stripes=args.stripes, iters=args.iters,
    )
    print(f"machine   : {r.machine} / {r.runtime}")
    print(f"collective: {r.coll} (P={r.nranks}, {r.nelems} words"
          + (f", {args.stripes} stripes" if args.stripes > 1 else "") + ")")
    print(f"algorithm : {r.algorithm}"
          + (" (selected)" if args.algorithm == "auto" else ""))
    print(f"time      : {fmt_time(r.time)} per op ({args.iters} iters)")
    if r.nbytes:
        print(f"alg bw    : {fmt_bw(r.alg_bandwidth)} (payload / time)")
        print(f"bus bw    : {fmt_bw(r.bus_bandwidth)} (wire per rank / time)")
    s = r.stats
    print(f"schedule  : {s.rounds} rounds, {s.messages} messages, "
          f"{s.bytes_moved:.0f} wire bytes (all ranks, all iters)")
    if args.explain:
        sel = r.selection or explain_collective(
            machine, args.runtime, args.coll,
            nranks=args.nranks, nbytes=nbytes,
        )
        print(sel.explain())
    return 0


def _cmd_ir(args: argparse.Namespace) -> int:
    from repro import ir
    from repro.experiments import ALL_EXPERIMENTS

    names = _resolve_names(args.experiment, ALL_EXPERIMENTS, "experiment")
    if names is None:
        return 2
    spec = True if args.passes is None else [
        s.strip() for s in args.passes.split(",") if s.strip()
    ]
    try:
        pipeline = ir.build_pipeline(spec)
    except (KeyError, TypeError, ValueError) as e:
        print(f"bad --passes: {e}", file=sys.stderr)
        return 2
    print(f"[ir] passes: {', '.join(pipeline.passes) or '(none)'}",
          file=sys.stderr)
    status = 0
    for n in names:
        with ir.passes(pipeline), ir.collect() as reports:
            try:
                ALL_EXPERIMENTS[n]()
            except Exception:
                import traceback

                traceback.print_exc()
                status = 1
                continue
        print(f"== {n} ==")
        if reports:
            print(ir.explain_all(reports))
        else:
            print("  (no IR programs lowered)")
        print()
    return status


_COMMANDS = {
    "list": _cmd_list,
    "run": _cmd_run,
    "trace": _cmd_trace,
    "ablation": _cmd_ablation,
    "machines": _cmd_machines,
    "topo": _cmd_topo,
    "flood": _cmd_flood,
    "roofline": _cmd_roofline,
    "collective": _cmd_collective,
    "ir": _cmd_ir,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, KeyError) as exc:
        # A machine, size, count, fault window or runtime name the model
        # rejects (get_machine, parse_size, run_flood, BatchSpec, FaultPlan,
        # the roofline, the backend registry), or a runtime the machine has
        # no calibration for (KeyError).  The report loops catch their own.
        print(exc.args[0], file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
