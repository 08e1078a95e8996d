"""Sweep execution: serial or process-pool, cache-aware, observable.

:func:`run_sweep` expands a :class:`~repro.sweep.spec.SweepSpec` and
returns one :class:`SweepResult` per point **in grid order** — results
never depend on worker completion order, and per-point seeds derive from
point keys, so ``--jobs N`` output is identical to serial output.

When an ambient :class:`repro.obs.Obs` session is active, each sweep
feeds it: ``sweep.points.completed`` / ``sweep.cache.hits`` /
``sweep.cache.misses`` counters, a ``sweep.point.seconds`` histogram,
per-sweep wall-time and worker-utilization gauges, and a
``sweep.<name>`` span.

A sweep runs every point or raises: the first failing point aborts it
with :class:`SweepError` naming the point.  Points that finished before
it are already in the cache, so re-running the sweep against the same
cache executes only what did not finish.  A worker process dying
mid-point (segfault, ``os._exit``) breaks the whole process pool; the
executor rebuilds it and resubmits the unfinished points a bounded
number of times, then raises.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import as_completed
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro import obs, scope
from repro.sweep.cache import ResultCache
from repro.sweep.config import current_execution, execution
from repro.sweep.spec import SweepPoint, SweepSpec

__all__ = ["SweepError", "SweepResult", "SweepStats", "run_sweep"]

# Seconds buckets for the per-point duration histogram.
_POINT_SECONDS_EDGES = (1e-3, 1e-2, 0.1, 1.0, 10.0)

# Pool rebuilds tolerated per sweep before the sweep raises.
_POOL_RETRIES = 2

# Target chunks per worker slot when batching points into one submission.
# Chunking amortises per-future submission and pickling overhead (a cheap
# simulated point costs less than its own round trip through the pool,
# which is how parallel sweeps used to come out *slower* than serial) and
# lets a worker reuse per-process state — machine registries, backend
# tables — across its whole chunk.  >1 so stragglers can be rebalanced.
_CHUNK_FACTOR = 4


class SweepError(RuntimeError):
    """A point runner raised; carries the failing point's identity."""


@dataclass(frozen=True)
class SweepResult:
    """Outcome of one point: its value plus execution provenance."""

    point: SweepPoint
    value: dict[str, Any]
    cached: bool
    duration: float  # seconds spent executing (0.0 for cache hits)

    @property
    def params(self) -> dict[str, Any]:
        return self.point.params_dict


@dataclass(frozen=True)
class SweepStats:
    """Aggregate execution stats for one sweep run."""

    sweep: str
    npoints: int
    cache_hits: int
    executed: int
    wall_seconds: float
    jobs: int

    @property
    def utilization(self) -> float:
        """Busy fraction of the worker slots over the sweep's wall time."""
        return 0.0 if self.wall_seconds <= 0 else min(
            1.0, self._busy / (self.wall_seconds * self.jobs)
        )

    _busy: float = 0.0

    def line(self) -> str:
        cached = f", {self.cache_hits} cached" if self.cache_hits else ""
        return (
            f"[sweep] {self.sweep}: {self.npoints} points{cached}, "
            f"jobs={self.jobs}, {self.wall_seconds:.2f}s, "
            f"utilization {self.utilization:.0%}"
        )


class _SpillBoard(list):
    """Result slots that stream every completed point to a JSONL file.

    ``run_sweep(..., spill_path=...)`` swaps its plain result list for
    one of these: each ``results[i] = SweepResult(...)`` assignment —
    cache hit or executed point alike — appends one JSON line
    immediately (the :class:`repro.obs.JsonlSink` discipline: stream,
    retain nothing extra in memory).  Lines land in completion order;
    each carries its own ``params``, so readers never depend on file
    order.  A sweep that raises leaves the lines of the points that
    finished before it.  Because cache hits are re-emitted, re-running
    an interrupted sweep with the same content-addressed cache rewrites a
    *complete* file — earlier points replay from cache in the same run.
    """

    def __init__(self, npoints: int, sweep: str, path: str | Path):
        super().__init__([None] * npoints)
        self.sweep = sweep
        self.path = Path(path)
        if self.path.parent != Path():
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("w")

    def __setitem__(self, i: int, result: SweepResult) -> None:
        super().__setitem__(i, result)
        line = json.dumps(
            {
                "sweep": self.sweep,
                "index": i,
                "params": result.point.params_dict,
                "seed": result.point.seed,
                "value": result.value,
                "cached": result.cached,
            },
            sort_keys=True,
            default=str,
        )
        self._fh.write(line)
        self._fh.write("\n")
        self._fh.flush()  # each line survives a mid-sweep crash

    def close(self) -> None:
        self._fh.close()


def _execute_chunk(carried: dict, items) -> list[tuple[bool, Any, float]]:
    """Run a batch of points in one worker submission, under the parent's
    carried scopes (fault plan, pass pipeline, bulk switch) re-entered here.

    Per-point outcomes are ``(ok, value-or-error-message, duration)``, in
    order, up to and including the first point that raises: the parent
    caches the points before it and raises :class:`SweepError` naming it.
    """
    out = []
    with scope.entered(carried):
        for runner, params, seed in items:
            t0 = time.perf_counter()
            try:
                value = dict(runner(params, seed))
            except Exception as exc:
                out.append(
                    (False, f"{type(exc).__name__}: {exc}",
                     time.perf_counter() - t0)
                )
                break
            out.append((True, value, time.perf_counter() - t0))
    return out


def run_sweep(
    spec: SweepSpec,
    *,
    spill_path: str | Path | None = None,
    **overrides,
) -> list[SweepResult]:
    """Execute every point of ``spec``; return results in grid order.

    Runs under the ambient :func:`~repro.sweep.config.execution` config
    (serial, uncached, and silent outside any ``execution()`` block);
    ``jobs=`` / ``cache=`` / ``progress=`` given here replace those fields
    in a nested ``execution(...)`` scope around this one call.

    The first point that raises aborts the sweep with :class:`SweepError`
    naming it; a failing point is never cached.  A broken worker pool is
    rebuilt a bounded number of times, then the sweep raises too.

    ``spill_path`` streams every completed point (cache hits included)
    to a JSON Lines file as it lands, flushed per line — a crash leaves
    a valid partial file, and re-running the sweep against the same
    content-addressed cache regenerates a complete one (interrupted
    points replay from cache).  See :class:`_SpillBoard`.
    """
    cfg = current_execution()
    if overrides:
        ambient = {"jobs": cfg.jobs, "cache": cfg.cache, "progress": cfg.progress}
        with execution(**{**ambient, **overrides}):
            return run_sweep(spec, spill_path=spill_path)
    jobs, cache, progress = cfg.jobs, cfg.cache, cfg.progress

    points = spec.iter_points()
    session = obs.current()
    span = session.span(f"sweep.{spec.name}") if session else nullcontext()
    t_start = time.perf_counter()
    results: list[SweepResult | None]
    if spill_path is not None:
        results = _SpillBoard(len(points), spec.name, spill_path)
    else:
        results = [None] * len(points)
    pending: list[tuple[int, SweepPoint, str | None]] = []
    hits = 0

    try:
        with span:
            for i, pt in enumerate(points):
                key = cache.key_for(spec, pt) if cache is not None else None
                if key is not None:  # None: no cache
                    value = cache.get(key)
                    if value is not None:
                        results[i] = SweepResult(
                            pt, value, cached=True, duration=0.0
                        )
                        hits += 1
                        continue
                pending.append((i, pt, key))

            if progress and points:
                progress(
                    f"[sweep] {spec.name}: {len(points)} points "
                    f"({hits} cached, {len(pending)} to run), jobs={jobs}"
                )

            if jobs > 1 and len(pending) > 1:
                _run_parallel(spec, pending, results, cfg)
            else:
                _run_serial(spec, pending, results, cache, session)
    finally:
        if isinstance(results, _SpillBoard):
            results.close()

    wall = time.perf_counter() - t_start
    done = list(results)
    stats = SweepStats(
        sweep=spec.name,
        npoints=len(points),
        cache_hits=hits,
        executed=len(pending),
        wall_seconds=wall,
        jobs=jobs,
        _busy=sum(r.duration for r in done),
    )
    if session:
        m = session.metrics
        m.counter("sweep.points.completed").inc(len(points))
        m.counter("sweep.cache.hits").inc(hits)
        m.counter("sweep.cache.misses").inc(len(pending))
        m.gauge(f"sweep.{spec.name}.wall_seconds").set(wall)
        m.gauge(f"sweep.{spec.name}.utilization").set(stats.utilization)
        hist = m.histogram("sweep.point.seconds", _POINT_SECONDS_EDGES)
        for r in done:
            if not r.cached:
                hist.observe(r.duration)
    if progress and points:
        progress(stats.line())
    return done


def _store(
    results: list[SweepResult | None],
    cache: ResultCache | None,
    i: int,
    pt: SweepPoint,
    key: str | None,
    value: dict[str, Any],
    duration: float,
) -> None:
    if cache is not None:
        cache.put(key, value)
    results[i] = SweepResult(pt, value, cached=False, duration=duration)


def _run_serial(spec, pending, results, cache, session) -> None:
    for i, pt, key in pending:
        span = (
            session.span(f"sweep.{spec.name}.point") if session else nullcontext()
        )
        t0 = time.perf_counter()
        try:
            with span:
                value = dict(pt.runner(pt.params_dict, pt.seed))
        except Exception as exc:
            raise SweepError(f"sweep point {pt.label()} failed: {exc}") from exc
        _store(results, cache, i, pt, key, value, time.perf_counter() - t0)


def _run_parallel(spec, pending, results, cfg) -> None:
    """Drain ``pending`` through ``cfg``'s pool — one pool per
    ``execution()`` block, so `repro run all --jobs N` reuses workers
    across experiments."""
    carried = scope.carried()
    queue = list(pending)
    crashes = 0
    while True:
        try:
            _drain_pool(cfg, carried, queue, results)
            return
        except BrokenProcessPool as exc:
            # A worker died mid-point, poisoning every in-flight
            # future — the culprit is unidentifiable from here.
            # Rebuild the pool (the next sweep in the block gets live
            # workers either way) and resubmit whatever has no result
            # yet, until the retry budget is spent.
            crashes += 1
            queue = [p for p in queue if results[p[0]] is None]
            cfg.reset_pool()
            if crashes > _POOL_RETRIES:
                raise SweepError(
                    f"sweep {spec.name}: worker pool crashed "
                    f"{crashes} times; {len(queue)} point(s) unfinished"
                ) from exc


def _chunks(queue, jobs) -> list[list]:
    """Split pending points into ~``jobs * _CHUNK_FACTOR`` contiguous runs."""
    n = min(len(queue), max(1, jobs * _CHUNK_FACTOR))
    size = -(-len(queue) // n)  # ceil division
    return [queue[k : k + size] for k in range(0, len(queue), size)]


def _drain_pool(cfg, carried, queue, results) -> None:
    """Submit ``queue`` to ``cfg``'s pool as per-worker runs of points (see
    :func:`_chunks`) and store every outcome as its chunk lands.

    The first failing outcome cancels the chunks not yet started and
    raises :class:`SweepError` naming its point.  A
    :class:`BrokenProcessPool` from any chunk propagates to the caller's
    rebuild loop; points of the broken chunk that have no result yet are
    resubmitted with the rest of the unfinished queue.
    """
    pool = cfg.pool()
    futures = {
        pool.submit(
            _execute_chunk,
            carried,
            [(pt.runner, pt.params_dict, pt.seed) for _, pt, _ in chunk],
        ): chunk
        for chunk in _chunks(queue, cfg.jobs)
    }
    for fut in as_completed(futures):  # fut.result(): a BrokenProcessPool propagates
        for (i, pt, key), (ok, payload, duration) in zip(futures[fut], fut.result()):
            if not ok:
                for f in futures:
                    f.cancel()
                raise SweepError(f"sweep point {pt.label()} failed: {payload}")
            _store(results, cfg.cache, i, pt, key, payload, duration)
