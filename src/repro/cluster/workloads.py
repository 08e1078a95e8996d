"""Victim and bully rank programs for interference studies.

Both are *program factories* in the :meth:`repro.cluster.Cluster.submit`
convention — called with the placed job, they allocate a window and return
the per-rank generator:

* :func:`attach_victim` — rank 0 issues small ``put``+``flush`` round trips
  to rank 1 at a fixed cadence and appends each one's completion latency to
  the caller's ``samples`` list (and, under an obs session, to the
  ``cluster.victim.latency_seconds`` histogram, whose p99/p999 surface in
  ``repro run --metrics``).
* :func:`attach_bully` — every rank floods large puts at the rank half the
  job away (with the scattered placements used in the interference
  experiment, that traffic crosses the shared fabric and queues on the
  victim's links).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Generator

from repro.comm.job import Job
from repro.util.validation import check_in_range

__all__ = ["attach_victim", "attach_bully", "sample_quantile"]

# Victim latency histogram edges (seconds): fine decades around the
# microsecond round trips the victim sees.
_LATENCY_EDGES = (1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 1e-3)


def attach_victim(
    samples: list[float],
    *,
    nelems: int = 1,
    nmsgs: int = 200,
    spacing: float = 5e-6,
) -> Callable[[Job], Callable]:
    """Latency-probe job: ``nmsgs`` timed put+flush round trips, one every
    ``spacing`` seconds of think time, latencies appended to ``samples``."""

    def make(job: Job) -> Callable:
        win = job.window(max(nelems, 1))
        hist = None
        if job.metrics is not None:
            hist = job.metrics.histogram(
                "cluster.victim.latency_seconds", _LATENCY_EDGES
            )

        def program(ctx) -> Generator:
            h = win.handle(ctx)
            if ctx.rank == 0:
                for _ in range(nmsgs):
                    t0 = ctx.sim.now
                    yield from h.put(1, nelems=nelems)
                    yield from h.flush(1)
                    lat = ctx.sim.now - t0
                    samples.append(lat)
                    if hist is not None:
                        hist.observe(lat)
                    if spacing > 0:
                        yield from ctx.compute(seconds=spacing)
            else:
                yield from ctx.compute(seconds=0)

        return program

    return make


def attach_bully(
    *,
    nelems: int = 8192,
    nmsgs: int = 100,
    flush_every: int = 16,
) -> Callable[[Job], Callable]:
    """Flood job: every rank streams ``nmsgs`` puts of ``nelems`` doubles at
    the rank half the job away, flushing every ``flush_every`` puts."""

    def make(job: Job) -> Callable:
        win = job.window(max(nelems, 1))

        def program(ctx) -> Generator:
            h = win.handle(ctx)
            peer = (ctx.rank + max(ctx.size // 2, 1)) % ctx.size
            if peer == ctx.rank:
                yield from ctx.compute(seconds=0)
                return
            for i in range(nmsgs):
                yield from h.put(peer, nelems=nelems)
                if (i + 1) % flush_every == 0:
                    yield from h.flush(peer)
            yield from h.flush(peer)

        return program

    return make


def sample_quantile(samples: list[float], p: float) -> float:
    """Exact nearest-rank quantile of raw samples (NaN when empty)."""
    check_in_range("p", p, 0, 1)
    if not samples:
        return float("nan")
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(p * len(ordered)) - 1))]
