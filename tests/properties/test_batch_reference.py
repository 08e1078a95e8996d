"""A batch is said once: ``send_batch`` / ``wait_batch`` against a
message-at-a-time reference, the ``wait_signal_batch`` hand-off edges, and
the layering rule that keeps the bulk-or-scalar choice out of transport.

The reference spells a batch the way the adapters did before the batch was
one verb — the scalar comm verb once per message, then the completion —
so it never meets a batch verb and cannot take the bulk engine.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

import repro.transport
from repro import perf
from repro.comm import Job
from repro.comm.shmem import ShmemContext
from repro.comm.window import Window
from repro.experiments.ablations import _with_hw_put_signal
from repro.machines import get_machine
from repro.transport import BatchSpec

BACKENDS = [
    ("two_sided", lambda: get_machine("perlmutter-cpu")),
    ("one_sided", lambda: get_machine("perlmutter-cpu")),
    ("shmem", lambda: get_machine("perlmutter-gpu")),
    ("one_sided_hw", lambda: _with_hw_put_signal(get_machine("perlmutter-cpu"))),
    ("stream_triggered", lambda: get_machine("perlmutter-gpu")),
]
IDS = [b for b, _ in BACKENDS]


def _reference(ctx, chan, it, n):
    """Rank 0 sends, rank 1 waits: one scalar comm verb per message."""
    nelems, nbytes = chan.spec.nelems, chan.spec.nbytes
    if isinstance(ctx, ShmemContext):  # fused put-with-signal family
        if ctx.rank == 0:
            for _ in range(n):
                yield from ctx.put_signal_nbi(
                    chan.data_win, 1, nelems=nelems, signal_win=chan.sig_win,
                    signal_idx=0, signal_value=1, signal_op="add",
                )
            yield from ctx.quiet()
        else:
            yield from ctx.wait_until_all(chan.sig_win, [0], value=(it + 1) * n)
    elif hasattr(chan, "sig_win"):  # one-sided MPI: the 4-op emulation
        if ctx.rank == 0:
            h, h_sig = chan.data_win.handle(ctx), chan.sig_win.handle(ctx)
            for _ in range(n):
                yield from h.put(1, nelems=nelems)
            yield from h.flush(1)
            yield from h_sig.put(1, np.array([it + 1], dtype=np.int64), offset=0)
            yield from h_sig.flush(1)
        else:
            yield from ctx.poll_wait_signals(chan.sig_win, [0], 1, value=it + 1)
    else:  # two-sided
        reqs = []
        for _ in range(n):
            if ctx.rank == 0:
                r = yield from ctx.isend(1, nbytes=nbytes, tag=7)
            else:
                r = yield from ctx.irecv(source=0, tag=7)
            reqs.append(r)
        yield from ctx.waitall(reqs)


def _verbs(ctx, chan, it, n):
    ep = chan.endpoint(ctx)
    if ctx.rank == 0:
        yield from ep.send_batch(1, it, n)
    else:
        yield from ep.wait_batch(0, it, n)


def _run(machine, backend, nbytes, n, batch, *, iters=2, sender_lag=0.0,
         waiter_lag=0.0, barrier=True):
    """Elapsed time and every OpCounter field of both ranks."""

    def program(ctx, chan):
        yield from ctx.barrier()
        t0 = ctx.sim.now
        lag = sender_lag if ctx.rank == 0 else waiter_lag
        if lag:
            yield from ctx.compute(seconds=lag)
        for it in range(iters):
            yield from batch(ctx, chan, it, n)
            if barrier:
                yield from ctx.barrier()
        return ctx.sim.now - t0

    job = Job(machine, 2, backend, placement="spread")
    res = job.run(program, job.channel(BatchSpec(nbytes=nbytes)))
    return res.results, [dataclasses.asdict(c) for c in res.per_rank]


@pytest.mark.parametrize("nbytes", [64, 65536])
@pytest.mark.parametrize("n", [1, 2, 17, 256])
@pytest.mark.parametrize("backend,machine_factory", BACKENDS, ids=IDS)
def test_send_batch_equals_message_at_a_time(backend, machine_factory, n, nbytes):
    reference = _run(machine_factory(), backend, nbytes, n, _reference)
    with perf.vectorized(False):
        scalar = _run(machine_factory(), backend, nbytes, n, _verbs)
    with perf.vectorized(True):
        bulk = _run(machine_factory(), backend, nbytes, n, _verbs)
    assert scalar == reference
    assert bulk == reference


@pytest.mark.parametrize(
    "lags",
    [
        # The whole batch has landed before the waiter looks: satisfied on
        # entry, and the next batch must not meet this one's schedule.
        {"waiter_lag": 1e-3},
        # The waiter is parked before the sender publishes anything.
        {"sender_lag": 1e-3},
        # Two batches back to back on one (target, source, index), the
        # waiter entering early, mid-flight and late.
        {"barrier": False},
        {"barrier": False, "waiter_lag": 4e-5},
        {"barrier": False, "waiter_lag": 1e-3},
    ],
    ids=["satisfied-on-entry", "parked-before-publish", "back-to-back",
         "back-to-back-mid-flight", "back-to-back-late"],
)
def test_wait_signal_batch_edges(lags):
    machine = get_machine("perlmutter-gpu")
    reference = _run(machine, "shmem", 4096, 64, _reference, **lags)
    with perf.vectorized(True):
        bulk = _run(machine, "shmem", 4096, 64, _verbs, **lags)
    assert bulk == reference


@pytest.mark.parametrize("on", [False, True], ids=["scalar", "bulk"])
def test_both_halves_of_a_batch_take_the_same_engine(on, monkeypatch):
    """The public verbs cannot pair a bulk sender with a scalar waiter (or
    the reverse): both halves ask ``perf.bulk_enabled`` of the same job."""
    calls = {"scalar_waits": 0, "published": 0}
    wait_until_all, publish = ShmemContext.wait_until_all, Window._publish_schedule

    def counting_wait(self, *args, **kwargs):
        calls["scalar_waits"] += 1
        return wait_until_all(self, *args, **kwargs)

    def counting_publish(self, *args):
        calls["published"] += 1
        return publish(self, *args)

    monkeypatch.setattr(ShmemContext, "wait_until_all", counting_wait)
    monkeypatch.setattr(Window, "_publish_schedule", counting_publish)
    with perf.vectorized(on):
        _run(get_machine("perlmutter-gpu"), "shmem", 4096, 64, _verbs)
    assert calls == (
        {"scalar_waits": 0, "published": 2} if on
        else {"scalar_waits": 2, "published": 0}
    )


def _importers_of(package, *dirs):
    """``file:line`` of every import of ``package`` under ``src/repro/<dir>``."""
    offenders = []
    for d in dirs:
        for path in sorted((Path(repro.__file__).parent / d).glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""] + [
                        f"{node.module}.{alias.name}" for alias in node.names
                    ]
                else:
                    continue
                if any(n == package or n.startswith(package + ".") for n in names):
                    offenders.append(f"{d}/{path.name}:{node.lineno}")
    return offenders


def test_transport_never_imports_perf():
    """Adapters are op sequences; the engine choice lives in repro.comm."""
    assert not _importers_of("repro.perf", "transport")


def test_nothing_below_the_ir_imports_it():
    """The dependency runs one way: ``ir`` and ``workloads`` sit on
    ``transport``; ``collectives`` sits beside them and calls the endpoint."""
    assert not _importers_of("repro.ir", "collectives", "transport", "comm")
