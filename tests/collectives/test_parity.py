"""Cross-backend parity: one schedule, five transports, same accounting.

The tentpole guarantee of :mod:`repro.collectives` is that an algorithm
is written once against the round-slotted verbs and means the same thing
on every backend.  Two observable invariants pin that:

* **accounting parity** — :class:`CollectiveStats` (ops, rounds,
  messages, bytes_moved) is counted schedule-side, so identical plans
  must report *identical* stats on every backend;
* **value parity** — execute-mode outputs are bit-identical across
  backends (they all ran the same numpy reductions in the same order).

Timing is explicitly *not* part of parity — differing per-backend cost
tables are the paper's entire subject.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.collectives import run_collective
from repro.machines import perlmutter_cpu, perlmutter_gpu
from repro.transport import ONE_SIDED, SHMEM, TWO_SIDED

from tests.collectives.conftest import ALL_RUNTIMES

# (coll, algorithm, P, nelems, stripes) — one cell per schedule family,
# pow2 and non-pow2, striped and not.
CASES = [
    ("allreduce", "ring", 4, 7, 1),
    ("allreduce", "ring", 4, 8, 2),
    ("allreduce", "recursive_doubling", 5, 6, 1),
    ("allgather", "ring", 3, 4, 1),
    ("allgather", "recursive_doubling", 6, 3, 1),
    ("reduce_scatter", "ring", 5, 3, 1),
    ("reduce_scatter", "recursive_halving", 4, 9, 1),
    ("alltoall", "pairwise", 4, 2, 1),
    ("alltoall", "ring", 5, 2, 1),
    ("broadcast", "tree", 5, 6, 1),
    ("broadcast", "ring", 4, 6, 3),
    ("barrier", "dissemination", 5, 0, 1),
    ("barrier", "tree", 6, 0, 1),
]

IDS = [f"{c}-{a}-P{p}-n{n}-s{s}" for c, a, p, n, s in CASES]


def _vals(coll, P, n):
    if coll == "barrier":
        return None
    rng = np.random.default_rng(42)
    length = P * n if coll == "alltoall" else n
    return [rng.integers(-9, 9, size=length).astype(np.float64)
            for _ in range(P)]


@pytest.mark.parametrize(("coll", "algorithm", "P", "n", "stripes"),
                         CASES, ids=IDS)
def test_stats_and_values_identical_across_backends(
    gpu_all_runtimes, coll, algorithm, P, n, stripes
):
    vals = _vals(coll, P, n)
    if coll == "broadcast":
        vals = [vals[0]] + [None] * (P - 1)
    results = {}
    for rt in ALL_RUNTIMES:
        kwargs = {} if coll == "barrier" else {"nelems": n, "values": vals}
        results[rt] = run_collective(
            gpu_all_runtimes, rt, coll, nranks=P, algorithm=algorithm,
            stripes=stripes, **kwargs,
        )
    ref = results[TWO_SIDED]
    for rt, r in results.items():
        assert r.stats.as_dict() == ref.stats.as_dict(), (
            f"{rt} accounting diverges from two_sided"
        )
        assert len(r.results) == len(ref.results)
        for got, want in zip(r.results, ref.results):
            np.testing.assert_array_equal(got, want, err_msg=rt)


def test_ring_allreduce_accounting_closed_form(gpu_all_runtimes):
    """P=4, n=8 ring allreduce: 2(P-1) rounds of n/P words per rank."""
    P, n, stripes = 4, 8, 2
    # Every backend on the synthetic machine, then each measured machine's
    # native pair (the GPU's NVLink mesh is where shmem rounds go bulk).
    cells = [(gpu_all_runtimes, rt) for rt in ALL_RUNTIMES]
    cells += [(perlmutter_gpu(), rt) for rt in (SHMEM, TWO_SIDED)]
    cells += [(perlmutter_cpu(), rt) for rt in (ONE_SIDED, TWO_SIDED)]
    for machine, rt in cells:
        r = run_collective(machine, rt, "allreduce", nranks=P,
                           nelems=n, algorithm="ring", stripes=stripes)
        assert r.stats.ops == 1
        assert r.stats.rounds == 2 * (P - 1)
        assert r.stats.messages == P * 2 * (P - 1) * stripes
        assert r.stats.bytes_moved == P * 2 * (P - 1) * (n // P) * 8.0


def test_stats_bytes_are_the_bytes_on_the_wire():
    """A word is the channel's element, whichever plan comes first: what
    two-sided hands the fabric for a mixed sequence is what the stats say."""
    from repro.collectives import CollectiveComm, CollectivePlan
    from repro.comm import Job

    plans = [CollectivePlan("allreduce", "ring", 4, 1024),
             CollectivePlan("allgather", "ring", 4, 16)]
    job = Job(perlmutter_cpu(), 4, TWO_SIDED)
    comm = CollectiveComm(job, plans)

    def program(ctx):
        ep = comm.endpoint(ctx)
        for _ in plans:
            yield from ep.run()

    res = job.run(program)
    assert res.counters.bytes_sent == comm.stats.bytes_moved == 50_688.0


def test_bus_bandwidth_is_wire_bytes_over_time(gpu_all_runtimes):
    """bus_bandwidth re-derives from the stats on every backend."""
    for rt in ALL_RUNTIMES:
        r = run_collective(gpu_all_runtimes, rt, "allreduce", nranks=4,
                           nelems=1024, algorithm="ring", iters=2)
        wire_per_rank = r.stats.bytes_moved / r.iters / r.nranks
        assert r.bus_bandwidth == pytest.approx(wire_per_rank / r.time)
        # Ring allreduce: bus bytes per rank = 2(P-1)/P * payload.
        assert wire_per_rank == pytest.approx(2 * 3 / 4 * r.nbytes)


def test_timings_differ_but_order_is_sane(gpu_all_runtimes):
    """Parity is accounting, not timing: the cost tables still differ
    (and the synthetic hw put+signal is never slower than the 4-op
    one-sided emulation on the same machine)."""
    t = {
        rt: run_collective(gpu_all_runtimes, rt, "allreduce", nranks=4,
                           nelems=4096, algorithm="ring").time
        for rt in ALL_RUNTIMES
    }
    assert len({round(v, 12) for v in t.values()}) > 1
    assert t["one_sided_hw"] <= t["one_sided"]
    # Host bypass strictly removes overhead: stream-triggered is never
    # slower than any host-driven runtime on the same machine.
    assert t["stream_triggered"] <= min(
        t[rt] for rt in ALL_RUNTIMES if rt != "stream_triggered"
    )
    # On the measured GPU node the order is the paper's: the striped
    # NVSHMEM ring out-runs host MPI at a bandwidth-bound 4 MiB.
    gpu = {
        rt: run_collective(perlmutter_gpu(), rt, "allreduce", nranks=4,
                           nbytes=4 << 20, algorithm="ring",
                           stripes=stripes).bus_bandwidth
        for rt, stripes in ((SHMEM, 4), (TWO_SIDED, 1))
    }
    assert gpu[SHMEM] > gpu[TWO_SIDED]
