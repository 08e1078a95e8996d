"""Heap order is pinned, not inferred.

The goldens and ``sim_digest`` see simulated *results*; two events that
tie on simulated time can swap their ``(time, seq)`` heap order without
moving a rendered table — until a later change makes one of them matter.
Symmetric ring rounds tie constantly, so the engine's resume order is
hashed here directly: every time any process is resumed, ``(sim.now,
process name)`` goes into a SHA-256.  The expected digests were generated
at the commit *before* the flat engine step / fused resume / completion
flags landed (PR 16's head) and must stay green through any change to
``repro.sim``, ``repro.ir.lower`` or the ``repro.comm`` completion paths.
A hash that moves means a live event was merged, dropped or re-timed.

The instrument wraps the generator handed to ``Simulator.process`` — it
reads nothing of the engine's internals, so it measures the same thing
before and after a rewrite of them.
"""

from __future__ import annotations

import hashlib
import struct

import pytest

from repro import faults, perf
from repro.collectives import run_collective
from repro.machines import get_machine
from repro.sim import Simulator
from repro.workloads.flood import run_flood
from repro.workloads.hashtable import HashTableConfig, run_hashtable
from repro.workloads.sptrsv import MatrixSpec, generate_matrix, run_sptrsv
from repro.workloads.stencil import ProcessGrid, StencilConfig, run_stencil


def _logged(sim, name, generator, log):
    """Delegate to ``generator``, logging ``(now, name)`` at every resume."""
    send, throw = generator.send, generator.throw
    resume, arg = send, None
    while True:
        log.append((sim.now, name))
        try:
            target = resume(arg)
        except StopIteration as stop:
            return stop.value
        try:
            resume, arg = send, (yield target)
        except BaseException as exc:  # interrupt / failed event: forward it
            resume, arg = throw, exc


@pytest.fixture
def resume_log(monkeypatch):
    log: list[tuple[float, str]] = []
    real = Simulator.process

    def process(self, generator, name=None):
        name = name or getattr(generator, "__name__", "process")
        return real(self, _logged(self, name, generator, log), name=name)

    monkeypatch.setattr(Simulator, "process", process)
    return log


def _digest(log) -> tuple[int, str]:
    h = hashlib.sha256()
    for now, name in log:
        h.update(struct.pack("<d", now))
        h.update(name.encode())
    return len(log), h.hexdigest()


def _ring_allreduce():
    run_collective(
        get_machine("perlmutter-gpu-x8@dragonfly(4,2,2)"), "shmem", "allreduce",
        nranks=8, nelems=4096, algorithm="ring", iters=2,
    )


def _flood(runtime):
    def run():
        with perf.vectorized(False):  # the scalar chain: one event per message
            run_flood(get_machine("perlmutter-cpu"), runtime, 4096, 16, iters=2)

    return run


def _shmem_halo():
    # put_signal_nbi with no quiet, wait_until_all over several slots.
    cfg = StencilConfig(nx=24, ny=24, iters=4, mode="execute")
    with perf.vectorized(False):
        run_stencil(get_machine("perlmutter-gpu"), "shmem", cfg, 4, grid=ProcessGrid(2, 2))


def _hashtable_inserts(machine, runtime):
    # Eight origins' blocking CAS / FAA / swap streams meeting at the
    # targets' atomic units; a collision also does the put + flush_local.
    def run():
        cfg = HashTableConfig(total_inserts=400, load_factor=0.9, seed=3)
        res = run_hashtable(get_machine(machine), runtime, cfg, 8)
        assert res.extras["collisions"] > 40

    return run


def _two_sided_hashtable():
    # recv_poll: every owner parks on its arrival queue between inserts.
    cfg = HashTableConfig(total_inserts=400, load_factor=0.9, seed=3)
    run_hashtable(get_machine("perlmutter-cpu"), "two_sided", cfg, 8)


def _sptrsv(machine, runtime, nranks):
    # The receive loop: one-sided, the Listing-1 poll parked on the signal
    # window's writes; shmem, wait_until_any.
    def run():
        matrix = generate_matrix(MatrixSpec(n_supernodes=40, seed=1))
        run_sptrsv(get_machine(machine), runtime, matrix, nranks)

    return run


def _copy_engine_puts():
    # summit-cpu's one-sided runtime has copy_per_byte > 0: each put becomes
    # visible a copy-engine delay after its delivery, a second heap trip.
    machine = get_machine("summit-cpu")
    assert machine.runtimes["one_sided"].copy_per_byte > 0
    with perf.vectorized(False):
        run_flood(machine, "one_sided", 4096, 16, iters=2)


def _rendezvous_flood():
    # 64 KiB is over the eager threshold: RTS, CTS and data legs per message.
    machine = get_machine("perlmutter-cpu")
    assert machine.runtimes["two_sided"].eager_threshold < 65536
    with perf.vectorized(False):
        run_flood(machine, "two_sided", 65536, 8, iters=2)


def _lossy_hashtable():
    # Dropped and retransmitted atomic request / response legs.
    cfg = HashTableConfig(total_inserts=400, load_factor=0.9, seed=3)
    with faults.inject(faults.FaultPlan.uniform(loss=0.02, seed=11)) as scope:
        run_hashtable(get_machine("perlmutter-cpu"), "one_sided", cfg, 8)
    assert scope.stats()["retransmits"] > 0


def _uneven_stencil(machine, runtime):
    # 33x35 on a 3x2 grid: neighbouring blocks differ in size, so every
    # strip lands at an offset of the receiver's own layout.
    def run():
        cfg = StencilConfig(nx=33, ny=35, iters=3, mode="execute")
        run_stencil(get_machine(machine), runtime, cfg, 6, grid=ProcessGrid(3, 2))

    return run


def _striped_round():
    # Four equal stripes per round message on an all-to-all NVLink node:
    # each stripe is its own put_signal_nbi, whatever the engine setting.
    run_collective(
        get_machine("perlmutter-gpu"), "shmem", "allreduce",
        nranks=4, nbytes=4 << 20, algorithm="ring", stripes=4,
    )


# (resumes, sha256) of the resume sequence, generated at PR 16's head — the
# two hashtable epochs at PR 19's, before a blocking atomic became one frame.
# The next three: before a single waiter parked itself on a wait list; the
# last three: before a comm delivery became its op record on the heap.
EXPECTED = {
    "shmem_ring_allreduce": (
        936, "4eb4fad471a3da08bf9e9f96a33f2bac0bfbfa48ac43981a8ca703ec8b4878ef"
    ),
    "one_sided_flood": (
        66, "75f3034aeec6280d8a5395f03905cb09194f04812ee4e3af8cae91c8d3001e7f"
    ),
    "two_sided_flood": (
        84, "f82be6e905e3ddef0fba56568100aff5a86c819086ce2df164c6622d0f4418bb"
    ),
    "shmem_halo": (
        108, "c4c7939ce95905e5007cfa3d2783be1e53ced8fb2d49d04f0ce82ec1ad2badbf"
    ),
    "one_sided_hashtable": (
        2421, "ed9bbd2c44aa1b6aa347380480ddd105f60cf196e0c0a708af3c67c6004088c2"
    ),
    "shmem_hashtable": (
        1813, "01c61a43e1f5d375646278142a0acf5da5864d6421efd1e95fdce1d8f86c5c30"
    ),
    "two_sided_hashtable": (
        2564, "a70e6d1ef192f43a28d2702233937730d394eacf31ef3768f936b036d8c061bc"
    ),
    "one_sided_sptrsv": (
        956, "5af019e657b075dc9b8c9bc789cfd9da10a90ae3191c2838bbdc4865611149af"
    ),
    "shmem_sptrsv": (
        275, "3d9687890bf03d5abce8ae57bf35d357df087aed02bc24ec1641ec50d8b00a12"
    ),
    "copy_engine_put_flood": (
        62, "9272200704454eb2ab3cf572fca9d2d6fc55baa3032e621ad329c10e07a171c8"
    ),
    "rendezvous_flood": (
        54, "9e244eece437706775d530371a924647c4c2cac2cba37549c7a3f933cfa5beab"
    ),
    "lossy_one_sided_hashtable": (
        2421, "ec17e2f70bb1ff42d391adb2cb36aec4516131743986afa503b2571e2691aad0"
    ),
    # Generated before the halo exchange was derived from the stencil's
    # offsets; ``striped_round`` was recorded with the bulk engine off,
    # before a striped round stopped being a batch.
    "two_sided_uneven_stencil": (
        156, "b356cf1676842920e74f30feeaa359dd3126cbdc2dca347c8ed9cf4775d8c95f"
    ),
    "one_sided_uneven_stencil": (
        204, "00231f1116df2bd7cbc11b00dfa9e209c564faa15e3d712e2c3f69a0b55dfef6"
    ),
    "shmem_uneven_stencil": (
        152, "f03de7bed1e3ee91956085609101b9524d6c3f654358d914195a4eeff5e308d8"
    ),
    "striped_round": (
        328, "8adcbfcafeb7125e94d06c86982514b858ecdc14049f8bb1673be44b83b1ce7c"
    ),
}
SCENARIOS = {
    "shmem_ring_allreduce": _ring_allreduce,
    "one_sided_flood": _flood("one_sided"),
    "two_sided_flood": _flood("two_sided"),
    "shmem_halo": _shmem_halo,
    "one_sided_hashtable": _hashtable_inserts("perlmutter-cpu", "one_sided"),
    "shmem_hashtable": _hashtable_inserts(
        "perlmutter-gpu-x8@dragonfly(4,2,2)", "shmem"
    ),
    "two_sided_hashtable": _two_sided_hashtable,
    "one_sided_sptrsv": _sptrsv("perlmutter-cpu", "one_sided", 8),
    "shmem_sptrsv": _sptrsv("perlmutter-gpu", "shmem", 4),
    "copy_engine_put_flood": _copy_engine_puts,
    "rendezvous_flood": _rendezvous_flood,
    "lossy_one_sided_hashtable": _lossy_hashtable,
    "two_sided_uneven_stencil": _uneven_stencil("perlmutter-cpu", "two_sided"),
    "one_sided_uneven_stencil": _uneven_stencil("perlmutter-cpu", "one_sided"),
    "shmem_uneven_stencil": _uneven_stencil("summit-gpu", "shmem"),
    "striped_round": _striped_round,
}


@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_resume_order_is_unchanged(scenario, resume_log):
    SCENARIOS[scenario]()
    assert _digest(resume_log) == EXPECTED[scenario]


def test_ring_allreduce_ties_on_simulated_time(resume_log):
    """The scenario is worth hashing only while it is tie-heavy: most
    resumes share their instant with another rank's."""
    _ring_allreduce()
    times = [now for now, _ in resume_log]
    assert len(set(times)) < len(times) / 2
