"""Heap order is pinned, not inferred.

The goldens and ``sim_digest`` see simulated *results*; two events that
tie on simulated time can swap their ``(time, seq)`` heap order without
moving a rendered table — until a later change makes one of them matter.
Symmetric ring rounds tie constantly, so the engine's resume order is
hashed here directly: every time any process is resumed, ``(sim.now,
process name)`` goes into a SHA-256.  The digests must stay green through
any change to ``repro.sim``, ``repro.ir.lower`` or the ``repro.comm``
completion paths.  A hash that moves means a live event was merged,
dropped or re-timed; ``resume_projection.py`` tells a merge of a wake and
its fixed charge (which may drop that resume and nothing else) from a
reordering.

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
from repro.workloads.flood import run_cas_flood, run_flood
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
    # window's writes; shmem, wait_until_any; two-sided, Recv(ANY_SOURCE).
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


def _cas_flood(machine, runtime):
    # Rank 0's back-to-back CAS stream on one remote counter, scalar chain.
    def run():
        with perf.vectorized(False):
            run_cas_flood(get_machine(machine), runtime, n_ops=16)

    return run


def _striped_round():
    # Four equal stripes per round message on an all-to-all NVLink node:
    # each stripe is its own put_signal_nbi, whatever the engine setting.
    run_collective(
        get_machine("perlmutter-gpu"), "shmem", "allreduce",
        nranks=4, nbytes=4 << 20, algorithm="ring", stripes=4,
    )


# (resumes, sha256) of the resume sequence, generated with this instrument
# once a wake's fixed charge rode on the wake (``yield (wait_list, d)``):
# each is the earlier digest's log with only its woken-then-slept resumes
# removed, in the same order — ``resume_projection.py`` in this directory
# re-checks that against any base commit.
EXPECTED = {
    "shmem_ring_allreduce": (
        704, "c05408318e1a348dc71c4abd7ea54cb0ca6bed97d2c245d7941fc181626621d7"
    ),
    "one_sided_flood": (
        58, "a3ecad24e047e05edfc729906e4d0a1ab7444d71687a99ffd0b3be4e73d81a3e"
    ),
    "two_sided_flood": (
        78, "789128dd53690e213f7052cb3c432e65d57b76cc1ba9d50f7c35adee47d70653"
    ),
    "shmem_halo": (
        88, "7f905fb81427880080b127d722b2e06c51b9cf2b4765c7d8dd497357a025390b"
    ),
    "one_sided_hashtable": (
        1727, "dbc85c05374c799792ff092a5e0bc6e55cf6dd624cf87ab0cbe1821f9406b153"
    ),
    "shmem_hashtable": (
        1797, "eeac6f1267aaedc123868a57a21cfa5bb4557bc12a520e83dc1497a5dcff64c3"
    ),
    "two_sided_hashtable": (
        1843, "18bcb4879dc8fc438e6223432ead1e3dba410e401982b9fc2e5d7883ce3a2303"
    ),
    "one_sided_sptrsv": (
        948, "0b3b2b609da0a525ea37e55f98e0e1bf0a9ca01a8cdbf8d9868189d86b9e1025"
    ),
    "shmem_sptrsv": (
        238, "2a25222a47ab8b811316b267026d64aed53fccdc52aae214bc4f29f0bfa92f69"
    ),
    "two_sided_sptrsv": (
        478, "03f7321d3a919ccb736866fff758ac875cedd044d5fa5933e05d049159cabef9"
    ),
    "copy_engine_put_flood": (
        54, "adc9584a59c9a524ce7c3db61f07617dd4e9187c56113e34d8effbb8152b4a45"
    ),
    "rendezvous_flood": (
        48, "1a4bd378ea36554a8ab9c8774efcbdab1415713da5233dc6a1bf5bb9d04c9900"
    ),
    "lossy_one_sided_hashtable": (
        1727, "f276ace55926cd401decc66adc42f1deab30b89ec671bf626e3b4563c509c1c4"
    ),
    "two_sided_uneven_stencil": (
        150, "fb8453e8869cf07bdd7d2256b4d08ee2962b6af028aa7e0bf49a314928c11f14"
    ),
    "one_sided_uneven_stencil": (
        162, "7cab023f0b67b377e518c95f8b5b9f3146a9ae51f788ac1739e2759bc8226d18"
    ),
    "shmem_uneven_stencil": (
        118, "3c7fdda12801b3bf5836208a1639294ebf5ea0c58599cd109ce67f9f57c31f6a"
    ),
    "striped_round": (
        228, "6f51c3a97a642c1233d4194446f8c5c7f86a7d3b2661911b2766ab569948bea2"
    ),
    "one_sided_cas_flood": (
        36, "3f5e8679c34f8efb039848b55f2b17c2de47a0c5d527d9381fb63c2f0883c18d"
    ),
    "shmem_cas_flood": (
        36, "e2a2902bf84cf15a3a6881930e7df1673822e5043d63db4a4ee0da375e86e5c1"
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
    "two_sided_sptrsv": _sptrsv("perlmutter-cpu", "two_sided", 8),
    "copy_engine_put_flood": _copy_engine_puts,
    "rendezvous_flood": _rendezvous_flood,
    "lossy_one_sided_hashtable": _lossy_hashtable,
    "two_sided_uneven_stencil": _uneven_stencil("perlmutter-cpu", "two_sided"),
    "one_sided_uneven_stencil": _uneven_stencil("perlmutter-cpu", "one_sided"),
    "shmem_uneven_stencil": _uneven_stencil("summit-gpu", "shmem"),
    "striped_round": _striped_round,
    "one_sided_cas_flood": _cas_flood("perlmutter-cpu", "one_sided"),
    "shmem_cas_flood": _cas_flood("perlmutter-gpu", "shmem"),
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
