"""MPI non-overtaking on a fabric that reorders one pair's messages.

Rank ``src`` ``isend``s a run of messages with one tag to rank ``dst``,
which posts one ``recv(src, tag)`` per message.  The payloads must come
back in send order even where the fabric lands them out of order: on a
second NVLink sub-channel, on a fast hop after a slow one, or under link
jitter.  Each case reordered the receives before sends were sequenced.
"""

import repro
from repro import obs
from repro.comm.job import Job
from repro.faults import FaultPlan, inject


def _received(machine, sizes, *, nranks=2, src=0, dst=1, placement="spread"):
    def program(ctx):
        if ctx.rank == src:
            reqs = []
            for i, nbytes in enumerate(sizes):
                reqs.append((yield from ctx.isend(dst, nbytes, tag=0, payload=i)))
            yield from ctx.waitall(reqs)
        elif ctx.rank == dst:
            got = []
            for _ in sizes:
                payload, _status = yield from ctx.recv(src, 0)
                got.append(payload)
            return got

    job = Job(machine, nranks, "two_sided", placement=placement)
    return job.run(program).results[dst]


def test_a_small_message_on_a_second_nvlink_channel_does_not_overtake():
    """The 8 B message takes the second sub-channel and lands first."""
    machine = repro.get_machine("perlmutter-gpu")
    assert _received(machine, [16384, 8]) == [0, 1]


def test_a_fast_hop_after_a_slow_one_does_not_reorder_a_pair():
    """Three adjacent pairs (5/6, 10/11, 15/16) used to swap: a hop after
    the bottleneck frees before the tail of a large message has passed."""
    machine = repro.get_machine("frontier-cpu-x16@fattree(4)")
    sizes = [16384, 8, 8, 16384, 8] * 4
    got = _received(machine, sizes, nranks=8, dst=7, placement="block")
    assert got == list(range(len(sizes)))


def test_a_jittered_flood_is_received_in_send_order():
    machine = repro.get_machine("perlmutter-cpu")
    with inject(FaultPlan.uniform(jitter=8e-6, seed=3)):
        got = _received(machine, [64] * 32)
    assert got == list(range(32))


def test_a_held_arrival_is_counted():
    """The hold changes when a message matches, so it leaves a count."""
    with obs.observe(obs.Obs()) as session:
        with inject(FaultPlan.uniform(jitter=8e-6, seed=3)):
            _received(repro.get_machine("perlmutter-cpu"), [64] * 32)
    snap = session.snapshot()
    assert snap["comm.two_sided.held"] > 0
    assert snap["comm.two_sided.rendezvous"] == 0  # 64 B is eager
