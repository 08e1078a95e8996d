"""The declared op accounting is what the endpoint executes.

Each endpoint class names the ``CommCosts`` fields one message and one
synchronisation cost (``Endpoint.ops``); ``TransportBackend.loggp`` turns
them into the paper's closed form.  Here one uncontended exchange between
ranks 0 and 1 (``spread``) is simulated per machine x backend x {mailbox,
batch} and held to that declaration twice:

(i)  the ``operations`` the two ranks count are the declared ones;
(ii) the makespan is ``MessageRoofline(backend.loggp(...)).time(B, n)``
     plus a residual written out below — zero where the simulator *is* the
     closed form today (``stream_triggered``, on every machine with a GPU);
     ``docs/MODEL.md`` §3 carries the table.

Dropping any one op from any declared tuple must break (i) or (ii).
"""

import pytest

from repro.comm import Job
from repro.machines import get_machine, machine_names
from repro.roofline import MessageRoofline
from repro.transport import (
    STREAM_TRIGGERED,
    BatchSpec,
    MailboxMsg,
    MailboxSpec,
    backend_names,
    get_backend,
)
from repro.transport.registry import _PATTERNS

WORDS = 100  # one notified message: 800 B of payload
NBYTES, N = 4096, 16  # one batch: 16 x 4 KiB, then one synchronisation



def _hosts(mname, rt):
    """Does the machine calibrate or derive a cost table for the backend?"""
    try:
        get_backend(rt).costs(get_machine(mname))
    except KeyError:
        return False
    return True


CASES = [
    (mname, rt, pattern)
    for mname in machine_names()
    for rt in backend_names()
    if _hosts(mname, rt)
    for pattern in ("mailbox", "batch")
]


def _run(machine, rt, pattern):
    """One exchange; returns the job result (makespan + merged counters)."""
    job = Job(machine, 2, rt, placement="spread")
    if pattern == "mailbox":
        chan = job.channel(
            MailboxSpec(data_words=WORDS, nslots=1, offsets={0: [0], 1: [0]})
        )

        def program(ctx):
            ep = chan.endpoint(ctx)
            if ctx.rank == 0:
                yield from ep.send_round(1, 0, words=WORDS)
            else:
                ep.expect({0: MailboxMsg(0, WORDS)})
                yield from ep.recv()
    else:
        chan = job.channel(BatchSpec(nbytes=NBYTES))

        def program(ctx):
            ep = chan.endpoint(ctx)
            if ctx.rank == 0:
                yield from ep.send_batch(1, 0, N)
            else:
                yield from ep.wait_batch(0, 0, N)

    return job.run(program)


def _residual(machine, backend, pattern, B, n):
    """What the simulator charges beyond (or short of) the closed form,
    as arithmetic over the cost table and the route."""
    c = backend.costs(machine)
    route = machine.topology.route(*machine.compute_endpoints[:2])
    L, G = route.latency, route.G + c.copy_per_byte
    per_msg, _ = backend.ops(pattern)
    if "isend" in per_msg:
        # A wait also books its request (wait_per_req); matching runs at
        # the receiver as each message lands, so a batch overlaps all but
        # the last recv_match that the closed form serialises into o.
        return n * c.wait_per_req - (n - 1) * c.recv_match
    if "put_signal" in per_msg:
        if pattern == "mailbox":
            # The hot wait_until_any rescans (wait_poll + poll_slot) when
            # the signal lands and never pays the cold wait_wakeup.
            return c.wait_poll + c.poll_slot - c.wait_wakeup
        return c.poll_slot  # wait_until_all rechecks its one slot, then wakes
    # One-sided MPI; the sender returns last.  A flush's CPU cost overlaps
    # the flight of the put it completes (the data, then the 8-byte
    # signal): max, where the closed form adds both flushes in full on top
    # of the data's L + B*G.
    return (
        max(c.flush, L + B * G) + max(c.flush, L + 8 * G)
        - (2 * c.flush + L + B * G)
    )


def _check(mname, rt, pattern):
    machine, backend = get_machine(mname), get_backend(rt)
    per_msg, per_sync = backend.ops(pattern)
    result = _run(machine, rt, pattern)
    if pattern == "mailbox":
        n, B = 1, WORDS * 8.0
        declared_ops = len(per_msg) + len(per_sync)
    else:
        n, B = N, float(NBYTES)
        # ... plus the one blocking call of the side the closed form does
        # not follow (the sender's Waitall / quiet, the RMA receiver's poll).
        declared_ops = n * len(per_msg) + len(per_sync) + 1
    if "put_signal" in per_msg:
        B += 8.0  # the fused op carries its 8-byte signal word
    assert result.counters.operations == declared_ops
    closed = float(MessageRoofline(backend.loggp(machine, pattern)).time(B, n))
    residual = _residual(machine, backend, pattern, B, n)
    if rt == STREAM_TRIGGERED:
        assert residual == 0.0  # zeroed host terms: the closed form itself
    assert result.time == pytest.approx(closed + residual, rel=1e-12)


@pytest.mark.parametrize("mname, rt, pattern", CASES)
def test_declared_ops_are_what_executes(mname, rt, pattern):
    _check(mname, rt, pattern)


@pytest.mark.parametrize("mname, rt, pattern", CASES)
def test_dropping_any_declared_op_is_caught(mname, rt, pattern, monkeypatch):
    backend = get_backend(rt)
    endpoint_cls = backend.endpoints[_PATTERNS[pattern]]
    declared = endpoint_cls.ops
    for which in (0, 1):
        for i in range(len(declared[which])):
            mutated = list(declared)
            mutated[which] = declared[which][:i] + declared[which][i + 1:]
            monkeypatch.setattr(endpoint_cls, "ops", tuple(mutated))
            with pytest.raises(AssertionError):
                _check(mname, rt, pattern)
    monkeypatch.setattr(endpoint_cls, "ops", declared)
    _check(mname, rt, pattern)


# -- the floats of the three-way switch this replaced ----------------------

# What the callers of ``MachineModel.loggp(..., sided=, ops_per_message=)``
# passed, and the pattern each now names instead.
REPLACED = [
    ("two", 1, "batch"),  # ablation_gap, ablation_sharp_junction, quickstart
    ("two", 2, "halo"),  # fig06 stencil
    ("two", 2, "mailbox"),  # fig06 sptrsv, selector, ir.cost
    ("two", 2, "atomic"),  # fig06 hashtable
    ("one", 1, "batch"),  # fig01, repro roofline, roofline_tour
    ("one", 1, "halo"),  # fig06 stencil
    ("one", 4, "mailbox"),  # fig06 sptrsv, fig07, selector, ir.cost
    ("shmem", 1, "batch"),  # repro roofline
    ("shmem", 4, "mailbox"),  # fig07; selector and ir.cost passed 1
]
FAMILY = {"isend": "two", "put": "one", "put_signal": "shmem"}


def _switch(costs, route, sided, ops):
    """``(L, o, o_sync)`` as ``machines/base.py`` computed them."""
    if sided == "two":
        return route.latency, costs.isend + costs.recv_match, costs.sync_enter
    if sided == "shmem":
        return route.latency, costs.put_signal, costs.wait_wakeup
    puts, flushes = (ops + 1) // 2, ops // 2
    o_sync = costs.put + 2 * costs.flush + 4 * route.latency if ops == 1 else 0.0
    return (
        route.latency * (1.0 + 2.0 * flushes),
        puts * costs.put + flushes * costs.flush,
        o_sync,
    )


@pytest.mark.parametrize("mname, rt, sided, ops, pattern", [
    (mname, rt, sided, ops, pattern)
    for mname in machine_names(include_projections=True)
    for rt in backend_names()
    if _hosts(mname, rt)
    for sided, ops, pattern in REPLACED
    if FAMILY[get_backend(rt).ops("mailbox")[0][0]] == sided
])
def test_same_floats_as_the_switch(mname, rt, sided, ops, pattern):
    machine, backend = get_machine(mname), get_backend(rt)
    costs = backend.costs(machine)
    route = machine.topology.route(*machine.compute_endpoints[:2])
    p = backend.loggp(machine, pattern)
    assert (p.L, p.o, p.o_sync) == _switch(costs, route, sided, ops)
    assert (p.g, p.G) == (max(route.gap, 0.0), route.G + costs.copy_per_byte)
