"""Two-sided verbs through the Job runner: semantics and timing."""

import numpy as np
import pytest

from repro.comm import ANY_SOURCE, CommError, Job


def run2(machine, program, **kwargs):
    job = Job(machine, 2, "two_sided", placement="spread", **kwargs)
    return job, job.run(program)


class TestSendRecv:
    def test_payload_roundtrip(self, pm_cpu):
        data = np.arange(16.0)

        def program(ctx):
            if ctx.rank == 0:
                r = yield from ctx.isend(1, nbytes=128, payload=data)
                yield from ctx.waitall([r])
                return None
            payload, status = yield from ctx.recv(source=0)
            return payload, status

        _, res = run2(pm_cpu, program)
        payload, status = res.results[1]
        assert np.array_equal(payload, data)
        assert status.nbytes == 128

    def test_any_source_receive(self, pm_cpu):
        def program(ctx):
            if ctx.rank == 0:
                r = yield from ctx.isend(1, nbytes=8, payload="hello")
                yield from ctx.waitall([r])
                return None
            payload, status = yield from ctx.recv(source=ANY_SOURCE)
            return status.source

        _, res = run2(pm_cpu, program)
        assert res.results[1] == 0

    def test_tag_selectivity(self, pm_cpu):
        def program(ctx):
            if ctx.rank == 0:
                r1 = yield from ctx.isend(1, nbytes=8, tag=1, payload="one")
                r2 = yield from ctx.isend(1, nbytes=8, tag=2, payload="two")
                yield from ctx.waitall([r1, r2])
                return None
            # Receive tag 2 first although tag 1 arrived earlier.
            p2, _ = yield from ctx.recv(source=0, tag=2)
            p1, _ = yield from ctx.recv(source=0, tag=1)
            return p1, p2

        _, res = run2(pm_cpu, program)
        assert res.results[1] == ("one", "two")

    def test_out_of_range_dest_rejected(self, pm_cpu):
        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.isend(5, nbytes=8)
            else:
                yield from ctx.compute(seconds=0)

        job = Job(pm_cpu, 2, "two_sided")
        with pytest.raises(CommError):
            job.run(program)

    def test_message_ordering_same_pair(self, pm_cpu):
        """Non-overtaking: same (src, dst, tag) arrive in send order."""

        def program(ctx):
            if ctx.rank == 0:
                reqs = []
                for i in range(10):
                    r = yield from ctx.isend(1, nbytes=64, tag=0, payload=i)
                    reqs.append(r)
                yield from ctx.waitall(reqs)
                return None
            got = []
            for _ in range(10):
                p, _ = yield from ctx.recv(source=0, tag=0)
                got.append(p)
            return got

        _, res = run2(pm_cpu, program)
        assert res.results[1] == list(range(10))


class TestRendezvous:
    def test_large_message_delivered(self, pm_cpu):
        big = np.ones(100_000)

        def program(ctx):
            if ctx.rank == 0:
                r = yield from ctx.isend(1, nbytes=800_000, payload=big)
                yield from ctx.waitall([r])
                return None
            p, st = yield from ctx.recv(source=0)
            return p.sum(), st.nbytes

        _, res = run2(pm_cpu, program)
        assert res.results[1] == (100_000.0, 800_000)

    def test_rendezvous_waits_for_receiver(self, pm_cpu):
        """Data doesn't move until the receive is posted: sender completion
        time reflects the receiver's late arrival."""

        def program(ctx):
            if ctx.rank == 0:
                r = yield from ctx.isend(1, nbytes=1_000_000)
                yield from ctx.waitall([r])
                return ctx.sim.now
            yield from ctx.compute(seconds=1e-3)  # busy for 1 ms
            yield from ctx.recv(source=0)
            return ctx.sim.now

        _, res = run2(pm_cpu, program)
        assert res.results[0] > 1e-3  # sender waited for the late recv

    def test_eager_completes_locally(self, pm_cpu):
        """Small sends buffer locally: sender is done long before the
        (late) receiver picks it up."""

        def program(ctx):
            if ctx.rank == 0:
                r = yield from ctx.isend(1, nbytes=64)
                yield from ctx.waitall([r])
                return ctx.sim.now
            yield from ctx.compute(seconds=1e-3)
            yield from ctx.recv(source=0)
            return ctx.sim.now

        _, res = run2(pm_cpu, program)
        assert res.results[0] < 1e-4


class TestWaits:
    def test_waitall_returns_all_values(self, pm_cpu):
        def program(ctx):
            if ctx.rank == 0:
                reqs = []
                for i in range(3):
                    r = yield from ctx.isend(1, nbytes=8, tag=i, payload=i)
                    reqs.append(r)
                yield from ctx.waitall(reqs)
                return None
            reqs = []
            for i in range(3):
                r = yield from ctx.irecv(source=0, tag=i)
                reqs.append(r)
            values = yield from ctx.waitall(reqs)
            return [v[0] for v in values]

        _, res = run2(pm_cpu, program)
        assert res.results[1] == [0, 1, 2]

    def test_recv_poll_equivalent_to_recv(self, pm_cpu):
        def program(ctx):
            if ctx.rank == 0:
                r = yield from ctx.isend(1, nbytes=8, payload="ping")
                yield from ctx.waitall([r])
                return None
            p, st = yield from ctx.recv_poll(source=0)
            return p

        _, res = run2(pm_cpu, program)
        assert res.results[1] == "ping"

    def test_recv_poll_handles_rendezvous(self, pm_cpu):
        def program(ctx):
            if ctx.rank == 0:
                r = yield from ctx.isend(1, nbytes=500_000, payload="big")
                yield from ctx.waitall([r])
                return None
            p, st = yield from ctx.recv_poll(source=0)
            return p, st.nbytes

        _, res = run2(pm_cpu, program)
        assert res.results[1] == ("big", 500_000)


class TestDeadlockDiagnosis:
    def test_mutual_recv_names_both_ranks(self, pm_cpu):
        """Two ranks each waiting for the other's message: the error says
        who is stuck and on what, not only when."""
        from repro.sim import DeadlockError

        job = Job(pm_cpu, 2, "two_sided", placement="spread")

        def program(ctx):
            yield from ctx.recv(source=1 - ctx.rank)

        with pytest.raises(DeadlockError) as info:
            job.run(program)
        msg = str(info.value)
        for rank in (0, 1):
            posted = job.contexts[rank].engine._posted[0].event
            assert f"process 'rank{rank}' is parked on {posted!r}" in msg


class TestInstrumentation:
    def test_counters_track_messages_and_syncs(self, pm_cpu):
        def program(ctx):
            if ctx.rank == 0:
                reqs = []
                for _ in range(4):
                    r = yield from ctx.isend(1, nbytes=64)
                    reqs.append(r)
                yield from ctx.waitall(reqs)
                return None
            for _ in range(4):
                r = yield from ctx.irecv(source=0)
                yield from ctx.wait(r)

        job, res = run2(pm_cpu, program)
        sender = res.per_rank[0]
        assert sender.messages == 4
        assert sender.bytes_sent == 256
        assert sender.syncs == 1
        assert sender.msgs_per_sync() == pytest.approx(4.0)
        receiver = res.per_rank[1]
        assert receiver.recv_messages == 4
        assert receiver.syncs == 4
