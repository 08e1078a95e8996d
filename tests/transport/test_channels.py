"""Channel/endpoint contract: verb errors, spec dispatch, no-op verbs,
and cross-backend result parity of the unified workload programs."""

import numpy as np
import pytest

from repro.comm import Job
from repro.comm.base import CommError
from repro.experiments.ablations import _with_hw_put_signal
from repro.transport import (
    ONE_SIDED,
    ONE_SIDED_HW,
    SHMEM,
    STREAM_TRIGGERED,
    TWO_SIDED,
    AtomicDomainSpec,
    BatchSpec,
    Channel,
    Endpoint,
    MailboxSpec,
    SpaceSpec,
    TransportBackend,
    UnsupportedTransportOp,
    get_backend,
)

CPU_BACKENDS = (TWO_SIDED, ONE_SIDED)
ALL_BACKENDS = (TWO_SIDED, ONE_SIDED, SHMEM)


class TestSpecDispatch:
    def test_unknown_spec_type_rejected(self, pm_cpu):
        job = Job(pm_cpu, 2, TWO_SIDED)
        with pytest.raises(TypeError, match="unknown channel spec"):
            job.channel(object())

    def test_base_backend_supports_nothing(self, pm_cpu):
        class Bare(TransportBackend):
            name = "bare"

        job = Job(pm_cpu, 2, TWO_SIDED)
        for spec in (
            BatchSpec(nbytes=64),
            MailboxSpec(data_words=1, nslots=1, offsets={0: [0], 1: [0]}),
            AtomicDomainSpec(spaces={"a": SpaceSpec(1)}),
        ):
            with pytest.raises(NotImplementedError, match="bare"):
                Bare().open(job, spec)

    @pytest.mark.parametrize("nbytes", [0, 4, 100, -8])
    def test_batch_spec_needs_whole_elements(self, nbytes):
        with pytest.raises(ValueError, match="multiple of the 8-byte element"):
            BatchSpec(nbytes=nbytes)
        assert BatchSpec(nbytes=96).nelems == 12

    def test_every_builtin_opens_every_pattern(self, pm_cpu, pm_gpu):
        from repro.workloads.stencil.runner import _layout
        from repro.workloads.stencil.decomposition import ProcessGrid

        specs = (
            _layout(ProcessGrid.square_ish(2), 16, 16)[1],
            MailboxSpec(data_words=4, nslots=2, offsets={0: [0, 2], 1: [0, 2]}),
            BatchSpec(nbytes=64),
            AtomicDomainSpec(spaces={"a": SpaceSpec(4)}),
        )
        for name in ALL_BACKENDS:
            machine = pm_gpu if name == SHMEM else pm_cpu
            job = Job(machine, 2, name)
            for spec in specs:
                chan = job.channel(spec)
                assert chan.caps is get_backend(name).caps

    def test_user_backend_overrides_one_table_entry(self, pm_gpu):
        """A backend is a ``spec -> endpoint`` table: a new runtime swaps
        the entries whose op sequence differs and inherits the rest."""
        from repro.transport.shmem import ShmemBackend, _BatchEndpoint
        from repro.workloads.flood import run_flood

        batches = []

        class CountingBatch(_BatchEndpoint):
            def send_batch(self, dst, it, n):
                batches.append(n)
                return super().send_batch(dst, it, n)

        class Counting(ShmemBackend):
            name = "counting_shmem"
            endpoints = {**ShmemBackend.endpoints, BatchSpec: CountingBatch}

            def costs(self, machine):
                return machine.runtime(SHMEM)

        r = run_flood(pm_gpu, Counting(), 4096, 8, iters=2)
        assert batches == [8, 8]
        assert r.bandwidth == run_flood(pm_gpu, SHMEM, 4096, 8, iters=2).bandwidth


class TestEndpointContract:
    def _endpoint(self, pm_cpu):
        job = Job(pm_cpu, 2, TWO_SIDED)
        chan = Channel(get_backend(TWO_SIDED), job, BatchSpec(nbytes=8), Endpoint)
        return Endpoint(chan, ctx=None)

    def test_unimplemented_verbs_raise(self, pm_cpu):
        ep = self._endpoint(pm_cpu)
        for verb, args in [
            ("begin", (0,)),
            ("put", ("north", 1)),
            ("finish", (0,)),
            ("expect", ({},)),
            ("recv", ()),
            ("drain", ()),
            ("send_batch", (1, 0, 1)),
            ("wait_batch", (0, 0, 1)),
            ("local", ("a",)),
            ("cas", ("a", 1, 0, 0, 1)),
            ("faa", ("a", 1, 0, 1)),
            ("swap", ("a", 1, 0, 1)),
            ("publish", ("a", 1, np.zeros(1))),
            ("native_cas", ("a", 1, 0, 0, 1)),
            ("recv_msg_poll", ()),
        ]:
            with pytest.raises(UnsupportedTransportOp, match="two_sided"):
                getattr(ep, verb)(*args)

    def test_error_message_names_backend_and_op(self, pm_cpu):
        ep = self._endpoint(pm_cpu)
        with pytest.raises(UnsupportedTransportOp, match="does not support recv"):
            ep.recv()

    def test_noop_verbs_are_empty_generators(self, pm_cpu, pm_gpu):
        """Verbs that cost nothing for a backend still drive via yield
        from — programs must never branch on the backend."""

        from repro.transport import MailboxMsg

        def program(ctx, chan):
            ep = chan.endpoint(ctx)
            t0 = ctx.sim.now
            if ctx.rank == 0:
                ep.expect({})
                yield from ep.send_round(1, 0, words=1)
                yield from ep.drain()
            else:
                ep.expect({0: MailboxMsg(slot=0, words=1, meta="m")})
                meta, _data = yield from ep.recv()
                assert meta == "m"
                yield from ep.drain()
            yield from ctx.barrier()
            return ctx.sim.now - t0

        spec = MailboxSpec(data_words=2, nslots=1, offsets={0: [0], 1: [0]})
        for name, machine in ((TWO_SIDED, pm_cpu), (ONE_SIDED, pm_cpu),
                              (SHMEM, pm_gpu)):
            job = Job(machine, 2, name, placement="spread")
            res = job.run(program, job.channel(spec))
            assert all(t > 0 for t in res.results)


class TestOverReceive:
    """One recv() more than expect() announced is misuse the call names —
    not a rank parked for ever that surfaces as a deadlock at job end."""

    @pytest.mark.parametrize(
        "name", [TWO_SIDED, ONE_SIDED, SHMEM, ONE_SIDED_HW, STREAM_TRIGGERED]
    )
    def test_recv_with_nothing_expected_is_a_comm_error(self, name, pm_cpu, pm_gpu):
        from repro.transport import MailboxMsg

        def program(ctx, chan):
            ep = chan.endpoint(ctx)
            if ctx.rank == 0:
                yield from ep.send_round(1, 0, words=1)
                yield from ep.drain()
            else:
                ep.expect({0: MailboxMsg(slot=0, words=1)})
                yield from ep.recv()
                yield from ep.recv()

        machine = {
            TWO_SIDED: pm_cpu,
            ONE_SIDED: pm_cpu,
            ONE_SIDED_HW: _with_hw_put_signal(pm_cpu),
        }.get(name, pm_gpu)
        job = Job(machine, 2, name)
        spec = MailboxSpec(data_words=2, nslots=1, offsets={0: [0], 1: [0]})
        with pytest.raises(CommError, match="needs at least one"):
            job.run(program, job.channel(spec))


class TestCrossBackendParity:
    """Execute-mode numerics must be identical under every backend — the
    refactor's core guarantee: the backend changes op costs, never data."""

    def test_stencil_field_identical(self, pm_cpu, pm_gpu):
        from repro.workloads.stencil import StencilConfig, run_stencil

        cfg = StencilConfig(nx=24, ny=18, iters=4, mode="execute")
        fields = {}
        for name, machine in ((TWO_SIDED, pm_cpu), (ONE_SIDED, pm_cpu),
                              (SHMEM, pm_gpu)):
            fields[name] = run_stencil(machine, name, cfg, 4).extras["field"]
        np.testing.assert_array_equal(fields[TWO_SIDED], fields[ONE_SIDED])
        np.testing.assert_array_equal(fields[TWO_SIDED], fields[SHMEM])

    def test_sptrsv_solution_identical(self, small_matrix, rhs, pm_cpu, pm_gpu):
        from repro.workloads.sptrsv import SpTrsvConfig, run_sptrsv

        cfg = SpTrsvConfig(mode="execute")
        xs = {}
        for name, machine in ((TWO_SIDED, pm_cpu), (ONE_SIDED, pm_cpu),
                              (SHMEM, pm_gpu)):
            xs[name] = run_sptrsv(
                machine, name, small_matrix, 4, cfg=cfg, b=rhs
            ).extras["x"]
        np.testing.assert_array_equal(xs[TWO_SIDED], xs[ONE_SIDED])
        np.testing.assert_array_equal(xs[TWO_SIDED], xs[SHMEM])

    def test_hashtable_values_identical(self, pm_cpu, pm_gpu):
        from repro.workloads.hashtable import HashTableConfig, run_hashtable

        cfg = HashTableConfig(total_inserts=400, seed=2)
        stored = {}
        for name, machine in ((TWO_SIDED, pm_cpu), (ONE_SIDED, pm_cpu),
                              (SHMEM, pm_gpu)):
            res = run_hashtable(machine, name, cfg, 4)
            stored[name] = sorted(res.extras["values"])
        assert stored[TWO_SIDED] == stored[ONE_SIDED] == stored[SHMEM]

    def test_flood_bandwidth_positive_everywhere(self, pm_cpu, pm_gpu):
        from repro.workloads.flood import run_flood

        for name, machine in ((TWO_SIDED, pm_cpu), (ONE_SIDED, pm_cpu),
                              (SHMEM, pm_gpu)):
            r = run_flood(machine, name, 4096, 8, iters=2)
            assert r.bandwidth > 0
            assert r.runtime == name
