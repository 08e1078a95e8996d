"""Backend registry: name resolution, errors, caps, extension seam."""

import pytest

from repro.comm import Job
from repro.transport import (
    ONE_SIDED,
    ONE_SIDED_HW,
    SHMEM,
    TWO_SIDED,
    BackendCaps,
    TransportBackend,
    UnknownBackendError,
    backend_names,
    get_backend,
    register_backend,
)


class TestResolution:
    def test_builtin_names_in_canonical_order(self):
        names = backend_names()
        assert names[:4] == (TWO_SIDED, ONE_SIDED, SHMEM, ONE_SIDED_HW)

    def test_get_backend_by_name(self):
        for name in (TWO_SIDED, ONE_SIDED, SHMEM):
            assert get_backend(name).name == name

    def test_unknown_name_lists_valid_backends(self):
        with pytest.raises(UnknownBackendError) as exc:
            get_backend("nccl")
        assert "'nccl'" in str(exc.value)
        for name in (TWO_SIDED, ONE_SIDED, SHMEM):
            assert repr(name) in str(exc.value)

    def test_unknown_backend_error_is_a_value_error(self):
        # Callers that caught ValueError from the old literal check keep
        # working.
        with pytest.raises(ValueError):
            get_backend("mystery")

    def test_costs_key_defaults_to_name(self):
        """A backend charges the profile named after it."""
        from repro.machines import get_machine

        m = get_machine("perlmutter-cpu")
        assert get_backend(TWO_SIDED).costs(m) is m.runtimes[TWO_SIDED]
        assert get_backend(ONE_SIDED).costs(m) is m.runtimes[ONE_SIDED]


class TestCaps:
    def test_paper_op_accounting(self):
        """Table I: 2 ops/msg two-sided, 4-op one-sided emulation, fused
        single-op NVSHMEM."""
        assert get_backend(TWO_SIDED).caps.ops_per_message == 2
        assert get_backend(ONE_SIDED).caps.ops_per_message == 4
        assert get_backend(SHMEM).caps.ops_per_message == 1
        assert get_backend(ONE_SIDED_HW).caps.ops_per_message == 1

    def test_remote_atomics(self):
        assert not get_backend(TWO_SIDED).caps.remote_atomics
        assert get_backend(ONE_SIDED).caps.remote_atomics
        assert get_backend(SHMEM).caps.remote_atomics

    def test_gpu_initiated(self):
        assert get_backend(SHMEM).caps.gpu_initiated
        assert not get_backend(ONE_SIDED_HW).caps.gpu_initiated

    def test_sided_labels(self):
        """The accounting is the endpoint's declaration; the 2 / 4 / 1 of
        ``caps`` is the length of the mailbox one's per-message tuple."""
        declared = {
            TWO_SIDED: (("isend", "recv_match"), ("sync_enter",)),
            ONE_SIDED: (("put", "flush", "put", "flush"), ()),
            SHMEM: (("put_signal",), ("wait_wakeup",)),
        }
        for name, ops in declared.items():
            backend = get_backend(name)
            assert backend.ops("mailbox") == ops
            assert backend.caps.ops_per_message == len(ops[0])
        assert get_backend(ONE_SIDED).ops("batch") == get_backend(ONE_SIDED).ops(
            "halo") == (("put",), ("flush", "put", "flush"))
        assert not hasattr(get_backend(TWO_SIDED), "sided")

    def test_declared_count_must_match_the_endpoint(self):
        from repro.transport.shmem import ShmemBackend

        class Miscounted(ShmemBackend):
            name = "miscounted-test-backend"
            caps = BackendCaps(ops_per_message=4)

        with pytest.raises(ValueError, match="declares 4 op/msg.*issues 1"):
            register_backend(Miscounted())
        assert "miscounted-test-backend" not in backend_names()


class TestRegistration:
    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend(get_backend(TWO_SIDED))

    def test_replace_allows_overwrite(self):
        original = get_backend(TWO_SIDED)
        try:
            register_backend(original, replace=True)
            assert get_backend(TWO_SIDED) is original
        finally:
            register_backend(original, replace=True)

    def test_nameless_backend_rejected(self):
        with pytest.raises(ValueError, match="name"):
            register_backend(TransportBackend())

    def test_custom_backend_roundtrip(self):
        class Quiet(TransportBackend):
            name = "quiet-test-backend"
            caps = BackendCaps(remote_atomics=False, ops_per_message=2)

        try:
            register_backend(Quiet())
            assert get_backend("quiet-test-backend").caps.ops_per_message == 2
            assert "quiet-test-backend" in backend_names()
        finally:
            from repro.transport import registry

            registry._REGISTRY.pop("quiet-test-backend", None)


class TestJobIntegration:
    def test_job_resolves_backend_by_name(self, pm_cpu):
        job = Job(pm_cpu, 2, TWO_SIDED)
        assert job.runtime_name == TWO_SIDED
        assert job.backend is get_backend(TWO_SIDED)

    def test_job_accepts_backend_instance(self, pm_cpu):
        job = Job(pm_cpu, 2, get_backend(ONE_SIDED))
        assert job.runtime_name == ONE_SIDED

    def test_job_unknown_runtime_helpful_error(self, pm_cpu):
        with pytest.raises(UnknownBackendError, match="valid backends"):
            Job(pm_cpu, 2, "rdma++")

    def test_custom_backend_runs_without_workload_edits(self, pm_cpu):
        """The seam: a new backend + a cost profile = a runnable runtime."""
        import dataclasses

        from repro.transport.shmem import ShmemBackend
        from repro.workloads.flood import run_flood

        class FusedNic(ShmemBackend):
            name = "fused-nic-test"
            sided = "shmem"
            caps = BackendCaps(remote_atomics=True, ops_per_message=1)

        try:
            register_backend(FusedNic())
            one = pm_cpu.runtimes[ONE_SIDED]
            pm_cpu.runtimes["fused-nic-test"] = dataclasses.replace(
                one, put_signal=one.put, poll_slot=0.0, wait_poll=2e-7
            )
            r = run_flood(pm_cpu, "fused-nic-test", 512, 16, iters=2)
            assert r.runtime == "fused-nic-test"
            assert r.bandwidth > 0
        finally:
            from repro.transport import registry

            registry._REGISTRY.pop("fused-nic-test", None)

    def test_stream_costs_follow_an_edited_profile(self, pm_gpu):
        """The derived profile is derived per job, not remembered: after a
        host profile changes, the next stream-triggered job charges the
        fresh derivation."""
        import dataclasses

        from repro.comm.stream import STREAM_DEVICE_INITIATION
        from repro.transport import SHMEM, STREAM_TRIGGERED

        assert Job(pm_gpu, 2, STREAM_TRIGGERED).costs.put == pytest.approx(5e-7)
        pm_gpu.runtimes[SHMEM] = dataclasses.replace(
            pm_gpu.runtimes[SHMEM], put_signal=1e-8
        )
        assert Job(pm_gpu, 2, STREAM_TRIGGERED).costs.put == pytest.approx(
            1e-8 + STREAM_DEVICE_INITIATION
        )


class TestCapabilitiesTable:
    def test_every_registered_backend_has_a_row(self):
        from repro.transport import capabilities

        table = capabilities()
        assert set(backend_names()) <= set(table)
        for name, caps in table.items():
            assert caps is get_backend(name).caps

    def test_stream_triggered_is_fifth_builtin(self):
        from repro.transport import STREAM_TRIGGERED

        assert backend_names()[4] == STREAM_TRIGGERED
        caps = get_backend(STREAM_TRIGGERED).caps
        assert caps.gpu_initiated
        assert caps.host_bypass
        assert caps.stream_ordered
        assert caps.ops_per_message == 1

    def test_summary_is_deterministic_prose(self):
        from repro.transport import STREAM_TRIGGERED

        s = get_backend(STREAM_TRIGGERED).caps.summary()
        assert "host-bypass" in s and "stream-ordered" in s
        assert get_backend(TWO_SIDED).caps.summary().startswith("2 op/msg")

    def test_matches_rejects_unknown_flag(self):
        with pytest.raises(TypeError, match="no capability"):
            get_backend(SHMEM).caps.matches(quantum_links=True)


class TestRequire:
    def test_candidates_filter_on_declared_caps(self):
        from repro.transport import STREAM_TRIGGERED, capabilities

        def candidates(**flags):
            return [n for n, c in capabilities().items() if c.matches(**flags)]

        assert candidates(host_bypass=True) == [STREAM_TRIGGERED]
        fused = candidates(ops_per_message=1)
        assert SHMEM in fused and ONE_SIDED_HW in fused
        assert TWO_SIDED not in fused

    def test_resolve_returns_first_qualifier(self):
        from repro.transport import STREAM_TRIGGERED, require

        assert require(gpu_initiated=True) == SHMEM
        assert require(host_bypass=True) == STREAM_TRIGGERED
        assert require(ops_per_message=2) == TWO_SIDED

    def test_unsatisfiable_predicate_lists_caps_table(self):
        from repro.transport import TransportError, require

        with pytest.raises(TransportError) as exc:
            require(gpu_initiated=True, remote_atomics=False)
        msg = str(exc.value)
        assert "no registered backend satisfies" in msg
        for name in (TWO_SIDED, SHMEM):
            assert name in msg

    def test_unknown_flag_rejected_eagerly(self):
        from repro.transport import require

        with pytest.raises(TypeError, match="no capability"):
            require(telepathy=True)
        # Even behind a flag no backend matches.
        with pytest.raises(TypeError, match="no capability"):
            require(gpu_initiated="maybe", telepathy=True)

    def test_empty_predicate_rejected(self):
        from repro.transport import require

        with pytest.raises(ValueError, match="at least one"):
            require()

    def test_required_name_runs_a_flood(self):
        from repro.machines import get_machine
        from repro.transport import STREAM_TRIGGERED, require
        from repro.workloads.flood import run_flood

        name = require(host_bypass=True)
        assert name == STREAM_TRIGGERED
        r = run_flood(get_machine("perlmutter-gpu"), name, 4096, 8, iters=1)
        assert r.runtime == STREAM_TRIGGERED and r.bandwidth > 0


class TestDiagnostics:
    def test_unknown_backend_suggests_close_name(self):
        with pytest.raises(UnknownBackendError, match="did you mean"):
            get_backend("stream_trigered")
        with pytest.raises(UnknownBackendError, match=repr(TWO_SIDED)):
            get_backend("two_sided_mpi")

    def test_hopeless_typo_gets_no_suggestion(self):
        with pytest.raises(UnknownBackendError) as exc:
            get_backend("zzzz")
        assert "did you mean" not in str(exc.value)

    def test_collision_names_incumbent_class_and_description(self):
        with pytest.raises(ValueError) as exc:
            register_backend(get_backend(SHMEM))
        msg = str(exc.value)
        assert type(get_backend(SHMEM)).__name__ in msg
        assert "replace=True" in msg

    def test_collision_with_different_class_says_shadow(self):
        class Imposter(TransportBackend):
            name = SHMEM
            caps = BackendCaps()

        with pytest.raises(ValueError, match="shadow"):
            register_backend(Imposter())
