"""MachineModel mechanics: placement, capacity, compute model, and the
backend's loggp bridge over them."""

import pytest

from repro.machines import CommCosts, GpuSpec, MachineModel, get_machine
from repro.net import LinkParams, TopologySpec
from repro.transport import get_backend


def _tiny_machine(**kwargs):
    topo = TopologySpec(name="tiny")
    topo.add_link("s0", "s1", LinkParams(latency=1e-6, bandwidth=10e9))
    defaults = dict(
        name="tiny",
        description="test machine",
        topology=topo,
        compute_endpoints=["s0", "s1"],
        runtimes={"two_sided": CommCosts(isend=1e-7, recv_match=1e-7)},
        cores_per_endpoint=4,
        mem_bandwidth_per_endpoint=100e9,
        mem_bandwidth_per_core=30e9,
    )
    defaults.update(kwargs)
    return MachineModel(**defaults)


class TestValidation:
    def test_missing_endpoint_rejected(self):
        with pytest.raises(ValueError, match="missing from topology"):
            _tiny_machine(compute_endpoints=["s0", "nope"])

    def test_no_runtimes_rejected(self):
        with pytest.raises(ValueError, match="no runtimes"):
            _tiny_machine(runtimes={})

    def test_unknown_runtime_lookup(self):
        m = _tiny_machine()
        with pytest.raises(KeyError, match="available"):
            m.runtime("shmem")

    def test_comm_costs_reject_negative(self):
        with pytest.raises(ValueError):
            CommCosts(isend=-1e-6)

    def test_gpu_spec_validation(self):
        with pytest.raises(ValueError):
            GpuSpec(mem_bandwidth=0, thread_blocks=80, flop_rate=1e12)
        with pytest.raises(ValueError):
            GpuSpec(mem_bandwidth=1e12, thread_blocks=0, flop_rate=1e12)


class TestPlacement:
    def test_block_fills_contiguously(self):
        m = _tiny_machine()
        eps = [m.endpoint_of_rank(r, 4, "block") for r in range(4)]
        assert eps == ["s0", "s0", "s1", "s1"]

    def test_spread_round_robins(self):
        m = _tiny_machine()
        eps = [m.endpoint_of_rank(r, 4, "spread") for r in range(4)]
        assert eps == ["s0", "s1", "s0", "s1"]

    def test_capacity_enforced(self):
        m = _tiny_machine()
        assert m.max_ranks == 8
        with pytest.raises(ValueError):
            m.endpoint_of_rank(0, 9)

    def test_rank_range_enforced(self):
        m = _tiny_machine()
        with pytest.raises(ValueError):
            m.endpoint_of_rank(4, 4)

    def test_unknown_placement(self):
        with pytest.raises(ValueError):
            _tiny_machine().endpoint_of_rank(0, 2, "zigzag")

    def test_ranks_per_endpoint(self):
        m = _tiny_machine()
        assert m.ranks_per_endpoint(3, "block") == {"s0": 2, "s1": 1}


class TestComputeModel:
    def test_core_bound_at_low_sharing(self):
        m = _tiny_machine()
        # 1 rank: min(30, 100/1) = 30 GB/s.
        assert m.compute_time(30e9, sharing=1) == pytest.approx(1.0)

    def test_socket_bound_at_high_sharing(self):
        m = _tiny_machine()
        # 10 ranks sharing: min(30, 100/10) = 10 GB/s.
        assert m.compute_time(10e9, sharing=10) == pytest.approx(1.0)

    def test_flop_bound_kernel(self):
        m = _tiny_machine(flop_rate_per_core=1e9)
        assert m.compute_time(0.0, flops=2e9, sharing=1) == pytest.approx(2.0)

    def test_gpu_compute_uses_hbm(self):
        """A GPU machine computes on its device, whatever the sharing."""
        gpu = GpuSpec(mem_bandwidth=1e12, thread_blocks=80, flop_rate=1e13)
        m = _tiny_machine(gpu=gpu)
        assert m.compute_time(1e12) == pytest.approx(1.0)
        assert m.compute_time(1e12, sharing=10) == pytest.approx(1.0)

    def test_sharing_validation(self):
        with pytest.raises(ValueError):
            _tiny_machine().compute_time(1.0, sharing=0)


class TestLoggpBridge:
    def test_two_sided_params(self):
        p = get_backend("two_sided").loggp(_tiny_machine(), "mailbox")
        assert p.o == pytest.approx(2e-7)
        assert p.L == pytest.approx(1e-6)
        assert p.peak_bandwidth == pytest.approx(10e9)

    def test_rank_resolution_needs_nranks(self):
        two = get_backend("two_sided")
        m = _tiny_machine()
        with pytest.raises(ValueError, match="nranks"):
            two.loggp(m, "mailbox", 0, 2)  # rank 2 of the default 2
        p = two.loggp(m, "mailbox", 0, 2, nranks=4)  # s0 -> s0: loopback
        assert p.L < two.loggp(m, "mailbox", 0, 1, nranks=4).L == pytest.approx(1e-6)

    def test_unknown_sidedness(self):
        with pytest.raises(ValueError, match="unknown pattern"):
            get_backend("two_sided").loggp(_tiny_machine(), "three")

    def test_copy_per_byte_lowers_effective_bandwidth(self):
        m = get_machine("summit-cpu")
        assert m.endpoint_of_rank(1, 2, "spread") == "cpu1"
        p = get_backend("two_sided").loggp(m, "mailbox")
        assert p.peak_bandwidth < 32e9  # copy engine folded into G
