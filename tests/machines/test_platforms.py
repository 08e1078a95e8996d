"""Platform definitions match the paper's Table I / Fig. 2."""

import pytest

from repro.machines import get_machine, machine_names, table1_row
from repro.util.units import GBps


class TestRegistry:
    def test_all_five_platforms(self):
        assert machine_names() == [
            "frontier-cpu",
            "perlmutter-cpu",
            "perlmutter-gpu",
            "summit-cpu",
            "summit-gpu",
        ]

    def test_unknown_machine_rejected(self):
        with pytest.raises(KeyError, match="available"):
            get_machine("el-capitan")

    def test_fresh_instance_per_call(self):
        assert get_machine("summit-cpu") is not get_machine("summit-cpu")

    def test_table1_rows_cover_all(self):
        rows = [table1_row(n) for n in machine_names()]
        assert len(rows) == 5
        assert all(r["links"] for r in rows)


class TestPerlmutter:
    def test_cpu_if_link_32GBps(self, pm_cpu):
        lp = pm_cpu.topology.link_params("cpu0", "cpu1")
        assert lp.bandwidth == GBps(32)
        assert lp.name == "IF CPU-CPU"

    def test_cpu_capacity_128_cores(self, pm_cpu):
        assert pm_cpu.max_ranks == 128

    def test_gpu_nvlink3_port_groups(self, pm_gpu):
        lp = pm_gpu.topology.link_params("gpu0", "gpu1")
        assert lp.bandwidth == GBps(100)
        assert lp.channels == 4
        assert lp.channel_bandwidth == pytest.approx(GBps(25))

    def test_gpu_fully_connected(self, pm_gpu):
        for i in range(4):
            for j in range(4):
                if i != j:
                    assert pm_gpu.topology.route(f"gpu{i}", f"gpu{j}").nhops == 1

    def test_gpu_injection_ports(self, pm_gpu):
        for i in range(4):
            assert f"gpu{i}" in pm_gpu.topology.injection

    def test_gpu_spec_matches_paper(self, pm_gpu):
        assert pm_gpu.gpu.thread_blocks == 80


class TestSummit:
    def test_dumbbell_islands(self, sm_gpu):
        # In-island: direct NVLink.
        assert sm_gpu.topology.route("gpu0", "gpu2").nhops == 1
        assert sm_gpu.topology.route("gpu3", "gpu5").nhops == 1
        # Cross-island: through both CPUs and the X-Bus.
        r = sm_gpu.topology.route("gpu0", "gpu3")
        assert r.nhops == 3
        assert ("cpu0", "cpu1") in r.hops

    def test_in_island_routing_avoids_cpu(self, sm_gpu):
        r = sm_gpu.topology.route("gpu0", "gpu1")
        assert r.hops == (("gpu0", "gpu1"),)

    def test_xbus_atomic_gap_throttles(self, sm_gpu):
        lp = sm_gpu.topology.link_params("cpu0", "cpu1")
        assert lp.effective_atomic_gap > lp.gap

    def test_cpu_42_usable_cores(self, sm_cpu):
        assert sm_cpu.max_ranks == 42

    def test_spectrum_rma_heavier_than_two_sided(self, sm_cpu):
        two = sm_cpu.runtime("two_sided")
        one = sm_cpu.runtime("one_sided")
        assert one.put > two.isend  # the Fig. 3c inversion

    def test_spectrum_copy_engine(self, sm_cpu):
        assert sm_cpu.runtime("two_sided").copy_per_byte > 0


class TestFrontier:
    def test_if_bound_36GBps(self, fr_cpu):
        lp = fr_cpu.topology.link_params("numa0", "numa1")
        assert lp.bandwidth == GBps(36)

    def test_nic_behind_gpu(self, fr_cpu):
        r = fr_cpu.topology.route("numa0", "nic0")
        assert any("gpu" in ep for hop in r.hops for ep in hop)

    def test_no_gpu_runtime(self, fr_cpu):
        # ROC_SHMEM lacked wait_until_any: the paper runs no Frontier GPU
        # experiments, so neither do we.
        assert "shmem" not in fr_cpu.runtimes
        assert not fr_cpu.is_gpu_machine


class TestGpuVsCpuProfiles:
    def test_gpu_machines_have_gpu_spec(self, any_gpu_machine):
        assert any_gpu_machine.is_gpu_machine
        assert any_gpu_machine.max_ranks == len(any_gpu_machine.compute_endpoints)

    def test_cpu_machines_have_no_gpu_spec(self, any_cpu_machine):
        assert not any_cpu_machine.is_gpu_machine

    def test_describe_is_informative(self, any_cpu_machine):
        text = any_cpu_machine.describe()
        assert any_cpu_machine.name in text
        assert "runtimes" in text
