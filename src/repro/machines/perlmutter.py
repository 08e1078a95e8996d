"""Perlmutter CPU and GPU partition models (paper Fig. 2a / 2d, Table I).

CPU partition: two AMD EPYC 7763 (Milan) sockets joined by Infinity Fabric;
the paper's Fig. 3a shows achieved on-node bandwidth close to the IF peak of
32 GB/s/direction.  Runtime is Cray MPI, with both two-sided and one-sided
(RMA) profiles.

GPU partition: four A100s, fully connected over NVLink3.  The pairwise peak
is 100 GB/s/direction delivered over a *group* of four NVLink ports — a
single message streams over one port (~25 GB/s); four concurrent messages
reach the aggregate.  This port-group structure (``channels=4``) plus the
device copy-engine injection limit reproduces the paper's Fig. 10 claim that
splitting a >131 KB message into four yields up to 2.9x.

Calibration targets (paper text; validated in
``tests/machines/test_calibration.py``):

* two-sided small-message latency ~3.3 us; one-sided 4-op sequence ~5 us;
* per-message marginal cost at high msg/sync ~0.3-0.5 us;
* CPU one-sided CAS ~2 us; GPU CAS 0.8 us;
* NVSHMEM put-with-signal n=1 latency ~4 us, large-n marginal ~0.5 us.
"""

from __future__ import annotations

from repro.machines.base import CommCosts, GpuSpec, MachineModel
from repro.net.loggp import LinkParams
from repro.transport import ONE_SIDED, SHMEM, TWO_SIDED
from repro.net.topology import TopologySpec
from repro.util.units import GBps, us

__all__ = ["perlmutter_cpu", "perlmutter_gpu"]

# Cray MPI software-cost profile, shared by the Perlmutter CPU and Frontier
# CPU models (both run CrayMPI per Table III).
CRAYMPI_TWO_SIDED = CommCosts(
    isend=us(0.40),
    irecv=us(0.10),
    recv_match=us(0.20),
    sync_enter=us(2.00),
    wait_per_req=us(0.05),
    wait_poll=us(0.1),
    eager_threshold=16 * 1024.0,
)

CRAYMPI_ONE_SIDED = CommCosts(
    put=us(0.35),
    get=us(0.35),
    flush=us(0.40),
    fence=us(0.50),
    fetch_op=us(0.25),
    atomic_apply=us(0.20),
    poll_slot=us(0.05),
    sync_enter=us(0.30),
)


def perlmutter_cpu() -> MachineModel:
    """Perlmutter CPU node: 2x Milan, Infinity Fabric CPU-CPU."""
    topo = TopologySpec(
        name="perlmutter-cpu",
        loopback=LinkParams(
            latency=us(0.20), bandwidth=GBps(100), gap=us(0.02), name="shm"
        ),
    )
    topo.add_link(
        "cpu0",
        "cpu1",
        LinkParams(
            latency=us(0.70), bandwidth=GBps(32), gap=us(0.02), name="IF CPU-CPU"
        ),
    )
    # NIC hangs off cpu0 (Fig. 2a); on-node experiments never route through
    # it, but it is part of the node inventory.
    topo.add_link(
        "cpu0",
        "nic0",
        LinkParams(latency=us(0.80), bandwidth=GBps(25), gap=us(0.20), name="PCIe4.0"),
    )
    return MachineModel(
        name="perlmutter-cpu",
        description="2x AMD EPYC 7763 (Milan), Infinity Fabric, CrayMPI",
        topology=topo,
        compute_endpoints=["cpu0", "cpu1"],
        runtimes={
            TWO_SIDED: CRAYMPI_TWO_SIDED,
            ONE_SIDED: CRAYMPI_ONE_SIDED,
        },
        cores_per_endpoint=64,
        mem_bandwidth_per_endpoint=GBps(204.8),
        nominal_link_specs={
            "IF CPU-CPU": "4x32 GB/s/direction",
            "PCIe4.0": "25 GB/s/direction",
        },
    )


# NVSHMEM device-initiated profile on A100/NVLink3.
NVSHMEM_PERLMUTTER = CommCosts(
    put_signal=us(0.45),
    wait_wakeup=us(3.40),
    fetch_op=us(0.20),
    atomic_apply=us(0.0),
    # A100: signal words poll from L2; ~0.1 ns per watched slot plus a
    # 0.2 us wake-and-recheck pass.
    poll_slot=us(0.0001),
    wait_poll=us(0.20),
    flush=us(0.10),
)

# Host-initiated (CUDA-aware) two-sided MPI on the GPU partition: every
# synchronization involves a device sync + host MPI + kernel relaunch.
CUDA_AWARE_TWO_SIDED = CommCosts(
    isend=us(0.50),
    irecv=us(0.15),
    recv_match=us(0.25),
    sync_enter=us(12.0),
    wait_per_req=us(0.05),
    wait_poll=us(0.1),
    eager_threshold=16 * 1024.0,
)


def perlmutter_gpu() -> MachineModel:
    """Perlmutter GPU node: 4x A100 fully connected over NVLink3."""
    topo = TopologySpec(
        name="perlmutter-gpu",
        loopback=LinkParams(
            latency=us(0.10), bandwidth=GBps(1000), gap=us(0.02), name="hbm"
        ),
    )
    gpus = [f"gpu{i}" for i in range(4)]
    nvlink3 = LinkParams(
        latency=us(0.30),
        bandwidth=GBps(100),
        gap=us(0.10),
        channels=4,
        name="NVLINK3",
    )
    for i in range(4):
        for j in range(i + 1, 4):
            topo.add_link(gpus[i], gpus[j], nvlink3)
    pcie = LinkParams(latency=us(0.50), bandwidth=GBps(25), gap=us(0.25), name="PCIe4")
    for g in gpus:
        topo.add_link("cpu0", g, pcie)
    # Each GPU pairs with a Slingshot NIC over its PCIe switch (Table I:
    # CPU-NIC PCIe4.0); on-node experiments never route through them.
    for i, g in enumerate(gpus):
        topo.add_link(
            g,
            f"nic{i}",
            LinkParams(
                latency=us(0.60), bandwidth=GBps(25), gap=us(0.25), name="PCIe4"
            ),
        )
    # Device copy-engine injection: the aggregate NVLink fan-out of an A100
    # is 300 GB/s nominal; ~200 GB/s effective funnels concurrent sends.
    for g in gpus:
        topo.set_injection(g, LinkParams(latency=0.0, bandwidth=GBps(200), name="inj"))
    return MachineModel(
        name="perlmutter-gpu",
        description="4x NVIDIA A100, NVLink3 fully connected, NVSHMEM v2.8",
        topology=topo,
        compute_endpoints=gpus,
        runtimes={
            SHMEM: NVSHMEM_PERLMUTTER,
            TWO_SIDED: CUDA_AWARE_TWO_SIDED,
        },
        cores_per_endpoint=1,
        mem_bandwidth_per_endpoint=GBps(204.8),
        gpu=GpuSpec(
            mem_bandwidth=GBps(1555),
            thread_blocks=80,
            flop_rate=9.7e12,
            kernel_launch=us(5.0),
        ),
        nominal_link_specs={
            "NVLINK3": "300 GB/s/dir aggregate, 100 GB/s/dir per pair",
            "PCIe4": "25 GB/s/direction",
        },
    )
