"""Summit CPU and GPU models (paper Fig. 2c, Table I).

A Summit node is a *dual-island dumbbell*: two POWER9 sockets joined by
X-Bus; each socket anchors an island of three V100s, fully connected within
the island by NVLink2 at 50 GB/s/direction.  Traffic between islands crosses
the X-Bus, which the paper measures at 32 GB/s/direction for GPU messages
(and only ~25 GB/s achieved for Spectrum MPI CPU traffic, despite the 64 GB/s
nominal peak).

Runtime is IBM Spectrum MPI on the CPUs.  The paper's Fig. 3c finds Spectrum
*one-sided* performance consistently below two-sided — modelled here as a
high per-RMA-op software cost.  NVSHMEM v2.8 runs on the GPUs.

Calibration targets (validated in ``tests/machines/test_calibration.py``):

* CPU two-sided small-message latency ~3 us; achieved X-Bus bandwidth ~25 GB/s;
* GPU put-with-signal n=1 latency ~5 us;
* GPU CAS ~1.0 us within an island, ~1.6 us across sockets.
"""

from __future__ import annotations

from repro.machines.base import CommCosts, GpuSpec, MachineModel
from repro.net.loggp import LinkParams
from repro.transport import ONE_SIDED, SHMEM, TWO_SIDED
from repro.net.topology import TopologySpec
from repro.util.units import GBps, us

__all__ = ["summit_cpu", "summit_gpu"]

# Spectrum MPI adds a serialised software copy on the receive path; with the
# copy engine at 25 GB/s it becomes the pipeline bottleneck below the 32 GB/s
# X-Bus — the ~25 GB/s achieved ceiling of Fig. 3c.
_SPECTRUM_COPY = 1.0 / GBps(25)

SPECTRUM_TWO_SIDED = CommCosts(
    isend=us(0.50),
    irecv=us(0.15),
    recv_match=us(0.30),
    sync_enter=us(2.00),
    wait_per_req=us(0.05),
    wait_poll=us(0.1),
    copy_per_byte=_SPECTRUM_COPY,
    eager_threshold=16 * 1024.0,
)

# Spectrum one-sided: heavyweight RMA ops (the Fig. 3c inversion).
SPECTRUM_ONE_SIDED = CommCosts(
    put=us(1.50),
    get=us(1.50),
    flush=us(1.00),
    fence=us(1.20),
    fetch_op=us(0.80),
    atomic_apply=us(0.30),
    poll_slot=us(0.06),
    sync_enter=us(0.80),
    copy_per_byte=_SPECTRUM_COPY,
)

NVSHMEM_SUMMIT = CommCosts(
    put_signal=us(0.55),
    wait_wakeup=us(4.30),
    fetch_op=us(0.30),
    atomic_apply=us(0.10),
    # V100 + CUDA 11.0: signal polling walks global memory — ~5x the A100
    # per-slot cost, a key contributor to Summit's SpTRSV non-scaling.
    poll_slot=us(0.0005),
    wait_poll=us(2.50),
    flush=us(0.12),
)

CUDA_AWARE_TWO_SIDED_SUMMIT = CommCosts(
    isend=us(0.60),
    irecv=us(0.20),
    recv_match=us(0.30),
    sync_enter=us(14.0),
    wait_per_req=us(0.05),
    wait_poll=us(0.1),
    eager_threshold=16 * 1024.0,
)


def _summit_topology() -> TopologySpec:
    """The full Summit node fabric: both sockets, all six GPUs."""
    topo = TopologySpec(
        name="summit",
        loopback=LinkParams(
            latency=us(0.25), bandwidth=GBps(80), gap=us(0.02), name="shm"
        ),
    )
    topo.add_link(
        "cpu0",
        "cpu1",
        LinkParams(
            latency=us(0.18),
            bandwidth=GBps(32),
            gap=us(0.05),
            atomic_gap=us(1.0),
            name="X-Bus",
        ),
    )
    # Island 0: gpu0..gpu2 on cpu0; island 1: gpu3..gpu5 on cpu1.  The
    # GPU-CPU hop latency is kept above half the GPU-GPU latency so that
    # in-island traffic routes over the direct NVLink, not through the CPU.
    nvlink2_gg = LinkParams(
        latency=us(0.30), bandwidth=GBps(50), gap=us(0.15), name="NVLINK2"
    )
    nvlink2_gc = LinkParams(
        latency=us(0.22), bandwidth=GBps(50), gap=us(0.15), name="NVLINK2 GPU-CPU"
    )
    for island, cpu in ((0, "cpu0"), (1, "cpu1")):
        members = [f"gpu{island * 3 + k}" for k in range(3)]
        for i in range(3):
            for j in range(i + 1, 3):
                topo.add_link(members[i], members[j], nvlink2_gg)
            topo.add_link(members[i], cpu, nvlink2_gc)
    for cpu, nic in (("cpu0", "nic0"),):
        topo.add_link(
            cpu,
            nic,
            LinkParams(latency=us(0.80), bandwidth=GBps(16), gap=us(0.25), name="PCIe4.0"),
        )
    for g in (f"gpu{i}" for i in range(6)):
        topo.set_injection(g, LinkParams(latency=0.0, bandwidth=GBps(135), name="inj"))
    return topo


def summit_cpu() -> MachineModel:
    """Summit CPU view: 2x POWER9 over X-Bus, Spectrum MPI, 42 usable cores."""
    return MachineModel(
        name="summit-cpu",
        description="2x IBM POWER9, X-Bus, IBM Spectrum MPI",
        topology=_summit_topology(),
        compute_endpoints=["cpu0", "cpu1"],
        runtimes={
            TWO_SIDED: SPECTRUM_TWO_SIDED,
            ONE_SIDED: SPECTRUM_ONE_SIDED,
        },
        cores_per_endpoint=21,
        mem_bandwidth_per_endpoint=GBps(135),
        nominal_link_specs={
            "X-Bus": "64 GB/s/direction nominal, ~25 GB/s achieved (Spectrum)",
            "PCIe4.0": "16 GB/s/direction",
        },
    )


def summit_gpu() -> MachineModel:
    """Summit GPU view: 6x V100 in the dual-island dumbbell topology."""
    return MachineModel(
        name="summit-gpu",
        description="6x NVIDIA V100, NVLink2 dual-island dumbbell, NVSHMEM v2.8",
        topology=_summit_topology(),
        compute_endpoints=[f"gpu{i}" for i in range(6)],
        runtimes={
            SHMEM: NVSHMEM_SUMMIT,
            TWO_SIDED: CUDA_AWARE_TWO_SIDED_SUMMIT,
        },
        cores_per_endpoint=1,
        mem_bandwidth_per_endpoint=GBps(135),
        gpu=GpuSpec(
            mem_bandwidth=GBps(900),
            thread_blocks=80,
            flop_rate=7.8e12,
            kernel_launch=us(6.0),
        ),
        nominal_link_specs={
            "NVLINK2": "50 GB/s/direction in-island, 32 GB/s/direction across sockets",
        },
    )
