"""Machine model: topology + runtime software costs + compute rates.

A :class:`MachineModel` bundles everything the communication layers and the
workloads need to know about one of the paper's platforms:

* the node fabric (:class:`~repro.net.topology.TopologySpec`, Fig. 2);
* per-runtime software op costs (:class:`CommCosts`) — the LogGP ``o``
  component, which the paper attributes to the MPI/NVSHMEM stack and which
  differentiates two-sided (2 ops/message) from one-sided (4 ops/message);
* rank placement (which endpoint hosts which rank);
* compute-rate parameters for modelled (non-executed) local work.

The concrete platforms live in sibling modules and are calibrated against
the numbers quoted in the paper (see DESIGN.md §5).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.net.topology import TopologySpec
from repro.util.validation import check_count, check_non_negative, check_positive

__all__ = ["CommCosts", "GpuSpec", "MachineModel", "Placement", "UnhostedRuntimeError"]


class UnhostedRuntimeError(KeyError):
    """A runtime the machine has no cost profile for, naming the machine,
    the runtime and the runtimes the machine does host."""

    def __init__(self, machine: str, runtime: str, hosted) -> None:
        super().__init__(
            f"machine {machine!r} has no runtime {runtime!r}; "
            f"available: {sorted(hosted)}"
        )

    def __str__(self) -> str:
        return self.args[0]


@dataclass(frozen=True)
class CommCosts:
    """Software overheads (seconds) charged per operation by a runtime.

    Two-sided ops:
        isend: sender-side cost of posting one non-blocking send (serial —
            the LogGP ``o`` that cannot be overlapped by more messages).
        irecv: cost of posting one non-blocking receive.
        recv_match: receiver-side per-message matching/copy cost, paid when
            a message is consumed.
        sync_enter: one-time cost per blocking synchronisation call
            (``Waitall`` / blocking ``Recv`` wake-up and progress entry).
            Amortised over all messages completed by that call.
        wait_per_req: per-request completion bookkeeping inside a wait.

    One-sided ops:
        put / get: cost of posting one non-blocking RMA op.
        flush: CPU cost of ``Win_flush`` (the remote-completion acknowledge
            round-trip is paid in wire time on top of this).
        fence: per-call cost of ``Win_fence`` in addition to the barrier.
        fetch_op: initiator cost of an atomic (CAS / fetch-and-op).
        atomic_apply: target-side serialisation cost per atomic applied.

    GPU-initiated (NVSHMEM-style) ops:
        put_signal: device cost of issuing one ``put_signal_nbi``.
        wait_wakeup: one-time cost for a ``wait_until`` to notice and wake
            after the awaited signal arrives (polling granularity +
            scheduling).
        poll_slot: cost per signal-slot scan in a software polling loop
            (the paper's Listing 1 receiver acknowledgment) — this is the
            "extra work to maintain data arrival" that stops one-sided
            SpTRSV from scaling.

    Shared:
        copy_per_byte: extra per-byte software copy cost (seconds/byte) the
            runtime adds on the receive path.  Nonzero for Spectrum MPI on
            Summit, which is why its achieved X-Bus bandwidth saturates near
            25 GB/s although the bus peaks at 64 (Fig. 3c).
        eager_threshold: messages above this size use the rendezvous
            protocol, paying an extra request/ack round trip.
    """

    isend: float = 0.0
    irecv: float = 0.0
    recv_match: float = 0.0
    sync_enter: float = 0.0
    wait_per_req: float = 0.0
    put: float = 0.0
    get: float = 0.0
    flush: float = 0.0
    fence: float = 0.0
    fetch_op: float = 0.0
    atomic_apply: float = 0.0
    put_signal: float = 0.0
    wait_wakeup: float = 0.0
    poll_slot: float = 0.0
    # Fixed cost of one wake-and-recheck pass while polling: per signal
    # arrival inside a device-side ``wait_until`` (plus ``poll_slot`` per
    # watched slot), per arrival in a two-sided ``recv_poll`` loop.  On
    # V100-class hardware signal polling is markedly slower than on A100 —
    # one of the reasons SpTRSV stops scaling on Summit GPUs (Fig. 8).
    wait_poll: float = 0.0
    copy_per_byte: float = 0.0
    eager_threshold: float = 16 * 1024.0

    def __post_init__(self) -> None:
        for name in (
            "isend",
            "irecv",
            "recv_match",
            "sync_enter",
            "wait_per_req",
            "put",
            "get",
            "flush",
            "fence",
            "fetch_op",
            "atomic_apply",
            "put_signal",
            "wait_wakeup",
            "poll_slot",
            "wait_poll",
            "copy_per_byte",
            "eager_threshold",
        ):
            value = getattr(self, name)
            check_non_negative(name, value)
            if not isinstance(value, float):
                # A cost is charged by sleeping on it, and a sleep is a float.
                object.__setattr__(self, name, float(value))


@dataclass(frozen=True)
class GpuSpec:
    """GPU execution-model parameters.

    Attributes:
        mem_bandwidth: device HBM bandwidth (bytes/s) for modelled compute.
        thread_blocks: simultaneously schedulable blocks — the paper's
            "eighty thread blocks ... 320x parallelism on one node".
        flop_rate: peak FP64 rate (flops/s) for compute-bound kernels.
        kernel_launch: host->device kernel launch latency (seconds); paid
            once per launched kernel in host-driven execution, zero for
            persistent-kernel (GPU-initiated) execution.
    """

    mem_bandwidth: float
    thread_blocks: int
    flop_rate: float
    kernel_launch: float = 5e-6

    def __post_init__(self) -> None:
        check_positive("mem_bandwidth", self.mem_bandwidth)
        check_positive("flop_rate", self.flop_rate)
        check_non_negative("kernel_launch", self.kernel_launch)
        check_count("thread_blocks", self.thread_blocks)


Placement = str  # "spread" (round-robin over endpoints) or "block"


@dataclass
class MachineModel:
    """One evaluation platform (a row of the paper's Table I)."""

    name: str
    description: str
    topology: TopologySpec
    compute_endpoints: list[str]
    runtimes: dict[str, CommCosts]
    cores_per_endpoint: int
    mem_bandwidth_per_endpoint: float
    # A single core cannot saturate the socket's memory system; per-rank
    # streaming bandwidth is min(core bound, fair share of the socket).
    mem_bandwidth_per_core: float = 25e9
    flop_rate_per_core: float = 25e9
    gpu: GpuSpec | None = None
    nominal_link_specs: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.compute_endpoints:
            raise ValueError(f"machine {self.name!r} has no compute endpoints")
        for ep in self.compute_endpoints:
            if not self.topology.has_endpoint(ep):
                raise ValueError(
                    f"compute endpoint {ep!r} missing from topology of {self.name!r}"
                )
        if not self.runtimes:
            raise ValueError(f"machine {self.name!r} defines no runtimes")
        check_positive("mem_bandwidth_per_endpoint", self.mem_bandwidth_per_endpoint)
        check_count("cores_per_endpoint", self.cores_per_endpoint)

    # -- capacity ------------------------------------------------------------

    @property
    def is_gpu_machine(self) -> bool:
        return self.gpu is not None

    @property
    def max_ranks(self) -> int:
        """Hardware rank capacity: cores (CPU) or devices (GPU)."""
        if self.is_gpu_machine:
            return len(self.compute_endpoints)
        return len(self.compute_endpoints) * self.cores_per_endpoint

    def runtime(self, kind: str) -> CommCosts:
        try:
            return self.runtimes[kind]
        except KeyError:
            raise UnhostedRuntimeError(self.name, kind, self.runtimes) from None

    # -- rank placement --------------------------------------------------------

    def endpoint_of_rank(
        self, rank: int, nranks: int, placement: Placement = "block"
    ) -> str:
        """Map an MPI rank to its hosting endpoint.

        ``"block"`` fills endpoints in contiguous chunks (ranks 0..P/2-1 on
        socket 0); ``"spread"`` round-robins (rank i on endpoint i % E) —
        the flood benchmarks use spread so that ranks 0 and 1 land on
        different endpoints and actually exercise the fabric.
        """
        if not 0 <= rank < nranks:
            raise ValueError(f"rank {rank} out of range for nranks={nranks}")
        if nranks > self.max_ranks:
            raise ValueError(
                f"{nranks} ranks exceed capacity {self.max_ranks} of {self.name!r}"
            )
        eps = self.compute_endpoints
        if placement == "spread":
            return eps[rank % len(eps)]
        if placement == "block":
            return eps[rank * len(eps) // nranks]
        raise ValueError(f"unknown placement {placement!r}")

    def ranks_per_endpoint(
        self, nranks: int, placement: Placement = "block"
    ) -> dict[str, int]:
        """How many ranks share each endpoint under the given placement."""
        counts: dict[str, int] = {ep: 0 for ep in self.compute_endpoints}
        for r in range(nranks):
            counts[self.endpoint_of_rank(r, nranks, placement)] += 1
        return counts

    # -- compute model --------------------------------------------------------

    def compute_time(
        self,
        nbytes: float,
        flops: float = 0.0,
        *,
        sharing: int = 1,
    ) -> float:
        """Modelled time for local work touching ``nbytes`` of memory and
        executing ``flops`` floating-point operations.

        A GPU machine computes on its devices (each rank owns one); a CPU
        machine on cores, ``sharing`` of which concurrently share the
        endpoint's memory bandwidth (CPU ranks on one socket).  The model
        is roofline-style: ``max(bytes/bw, flops/rate)``.
        """
        check_non_negative("nbytes", nbytes)
        check_non_negative("flops", flops)
        check_count("sharing", sharing)
        if self.gpu is not None:
            bw = self.gpu.mem_bandwidth
            rate = self.gpu.flop_rate
        else:
            bw = self.mem_bandwidth_per_core
            shared = self.mem_bandwidth_per_endpoint / sharing
            if shared < bw:  # min(per core, per endpoint / sharing)
                bw = shared
            rate = self.flop_rate_per_core
        memory = nbytes / bw
        arithmetic = flops / rate if rate > 0 else 0.0
        return arithmetic if arithmetic > memory else memory  # max(memory, arithmetic)

    def describe(self) -> str:
        """Multi-line description used by the Table I bench."""
        lines = [f"{self.name}: {self.description}"]
        lines.append(self.topology.describe())
        lines.append(f"  runtimes: {', '.join(sorted(self.runtimes))}")
        lines.append(
            f"  compute endpoints: {len(self.compute_endpoints)} x "
            f"{self.cores_per_endpoint} cores, "
            f"{self.mem_bandwidth_per_endpoint / 1e9:.0f} GB/s memory each"
        )
        if self.gpu is not None:
            lines.append(
                f"  gpu: {self.gpu.mem_bandwidth / 1e9:.0f} GB/s HBM, "
                f"{self.gpu.thread_blocks} thread blocks"
            )
        return "\n".join(lines)
