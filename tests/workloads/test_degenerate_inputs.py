"""Degenerate inputs are typed errors that name the caller's argument.

``nan`` slips past every ``x < 1`` check and a fraction is no count; each
row below used to surface as a ``TypeError`` from building the program, a
float conversion error, a complaint about an argument the caller never
passed, an ``OverflowError`` deep in a retry loop, or no error at all.
Every count and size is judged by :mod:`repro.util.validation`.  A row
is ``(call, exception class, message)``: the call must raise exactly that
class, with a message naming the argument and its value, within a 20 s
wall-clock alarm, so a hang fails instead of stalling the suite.
"""

import signal

import pytest

from repro import Session, ir
from repro.cluster import Cluster, RecoveryConfig, run_recoverable_training
from repro.cluster.scheduler import place_ranks
from repro.collectives import CollectiveError, run_collective
from repro.comm.job import Job
from repro.faults import FaultPlan, RetransmitPolicy
from repro.machines import (
    UnhostedRuntimeError,
    get_machine,
    make_cluster,
    perlmutter_cpu,
    perlmutter_gpu,
)
from repro.net import CongestionConfig, FailoverRouting
from repro.net.loggp import LogGPParams
from repro.obs.sinks import RingBufferSink
from repro.roofline import FloodSample, MessageRoofline, SplitModel, fit_loggp
from repro.sim import SimulationError, Simulator
from repro.sweep import execution
from repro.workloads.flood import run_cas_flood, run_flood
from repro.workloads.hashtable.runner import HashTableConfig, run_hashtable
from repro.workloads.hashtable.table import TableGeometry
from repro.workloads.ml import (
    RecoverableTrainingSpec,
    run_kv_transfer,
    run_moe_dispatch,
    run_training_step,
)
from repro.workloads.sptrsv import MatrixSpec, generate_matrix, run_sptrsv
from repro.workloads.sptrsv.plan import BlockCyclicLayout
from repro.workloads.stencil import StencilConfig, run_stencil
from repro.workloads.stencil.decomposition import ProcessGrid

NAN, INF = float("nan"), float("inf")
CPU, GPU = perlmutter_cpu, perlmutter_gpu
ALARM_SECONDS = 20
DRAGONFLY = "perlmutter-cpu-x8@dragonfly(4,2,2)"


def _fit_with(**bad):
    """Fit four clean samples and one with ``bad`` fields."""
    clean = FloodSample(nbytes=64.0, msgs_per_sync=1, bandwidth=1e9)
    return fit_loggp([clean] * 4 + [FloodSample(**{**vars(clean), **bad})])


def _recoverable(spec=None, config=None):
    cluster = Cluster(DRAGONFLY)
    return run_recoverable_training(cluster, spec, nranks=4, config=config)


def _sweep_with(jobs):
    with execution(jobs=jobs):
        pass


def _split_speedup(k):
    return SplitModel.from_machine(GPU(), "gpu0", "gpu1").speedup(1 << 20, k=k)


def _sptrsv(nranks):
    matrix = generate_matrix(MatrixSpec(n_supernodes=8, width_hi=8))
    return run_sptrsv(CPU(), "two_sided", matrix, nranks)


ROOF = MessageRoofline(LogGPParams(L=1e-6, o=2e-7, g=2e-8, G=4e-11, o_sync=5e-7))
V, C = ValueError, CollectiveError
PASSES = r"passes must be a bool, None, a PassPipeline or a collection of pass names, not "
NOT_HOSTED = (
    r"machine 'perlmutter-cpu' has no runtime '{}'; available: \['one_sided', 'two_sided'\]$"
)


CASES = {
    "flood-msgs-nan": (
        lambda: run_flood(CPU(), "one_sided", 64, NAN),
        V, r"flood msgs_per_sync must be an integer >= 1, got nan",
    ),
    "flood-msgs-fraction": (
        lambda: run_flood(CPU(), "one_sided", 64, 2.5),
        V, r"flood msgs_per_sync must be an integer >= 1, got 2\.5",
    ),
    "cas-n_ops-nan": (
        lambda: run_cas_flood(CPU(), "one_sided", n_ops=NAN),
        V, r"cas flood n_ops must be an integer >= 1, got nan",
    ),
    "hashtable-total_inserts-nan": (
        lambda: run_hashtable(CPU(), "one_sided", HashTableConfig(total_inserts=NAN), 2),
        V, r"hashtable total_inserts must be an integer >= 1, got nan",
    ),
    "kv-layers-nan": (
        lambda: run_kv_transfer(GPU(), "shmem", nranks=2, layers=NAN),
        C, r"kv_transfer layers must be an integer >= 1, got nan",
    ),
    "moe-hidden-nan": (
        lambda: run_moe_dispatch(GPU(), "shmem", nranks=2, hidden=NAN),
        C, r"moe hidden must be an integer >= 1, got nan",
    ),
    "training-tokens_per_rank-nan": (
        lambda: run_training_step(
            GPU(), "shmem", nranks=2, grad_bytes=1024.0, tokens_per_rank=NAN
        ),
        C, r"training tokens_per_rank must be an integer >= 1, got nan",
    ),
    # An infinite retry budget against a dead element used to retry until
    # ``backoff ** attempts`` overflowed; a fraction silently truncated.
    "retransmit-max_retries-nan": (
        lambda: RetransmitPolicy(max_retries=NAN),
        V, r"max_retries must be an integer >= 0, got nan",
    ),
    "retransmit-max_retries-inf": (
        lambda: RetransmitPolicy(max_retries=INF),
        V, r"max_retries must be an integer >= 0, got inf",
    ),
    "retransmit-max_retries-fraction": (
        lambda: RetransmitPolicy(max_retries=2.5),
        V, r"max_retries must be an integer >= 0, got 2\.5",
    ),
    # A boolean seed was taken as 1 while a numpy integer was refused.
    "fault_plan-seed-bool": (
        lambda: FaultPlan(seed=True), V, r"seed must be an integer >= 0, got True",
    ),
    "matrix-density_range-nan": (
        lambda: MatrixSpec(density_range=NAN),
        V, r"matrix density_range must be finite and > 0, got nan",
    ),
    "matrix-n_supernodes-fraction": (
        lambda: MatrixSpec(n_supernodes=2.5),
        V, r"matrix n_supernodes must be an integer >= 2, got 2\.5",
    ),
    "matrix-width_hi-fraction": (
        lambda: MatrixSpec(width_hi=4.5),
        V, r"matrix width_hi must be an integer >= 1, got 4\.5",
    ),
    "flood-nranks-fraction": (
        lambda: run_flood(CPU(), "one_sided", 64, 4, nranks=2.5),
        V, r"flood nranks must be an integer >= 2, got 2\.5",
    ),
    "cas-nranks-fraction": (
        lambda: run_cas_flood(CPU(), "one_sided", nranks=2.5),
        V, r"cas flood nranks must be an integer >= 2, got 2\.5",
    ),
    "stencil-nranks-fraction": (
        lambda: run_stencil(CPU(), "one_sided", StencilConfig(nx=16, ny=16), 2.5),
        V, r"stencil nranks must be an integer >= 1, got 2\.5",
    ),
    "training-iters-zero": (
        lambda: run_training_step(GPU(), "shmem", nranks=2, grad_bytes=1024.0, iters=0),
        C, r"training iters must be an integer >= 1, got 0",
    ),
    "training-iters-fraction": (
        lambda: run_training_step(GPU(), "shmem", nranks=2, grad_bytes=1024.0, iters=2.5),
        C, r"training iters must be an integer >= 1, got 2\.5",
    ),
    "collective-iters-zero": (
        lambda: run_collective(GPU(), "shmem", "allreduce", nranks=2, nelems=64, iters=0),
        C, r"^collective iters must be an integer >= 1, got 0$",
    ),
    "collective-stripes-zero": (
        lambda: run_collective(GPU(), "shmem", "allreduce", nranks=2, nelems=64, stripes=0),
        C, r"^collective stripes must be an integer >= 1, got 0$",
    ),
    "moe-iters-zero": (
        lambda: run_moe_dispatch(GPU(), "shmem", nranks=2, iters=0),
        C, r"moe iters must be an integer >= 1, got 0",
    ),
    "moe-iters-fraction": (
        lambda: run_moe_dispatch(GPU(), "shmem", nranks=2, iters=2.5),
        C, r"moe iters must be an integer >= 1, got 2\.5",
    ),
    # The fit used to stop inside its solver ("Initial guess is outside of
    # provided bounds", "Residuals are not finite") or fit a fraction.
    "fit-bandwidth-nan": (
        lambda: _fit_with(bandwidth=NAN),
        V, r"fit sample bandwidth must be finite and > 0, got nan",
    ),
    "fit-nbytes-inf": (
        lambda: _fit_with(nbytes=INF),
        V, r"fit sample nbytes must be finite and > 0, got inf",
    ),
    "fit-bandwidth-inf": (
        lambda: _fit_with(bandwidth=INF),
        V, r"fit sample bandwidth must be finite and > 0, got inf",
    ),
    "fit-msgs_per_sync-fraction": (
        lambda: _fit_with(msgs_per_sync=2.5),
        V, r"fit sample msgs_per_sync must be an integer >= 1, got 2\.5",
    ),
    # The Message Roofline used to answer nan, accept a fractional count,
    # divide by zero, fail a float conversion, or price a negative size.
    "roofline-time-nbytes-nan": (
        lambda: ROOF.time(NAN),
        V, r"roofline nbytes must be a finite number >= 0, got nan",
    ),
    "roofline-time-nbytes-inf": (
        lambda: ROOF.time(INF, 4),
        V, r"roofline nbytes must be a finite number >= 0, got inf",
    ),
    "roofline-bandwidth-nbytes-nan": (
        lambda: ROOF.bandwidth(NAN),
        V, r"roofline nbytes must be a finite number > 0, got nan",
    ),
    "roofline-bandwidth-nbytes-inf": (
        lambda: ROOF.bandwidth(INF, 4),
        V, r"roofline nbytes must be a finite number > 0, got inf",
    ),
    "roofline-bound-nbytes-nan": (
        lambda: ROOF.bound(NAN),
        V, r"roofline nbytes must be a finite number > 0, got nan",
    ),
    "roofline-time-msgs_per_sync-fraction": (
        lambda: ROOF.time(64, 2.5),
        V, r"roofline msgs_per_sync must be an integer >= 1, got 2\.5",
    ),
    "roofline-knee_size-msgs_per_sync-zero": (
        lambda: ROOF.knee_size(0),
        V, r"roofline msgs_per_sync must be an integer >= 1, got 0",
    ),
    "roofline-required_msgs_per_sync-nbytes-nan": (
        lambda: ROOF.required_msgs_per_sync(NAN, 0.5),
        V, r"roofline nbytes must be a finite number > 0, got nan",
    ),
    "roofline-max_overlap_gain-nbytes-negative": (
        lambda: ROOF.max_overlap_gain(-1),
        V, r"roofline nbytes must be a finite number >= 0, got -1",
    ),
    # Accepted without an error: a nan count ran zero steps or wrote zero
    # checkpoints, ran a sweep serially, priced a speed-up, or set a
    # congestion or failover knob that no comparison ever fires.
    "recoverable-steps-nan": (
        lambda: _recoverable(spec=RecoverableTrainingSpec(steps=NAN)),
        V, r"steps must be an integer >= 1, got nan",
    ),
    "recovery-checkpoint_interval-nan": (
        lambda: _recoverable(config=RecoveryConfig(checkpoint_interval=NAN)),
        V, r"checkpoint_interval must be an integer >= 1, got nan",
    ),
    "sweep-jobs-nan": (
        lambda: _sweep_with(NAN), V, r"jobs must be an integer >= 1, got nan",
    ),
    "sweep-jobs-fraction": (
        lambda: _sweep_with(2.5), V, r"jobs must be an integer >= 1, got 2\.5",
    ),
    "split-k-nan": (
        lambda: _split_speedup(NAN), V, r"k must be an integer >= 1, got nan",
    ),
    "split-k-fraction": (
        lambda: _split_speedup(2.5), V, r"k must be an integer >= 1, got 2\.5",
    ),
    "compute_time-sharing-nan": (
        lambda: CPU().compute_time(0, 1e9, sharing=NAN),
        V, r"sharing must be an integer >= 1, got nan",
    ),
    "congestion-ecn_threshold-nan": (
        lambda: CongestionConfig(ecn_threshold=NAN),
        V, r"ecn_threshold must be finite and >= 0, got nan",
    ),
    "congestion-recover-nan": (
        lambda: CongestionConfig(recover=NAN),
        V, r"recover must be finite and >= 0, got nan",
    ),
    "failover-suspect_after-nan": (
        lambda: FailoverRouting(suspect_after=NAN),
        V, r"suspect_after must be an integer >= 1, got nan",
    ),
    "failover-suspect_after-fraction": (
        lambda: FailoverRouting(suspect_after=2.5),
        V, r"suspect_after must be an integer >= 1, got 2\.5",
    ),
    # A TypeError from ``range`` or a float conversion error, naming no
    # argument.
    "sptrsv-nranks-nan": (
        lambda: _sptrsv(NAN), V, r"nranks must be an integer >= 1, got nan",
    ),
    "sptrsv-nranks-fraction": (
        lambda: _sptrsv(2.5), V, r"nranks must be an integer >= 1, got 2\.5",
    ),
    "job-nranks-nan": (
        lambda: Job(CPU(), NAN, "two_sided"),
        V, r"nranks must be an integer >= 1, got nan",
    ),
    "job-nranks-fraction": (
        lambda: Job(CPU(), 2.5, "two_sided"),
        V, r"nranks must be an integer >= 1, got 2\.5",
    ),
    "make_cluster-nnodes-nan": (
        lambda: make_cluster(CPU(), NAN), V, r"nnodes must be an integer >= 1, got nan",
    ),
    "make_cluster-nnodes-fraction": (
        lambda: make_cluster(CPU(), 2.5), V, r"nnodes must be an integer >= 1, got 2\.5",
    ),
    "process_grid-nranks-nan": (
        lambda: ProcessGrid.square_ish(NAN),
        V, r"nranks must be an integer >= 1, got nan",
    ),
    "process_grid-nranks-fraction": (
        lambda: ProcessGrid.square_ish(2.5),
        V, r"nranks must be an integer >= 1, got 2\.5",
    ),
    "block_cyclic-nranks-nan": (
        lambda: BlockCyclicLayout.square_ish(NAN),
        V, r"nranks must be an integer >= 1, got nan",
    ),
    "block_cyclic-nranks-fraction": (
        lambda: BlockCyclicLayout.square_ish(2.5),
        V, r"nranks must be an integer >= 1, got 2\.5",
    ),
    "hashtable-nranks-nan": (
        lambda: run_hashtable(CPU(), "one_sided", HashTableConfig(total_inserts=64), NAN),
        V, r"nranks must be an integer >= 1, got nan",
    ),
    "table_geometry-nranks-nan": (
        lambda: TableGeometry.for_inserts(NAN, 64),
        V, r"nranks must be an integer >= 1, got nan",
    ),
    # ``nelems must be finite``: an argument the caller never passed.
    "moe-nranks-nan": (
        lambda: run_moe_dispatch(GPU(), "shmem", nranks=NAN),
        C, r"moe nranks must be an integer >= 1, got nan",
    ),
    "moe-nranks-fraction": (
        lambda: run_moe_dispatch(GPU(), "shmem", nranks=2.5),
        C, r"moe nranks must be an integer >= 1, got 2\.5",
    ),
    "ring-capacity-nan": (
        lambda: RingBufferSink(NAN), V, r"ring capacity must be an integer >= 1, got nan",
    ),
    "ring-capacity-fraction": (
        lambda: RingBufferSink(2.5), V, r"ring capacity must be an integer >= 1, got 2\.5",
    ),
    # P = 0: every runner that takes a rank count refuses an empty job by
    # name before building anything.
    "flood-nranks-zero": (
        lambda: run_flood(CPU(), "one_sided", 64, 4, nranks=0),
        V, r"flood nranks must be an integer >= 2, got 0",
    ),
    "cas-nranks-zero": (
        lambda: run_cas_flood(CPU(), "one_sided", nranks=0),
        V, r"cas flood nranks must be an integer >= 2, got 0",
    ),
    "hashtable-nranks-zero": (
        lambda: run_hashtable(CPU(), "one_sided", HashTableConfig(total_inserts=64), 0),
        V, r"nranks must be an integer >= 1, got 0",
    ),
    "stencil-nranks-zero": (
        lambda: run_stencil(CPU(), "one_sided", StencilConfig(nx=16, ny=16), 0),
        V, r"stencil nranks must be an integer >= 1, got 0",
    ),
    "training-nranks-zero": (
        lambda: run_training_step(GPU(), "shmem", nranks=0, grad_bytes=1024.0),
        C, r"^training nranks must be an integer >= 1, got 0$",
    ),
    "collective-nranks-zero": (
        lambda: run_collective(GPU(), "shmem", "allreduce", nranks=0, nelems=64),
        C, r"^collective nranks must be an integer >= 1, got 0$",
    ),
    "moe-nranks-zero": (
        lambda: run_moe_dispatch(GPU(), "shmem", nranks=0),
        C, r"moe nranks must be an integer >= 1, got 0",
    ),
    "kv-nranks-zero": (
        lambda: run_kv_transfer(GPU(), "shmem", nranks=0),
        C, r"kv_transfer nranks \(a prefill rank and >= 1 replica\) must be an "
        r"integer >= 2, got 0",
    ),
    "job-nranks-zero": (
        lambda: Job(CPU(), 0, "two_sided"), V, r"nranks must be an integer >= 1, got 0",
    ),
    # A slice-index TypeError, or (nan) a budget no event count reaches.
    "place_ranks-nranks-nan": (
        lambda: place_ranks(get_machine(DRAGONFLY), NAN, "packed"),
        V, r"nranks must be an integer >= 1, got nan",
    ),
    "place_ranks-nranks-fraction": (
        lambda: place_ranks(get_machine(DRAGONFLY), 2.5, "packed"),
        V, r"nranks must be an integer >= 1, got 2\.5",
    ),
    "simulator-max_events-nan": (
        lambda: Simulator().run(max_events=NAN),
        SimulationError, r"max_events must be an integer >= 1, got nan",
    ),
    # A bare name was read letter by letter (``unknown IR pass 'c'``); an
    # int was ``'int' object is not iterable``.
    "ir_passes-str": (lambda: ir.passes("coalesce"), TypeError, PASSES + "'coalesce'"),
    "session-passes-str": (
        lambda: Session(passes="coalesce"), TypeError, PASSES + "'coalesce'",
    ),
    "build_pipeline-str": (
        lambda: ir.build_pipeline("coalesce"), TypeError, PASSES + "'coalesce'",
    ),
    "build_pipeline-int": (lambda: ir.build_pipeline(1), TypeError, PASSES + "1$"),
    "pass_pipeline-str": (
        lambda: ir.PassPipeline("coalesce"), TypeError, PASSES + "'coalesce'",
    ),
    # A runtime the machine has no profile for was a bare ``KeyError``, and
    # a stream-triggered job on a CPU-only node ran with a device stream it
    # does not have; both are one typed refusal, still a ``KeyError``.
    "runtime-not-hosted": (
        lambda: Job(CPU(), 2, "shmem"), UnhostedRuntimeError, NOT_HOSTED.format("shmem"),
    ),
    "stream-without-gpu": (
        lambda: run_flood(CPU(), "stream_triggered", 64, 16),
        UnhostedRuntimeError, NOT_HOSTED.format("stream_triggered"),
    ),
}


def _hung(signum, frame):
    raise TimeoutError(f"no answer within the {ALARM_SECONDS} s alarm")


@pytest.mark.parametrize("case", list(CASES))
def test_degenerate_count_names_the_argument(case):
    call, error, message = CASES[case]
    previous = signal.signal(signal.SIGALRM, _hung)
    signal.alarm(ALARM_SECONDS)
    try:
        with pytest.raises(error, match=message) as raised:
            call()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert type(raised.value) is error


def test_a_one_rank_allreduce_moves_no_message():
    """P = 1, the reference row beside the P = 0 refusals: a correct answer,
    not an error, and nothing on the wire."""
    result = run_collective(GPU(), "shmem", "allreduce", nranks=1, nelems=64)
    assert result.nranks == 1
    assert result.stats.messages == 0 and result.stats.bytes_moved == 0.0
