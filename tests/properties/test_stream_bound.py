"""Property: stream-triggered is a modeled lower bound (hypothesis).

The derived stream profile (:func:`repro.comm.stream.derive_stream_costs`)
takes the cheapest positive issue cost any host profile carries, adds the
device-initiation term, and zeroes every host-side field — so on a GPU
machine hosting the 4-op one-sided emulation whose puts cost more than
that issue path plus initiation (summit-gpu with summit-cpu's profile:
0.55 us against 1.5 us), the stream-triggered modeled time of *any*
workload program never exceeds host-driven one-sided.  This is the
paper-shape claim behind the ``host_involvement`` ablation, checked here
over randomly drawn (workload, shape) points rather than the ablation's
five fixed ones.  Where one-sided's put is itself the cheapest issue path
(perlmutter: 0.35 us, so stream pays 0.40 us) issue-bound floods model
stream slower, and the claim does not hold.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.ablations import _with_hw_put_signal
from repro.ir import program_cost
from repro.machines.registry import get_machine
from repro.transport import ONE_SIDED, ONE_SIDED_HW, STREAM_TRIGGERED
from repro.workloads.flood import build_flood_program, run_flood
from repro.workloads.stencil.decomposition import ProcessGrid
from repro.workloads.stencil.runner import StencilConfig, build_stencil_program

def _summit_gpu_hosting_one_sided():
    """summit-gpu with summit-cpu's calibrated one-sided emulation (host
    software, as ``host_involvement`` equips perlmutter-gpu); the stream
    profile needs no entry (its backend derives it on a GPU node)."""
    machine = get_machine("summit-gpu")
    machine.runtimes[ONE_SIDED] = get_machine("summit-cpu").runtimes[ONE_SIDED]
    return machine


@st.composite
def program_pairs(draw):
    """The same workload shape lowered for one_sided and stream."""
    machine = _summit_gpu_hosting_one_sided()
    kind = draw(st.sampled_from(("flood", "stencil")))
    if kind == "flood":
        nbytes = draw(st.sampled_from((64, 1024, 4096, 65536)))
        n = draw(st.sampled_from((1, 4, 64)))
        iters = draw(st.integers(1, 3))
        build = lambda rt: build_flood_program(rt, nbytes, n, iters=iters)
    else:
        nranks = draw(st.sampled_from((1, 2, 4)))
        n = draw(st.sampled_from((16, 32)))
        cfg = StencilConfig(
            nx=n, ny=n, iters=draw(st.integers(1, 3)), mode="simulate"
        )
        grid = ProcessGrid.square_ish(nranks)
        build = lambda rt: build_stencil_program(rt, cfg, grid, nranks)
    return build(ONE_SIDED), build(STREAM_TRIGGERED), machine


@settings(max_examples=80, deadline=None)
@given(program_pairs())
def test_stream_never_models_slower_than_one_sided(pair):
    host, stream, machine = pair
    t_host = program_cost(host, machine)
    t_stream = program_cost(stream, machine)
    assert t_stream <= t_host * (1 + 1e-12), (
        f"stream modeled slower than one_sided on "
        f"{host.name}@{machine.name}: {t_host} -> {t_stream}"
    )


def test_executed_floods_keep_the_bound_and_the_host_bypass_margin():
    """Simulated, not modeled, on summit-gpu with summit-cpu's one-sided
    emulation and the put-with-signal NIC.  Where every sync is a host round trip (64 B, 1 msg/sync) stream
    beats even the hardware NIC by the documented 1.3x; where issue rate
    binds (4 KiB x 64) device initiation is paid per message and stream
    need not beat the NIC — only stay under the 4-op emulation, as it must
    across the whole grid."""
    machine = _with_hw_put_signal(_summit_gpu_hosting_one_sided())

    def seconds(runtime, nbytes, n):
        return run_flood(machine, runtime, nbytes, n, iters=3).time_total

    assert seconds(ONE_SIDED_HW, 64, 1) >= 1.3 * seconds(STREAM_TRIGGERED, 64, 1)
    for nbytes, n in ((64, 1), (64, 16), (512, 16), (4096, 64), (65536, 256)):
        assert seconds(STREAM_TRIGGERED, nbytes, n) <= (
            seconds(ONE_SIDED, nbytes, n) * (1 + 1e-12)
        )
