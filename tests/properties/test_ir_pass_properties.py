"""Property tests for the IR pass pipeline (hypothesis).

Two invariants, checked over randomly drawn (workload-program, machine,
backend) triples:

* **monotone** — no pass ever *increases* a program's modeled cost: the
  passes only merge messages, hide compute behind transfers or drop
  provably redundant fences, and the pipeline keeps a rewrite only where
  the cost model says it wins.
* **idempotent** — running a pipeline on its own output fires zero
  further rewrites and leaves the program unchanged: every rewrite
  removes its own precondition (a coalesced batch has n=1, split compute
  has no ``interior_frac``, an elided region has no fences).  So one
  ordered pass over the names, which is all ``PassPipeline.run`` makes,
  is a fixed point.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import build_pipeline, program_cost
from repro.machines.registry import get_machine
from repro.workloads.flood import build_flood_program
from repro.workloads.stencil.decomposition import ProcessGrid
from repro.workloads.stencil.runner import StencilConfig, build_stencil_program

MACHINES = ("perlmutter-cpu", "perlmutter-gpu", "summit-cpu", "frontier-gpu")

PASS_NAMES = ("coalesce", "overlap", "sync-elide")


def _backends_for(machine):
    return tuple(machine.runtimes)


@st.composite
def programs(draw):
    """A program from one of the two IR builders, on a real machine."""
    machine = get_machine(draw(st.sampled_from(MACHINES)))
    runtime = draw(st.sampled_from(_backends_for(machine)))
    kind = draw(st.sampled_from(("flood", "stencil")))
    if kind == "flood":
        program = build_flood_program(
            runtime,
            draw(st.sampled_from((64, 1024, 4096, 65536))),
            draw(st.sampled_from((1, 4, 64))),
            iters=draw(st.integers(1, 3)),
        )
    else:
        nranks = draw(st.sampled_from((1, 2, 4)))
        n = draw(st.sampled_from((16, 32)))
        cfg = StencilConfig(
            nx=n, ny=n, iters=draw(st.integers(1, 3)), mode="simulate"
        )
        program = build_stencil_program(
            runtime, cfg, ProcessGrid.square_ish(nranks), nranks
        )
    return program, machine


@settings(max_examples=60, deadline=None)
@given(programs(), st.sampled_from(PASS_NAMES))
def test_no_pass_increases_modeled_cost(prog_machine, pass_name):
    program, machine = prog_machine
    pipe = build_pipeline([pass_name])
    before = program_cost(program, machine)
    rewritten, _rewrites = pipe.run(program, machine)
    after = program_cost(rewritten, machine)
    assert after <= before * (1 + 1e-12), (
        f"{pass_name} increased modeled cost on {program.name}"
        f"@{machine.name}/{program.runtime}: {before} -> {after}"
    )


@settings(max_examples=60, deadline=None)
@given(
    programs(),
    st.lists(st.sampled_from(PASS_NAMES), min_size=1, max_size=3, unique=True),
)
def test_pipelines_are_idempotent(prog_machine, names):
    program, machine = prog_machine
    pipe = build_pipeline(names)
    once, _ = pipe.run(program, machine)
    twice, rewrites = pipe.run(once, machine)
    assert not rewrites, (
        f"second {names} run fired {[r.kind for r in rewrites]} "
        f"on {program.name}@{machine.name}/{program.runtime}"
    )
    assert twice.runtime == once.runtime
    assert [
        [type(op).__name__ for ops in r.body for op in ops]
        for r in twice.regions
    ] == [
        [type(op).__name__ for ops in r.body for op in ops]
        for r in once.regions
    ]


@settings(max_examples=30, deadline=None)
@given(programs())
def test_default_pipeline_cost_monotone_end_to_end(prog_machine):
    program, machine = prog_machine
    pipe = build_pipeline(True)
    before = program_cost(program, machine)
    rewritten, _ = pipe.run(program, machine)
    assert program_cost(rewritten, machine) <= before * (1 + 1e-12)
