"""``repro.ir`` — a typed communication-pattern IR with verified passes.

ROADMAP item 4: the two transport patterns a pass can rewrite — the halo
exchange (HaloSpec) and the batch flood (BatchSpec) — promoted from
passive specs to a small program representation (ops grouped into
per-iteration regions), plus a pass
pipeline whose rewrites are grounded in the paper's central finding
(the *same* pattern costs very differently per runtime, so the wins
live in pattern-level rewrites):

* **coalesce** — merge a flood's small messages into one bulk message
  (hits the ``repro.perf`` engine);
* **overlap** — schedule halo-independent compute against in-flight
  transfers;
* **sync-elide** — drop epoch fences provably redundant under the
  backend's :class:`~repro.transport.api.BackendCaps`.

All passes are off by default: the flood and stencil runners emit IR and
lower it through :func:`run_program`, and with the empty pipeline the lowering
is byte-identical to the pre-IR hand-written runners (pinned by
``tests/regression/test_ir_parity.py``).  Opt in per scope::

    from repro import ir

    with ir.passes():                      # coalesce, overlap, sync-elide
        res = run_flood(machine, "one_sided", 64, 1024)

    with ir.passes(["coalesce"]), ir.collect() as reports:
        run_flood(machine, "one_sided", 64, 1024)
    print(reports[0].explain())

or through the facade (``Session(passes=True)``) and the CLI
(``repro ir explain <exp>``).  A pipeline is a set of pass names; the
passes run once, in one order (coalesce, overlap, sync-elide).  See
docs/IR.md.
"""

from repro.ir import ops
from repro.ir.config import collect, current_pipeline, passes
from repro.ir.cost import program_cost
from repro.ir.explain import IRReport, explain_all
from repro.ir.lower import IRRun, lower_rank, run_program
from repro.ir.pipeline import (
    DEFAULT_PASSES,
    PassPipeline,
    Rewrite,
    build_pipeline,
)
from repro.ir.program import IRProgram, Region, region_for_all

__all__ = [
    "ops",
    "DEFAULT_PASSES",
    "IRProgram",
    "IRReport",
    "IRRun",
    "PassPipeline",
    "Region",
    "Rewrite",
    "build_pipeline",
    "collect",
    "current_pipeline",
    "explain_all",
    "lower_rank",
    "passes",
    "program_cost",
    "region_for_all",
    "run_program",
]
