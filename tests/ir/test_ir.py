"""Unit tests for repro.ir: programs, passes, cost model, reports, obs."""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

import pytest

from repro import ir, obs
from repro.ir import ops as O
from repro.ir.cost import CostModel, program_cost
from repro.ir.program import Region, region_for_all, static_program
from repro.machines.registry import get_machine
from repro.workloads.flood import build_flood_program, run_flood
from repro.workloads.hashtable.runner import (
    HashTableConfig,
    build_hashtable_program,
    generate_keys,
    run_hashtable,
)
from repro.workloads.hashtable.table import TableGeometry
from repro.workloads.sptrsv import MatrixSpec, generate_matrix, run_sptrsv
from repro.workloads.stencil.decomposition import ProcessGrid
from repro.workloads.stencil.runner import StencilConfig, build_stencil_program

M = get_machine("perlmutter-cpu")


class TestProgram:
    def test_flood_program_shape(self):
        p = build_flood_program("one_sided", 4096, 8, iters=2)
        assert p.portable
        assert len(p.regions) == 2
        r0 = p.regions[0].rank_ops(0)
        assert r0 == (O.BatchSend(1, 0, 8), O.Barrier())
        assert p.regions[1].rank_ops(1) == (O.BatchWait(0, 1, 8), O.Barrier())

    def test_static_program_replicates_shared_prologue(self):
        p = static_program(
            "t", None, 3, "two_sided", prologue=[O.Barrier()], regions=[]
        )
        assert len(p.prologue) == 3
        assert all(len(ops) == 1 for ops in p.prologue)

    def test_region_for_all(self):
        r = region_for_all("r", 2, lambda rank: [O.Barrier()])
        assert isinstance(r, Region) and len(r.body) == 2

    def test_op_count(self):
        p = build_flood_program("one_sided", 64, 4, iters=1)
        assert p.op_count() > 0


@dataclasses.dataclass(frozen=True)
class Teleport(O.Op):
    """An op outside the vocabulary."""


class TestLoweringTable:
    """One ``op class -> lowering`` table; vocabulary and table move
    together."""

    def test_every_op_class_has_a_lowering(self):
        from repro.ir.lower import LOWERINGS

        vocabulary = {getattr(O, name) for name in O.__all__} - {O.Op}
        assert len(vocabulary) == 14
        assert vocabulary == set(LOWERINGS)
        assert all(callable(fn) for fn in LOWERINGS.values())

    def test_every_op_class_is_built_outside_the_lowering(self):
        """An op exists for what a builder constructs and a pass or the
        cost model reads: a class only ``lower.py`` ever instantiates is a
        layer that forwards, not vocabulary."""
        src = Path(ir.__file__).parents[1]
        built = set()
        for path in src.rglob("*.py"):
            if path.name == "lower.py" and path.parent.name == "ir":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    fn = node.func
                    built.add(fn.attr if isinstance(fn, ast.Attribute)
                              else getattr(fn, "id", None))
        assert set(O.__all__) - {"Op"} <= built

    def test_unknown_op_raises_type_error(self):
        from repro.ir.lower import lowering_of

        with pytest.raises(TypeError, match="no lowering for op Teleport"):
            lowering_of(Teleport())

    def test_static_program_with_unknown_op_fails_the_run(self):
        base = build_flood_program("two_sided", 64, 2, iters=1)
        bad = base.with_(prologue=tuple((Teleport(),) for _ in range(base.nranks)))
        with pytest.raises(TypeError, match="no lowering for op Teleport"):
            ir.run_program(get_machine("perlmutter-cpu"), bad)


class TestPipeline:
    def test_build_pipeline_validates_names(self):
        with pytest.raises(ValueError, match="unknown IR pass"):
            ir.build_pipeline(["coalesce", "nope"])

    def test_build_pipeline_bool_forms(self):
        assert not ir.build_pipeline(False).enabled
        assert not ir.build_pipeline(None).enabled
        assert ir.build_pipeline(True).names() == ir.DEFAULT_PASSES

    def test_coalesce_respects_byte_cap(self):
        from repro.ir.pipeline import _COALESCE_BYTE_CAP

        huge = build_flood_program(
            "one_sided", _COALESCE_BYTE_CAP, 4, iters=1
        )
        pipe = ir.build_pipeline(["coalesce"])
        _, rewrites = pipe.run(huge, M)
        assert rewrites == []

    def test_sync_elide_needs_fence_epochs(self):
        grid = ProcessGrid.square_ish(4)
        cfg = StencilConfig(nx=16, ny=16, iters=2)
        pipe = ir.build_pipeline(["sync-elide"])
        rma = build_stencil_program("one_sided", cfg, grid, 4)
        _, fired = pipe.run(rma, M)
        assert fired and fired[0].kind == "fence"
        two = build_stencil_program("two_sided", cfg, grid, 4)
        _, not_fired = pipe.run(two, M)
        assert not_fired == []

    def test_coalesce_and_overlap_cut_modeled_cost(self):
        """The message-aggregation win, >= 1.2x modeled: small puts under
        one sync (one-sided flood) and owner-routed triplets under a
        window wide enough to hold same-owner groups (two-sided
        hashtable); the simulated flood follows the model down."""
        cfg = HashTableConfig(total_inserts=2000, sync_window=16)
        geom = TableGeometry.for_inserts(4, 2000, load_factor=cfg.load_factor)
        keys = generate_keys(cfg, 4)
        programs = [
            build_flood_program("one_sided", 4096, 64, iters=3),
            build_hashtable_program("two_sided", geom, keys, 16, 4),
        ]
        pipe = ir.build_pipeline(["coalesce", "overlap"])
        for program in programs:
            rewritten, _ = pipe.run(program, M)
            assert program_cost(program, M) >= 1.2 * program_cost(rewritten, M)
        base = run_flood(M, "one_sided", 4096, 64, iters=3)
        with ir.passes(["coalesce", "overlap"]):
            assert run_flood(M, "one_sided", 4096, 64, iters=3).time_total < (
                base.time_total
            )

    def test_auto_backend_requires_portable(self):
        p = build_flood_program("one_sided", 65536, 64, iters=1)
        assert p.portable
        pipe = ir.build_pipeline(["auto-backend"])
        rewritten, _ = pipe.run(p.with_(portable=False), M)
        assert rewritten.runtime == "one_sided"


class TestCostModel:
    def test_for_machine(self):
        cm = CostModel.for_(M, "one_sided", 2)
        assert cm.alpha > 0 and cm.G > 0 and cm.barrier > 0

    def test_more_messages_cost_more(self):
        small = build_flood_program("one_sided", 4096, 4, iters=1)
        big = build_flood_program("one_sided", 4096, 64, iters=1)
        assert program_cost(big, M) > program_cost(small, M)

    def test_message_overhead_is_the_patterns_ops_counted_once(self):
        """``o`` already sums the message's ops (it used to be multiplied by
        ``ops_per_message`` again), and a batched flood is priced as puts
        plus one completion per sync, not as 4-op notified messages."""
        c = M.runtime("one_sided")
        mailbox = CostModel.for_(M, "one_sided", 2, "mailbox")
        assert mailbox.message_overhead() == 2 * c.put + 2 * c.flush
        assert CostModel.for_(M, "one_sided", 2, "batch").message_overhead() == c.put
        # The order the simulator and Fig. 3a give for a 256 x 64 B flood.
        flood = build_flood_program("one_sided", 64, 256, iters=2)
        assert program_cost(flood, M) < program_cost(flood, M, runtime="two_sided")


class TestScopes:
    def test_innermost_pipeline_wins(self):
        with ir.passes(["coalesce"]):
            with ir.passes(False):
                assert not ir.current_pipeline().enabled
            assert ir.current_pipeline().names() == ("coalesce",)

    def test_default_is_empty(self):
        assert not ir.current_pipeline().enabled

    def test_faults_force_scalar_pipeline(self):
        from repro import faults

        plan = faults.FaultPlan.uniform(loss=0.2, seed=1)
        with faults.inject(plan), ir.passes(True), ir.collect() as reports:
            run_hashtable(M, "two_sided", HashTableConfig(total_inserts=64), 2)
        (rep,) = reports
        assert rep.passes == ()
        assert any("faults active" in n for n in rep.notes)


class TestObsIntegration:
    def test_counters_and_span(self):
        session = obs.Obs()
        with obs.observe(session), ir.passes(True):
            run_hashtable(M, "two_sided", HashTableConfig(total_inserts=64), 2)
        snap = session.snapshot()
        assert snap["ir.programs.lowered"] >= 1
        assert snap["ir.ops.lowered"] > 0
        assert any(k.startswith("ir.ops.") and k != "ir.ops.lowered"
                   for k in snap)

    @pytest.mark.parametrize("run, expected", [
        (
            lambda rt: run_sptrsv(
                M, rt,
                generate_matrix(MatrixSpec(
                    n_supernodes=20, width_lo=2, width_hi=12, seed=3
                )),
                4,
            ),
            {"one_sided": {"messages": 60, "recv_messages": 0},
             "two_sided": {"messages": 30, "recv_messages": 30}},
        ),
        (
            lambda rt: run_hashtable(
                M, rt, HashTableConfig(total_inserts=64), 2
            ),
            # 64 CAS + 21 FAA + 21 swap; one publish per collision.
            {"one_sided": {"atomics": 106, "messages": 21, "collisions": 21}},
        ),
    ], ids=["sptrsv", "hashtable"])
    def test_dynamic_programs_count_every_verb(self, run, expected):
        """The op streams of the two data-dependent workloads, pinned where
        they are counted now: they are rank programs over the endpoint
        verbs, so ``WorkloadResult.counters`` sees every message and atomic
        and nothing is lowered (no ``ir.*`` count, no IR report)."""
        session = obs.Obs()
        with obs.observe(session), ir.collect() as reports:
            results = {rt: run(rt) for rt in expected}
        for rt, want in expected.items():
            seen = {**vars(results[rt].counters), **results[rt].extras}
            assert {k: seen[k] for k in want} == want
        assert reports == []
        assert not any(k.startswith("ir.") for k in session.snapshot())
