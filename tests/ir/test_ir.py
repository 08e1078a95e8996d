"""Unit tests for repro.ir: programs, passes, cost model, reports, obs."""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

import pytest

from repro import ir, obs
from repro.ir import ops as O
from repro.ir.cost import program_cost
from repro.ir.program import IRProgram, Region, region_for_all
from repro.machines.registry import get_machine
from repro.workloads.flood import build_flood_program, run_flood
from repro.workloads.hashtable.runner import HashTableConfig, run_hashtable
from repro.workloads.sptrsv import MatrixSpec, generate_matrix, run_sptrsv
from repro.workloads.stencil.decomposition import ProcessGrid
from repro.workloads.stencil.runner import StencilConfig, build_stencil_program

M = get_machine("perlmutter-cpu")


def _callers() -> dict[str, set[str]]:
    """Called name -> the ``src/repro`` files (relative paths) calling it."""
    src = Path(ir.__file__).parents[1]
    found: dict[str, set[str]] = {}
    for path in src.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                fn = node.func
                called = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
                found.setdefault(called, set()).add(path.relative_to(src).as_posix())
    return found


class TestProgram:
    def test_flood_program_shape(self):
        p = build_flood_program("one_sided", 4096, 8, iters=2)
        assert len(p.regions) == 2
        assert p.regions[0].body[0] == (O.BatchSend(1, 0, 8), O.Barrier())
        assert p.regions[1].body[1] == (O.BatchWait(0, 1, 8), O.Barrier())

    def test_region_for_all(self):
        r = region_for_all("r", 2, lambda rank: [O.Barrier()])
        assert isinstance(r, Region) and len(r.body) == 2

    def test_a_program_is_seven_fields(self):
        """No per-rank prologue / epilogue, no notes, no portability flag:
        the opening barrier is the lowering's, and every program may be
        retargeted."""
        assert [f.name for f in dataclasses.fields(IRProgram)] == [
            "name", "spec", "nranks", "runtime", "regions", "setup", "finalize",
        ]

    def test_only_the_halo_and_batch_builders_build_programs(self):
        assert _callers()["IRProgram"] == {
            "workloads/flood.py", "workloads/stencil/runner.py",
        }


def _sweep_point(params, seed):
    return {"v": params["x"]}


@dataclasses.dataclass(frozen=True)
class Teleport(O.Op):
    """An op outside the vocabulary."""


class TestLoweringTable:
    """One ``op class -> lowering`` table; vocabulary and table move
    together."""

    def test_every_op_class_has_a_lowering(self):
        from repro.ir.lower import LOWERINGS

        vocabulary = {getattr(O, name) for name in O.__all__} - {O.Op}
        assert len(vocabulary) == 7
        assert vocabulary == set(LOWERINGS)
        assert all(callable(fn) for fn in LOWERINGS.values())

    def test_every_op_class_is_built_outside_the_lowering(self):
        """An op exists for what a builder constructs and a pass or the
        cost model reads: a class only ``lower.py`` ever instantiates is a
        layer that forwards, not vocabulary."""
        callers = _callers()
        for name in set(O.__all__) - {"Op"}:
            assert callers.get(name, set()) - {"ir/lower.py"}, name

    def test_unknown_op_raises_type_error(self):
        from repro.ir.lower import lowering_of

        with pytest.raises(TypeError, match="no lowering for op Teleport"):
            lowering_of(Teleport())

    def test_static_program_with_unknown_op_fails_the_run(self):
        base = build_flood_program("two_sided", 64, 2, iters=1)
        bad = base.with_(regions=(region_for_all("bad", base.nranks, lambda r: [Teleport()]),))
        with pytest.raises(TypeError, match="no lowering for op Teleport"):
            ir.run_program(get_machine("perlmutter-cpu"), bad)


class TestPipeline:
    def test_build_pipeline_validates_names(self):
        with pytest.raises(ValueError, match="unknown IR pass"):
            ir.build_pipeline(["coalesce", "nope"])

    def test_build_pipeline_bool_forms(self):
        assert not ir.build_pipeline(False).enabled
        assert not ir.build_pipeline(None).enabled
        assert ir.build_pipeline(True).passes == ir.DEFAULT_PASSES

    def test_pipeline_is_a_set(self, tmp_path):
        """Names in any order (or repeated) are one pipeline, run in the one
        canonical order, so a warm cache serves every spelling."""
        from repro.sweep import ResultCache, SweepSpec, run_sweep

        a = ir.build_pipeline(["overlap", "coalesce"])
        b = ir.build_pipeline(["coalesce", "overlap", "coalesce"])
        assert a == b and a.passes == ("coalesce", "overlap")
        assert a.fingerprint() == b.fingerprint() == ["coalesce", "overlap"]
        assert ir.build_pipeline(["sync-elide", "coalesce"]) == ir.build_pipeline(
            ["coalesce", "sync-elide"]
        )
        spec = SweepSpec(
            name="pipeline-set", runner=_sweep_point, points=[{"x": 1}, {"x": 2}]
        )
        cache = ResultCache(tmp_path)
        with ir.passes(["overlap", "coalesce"]):
            run_sweep(spec, cache=cache)
        with ir.passes(["coalesce", "overlap"]):
            warm = run_sweep(spec, cache=cache)
        assert all(r.cached for r in warm)
        assert (cache.hits, cache.misses) == (2, 2)

    def test_coalesce_needs_a_win(self):
        """A bandwidth-bound batch (B*G >= o) gains nothing by merging,
        so 4 MiB x 4 stays four messages."""
        huge = build_flood_program("one_sided", 4 << 20, 4, iters=1)
        _, rewrites = ir.build_pipeline(["coalesce"]).run(huge, M)
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
        # A stream-ordered epoch-open runs no fence: nothing to elide.
        stream = build_stencil_program("stream_triggered", cfg, grid, 4)
        assert pipe.run(stream, get_machine("perlmutter-gpu"))[1] == []

    @pytest.mark.parametrize("machine, runtime, nbytes, n, fires", [
        # Bandwidth-bound: the parent's coalesce fired at no modeled win
        # and ran these 3.58x, 1.73x and 1.61x slower.
        ("perlmutter-gpu", "shmem", 65536, 64, False),
        ("summit-cpu", "one_sided", 65536, 64, False),
        ("summit-cpu", "two_sided", 65536, 16, False),
        # Overhead-bound: merging wins (0.64x and 0.53x of the time).
        ("perlmutter-gpu", "shmem", 4096, 16, True),
        ("perlmutter-cpu", "one_sided", 64, 16, True),
        pytest.param(
            "perlmutter-cpu", "two_sided", 16384, 16, True,
            marks=pytest.mark.xfail(strict=True, reason=(
                "docs/MODEL.md section 3: a two-sided coalesce past the "
                "16 KiB eager threshold is modeled as a win but simulates "
                "slower (the roofline has no rendezvous term)"
            )),
        ),
    ])
    def test_default_pipeline_fires_only_where_the_flood_wins(
        self, machine, runtime, nbytes, n, fires
    ):
        m = get_machine(machine)
        off = run_flood(m, runtime, nbytes, n).time_total
        with ir.passes(), ir.collect() as reports:
            on = run_flood(m, runtime, nbytes, n).time_total
        assert bool(reports[0].rewrites) == fires
        if fires:
            assert on < off
        else:
            assert on == off

    def test_coalesce_and_overlap_cut_modeled_cost(self):
        """The message-aggregation win, >= 1.2x modeled for small puts
        under one sync (one-sided flood); overlap hides a stencil's
        interior sweep behind its halos.  The simulated flood follows the
        model down."""
        pipe = ir.build_pipeline(["coalesce", "overlap"])
        flood = build_flood_program("one_sided", 4096, 64, iters=3)
        rewritten, _ = pipe.run(flood, M)
        assert program_cost(flood, M) >= 1.2 * program_cost(rewritten, M)
        stencil = build_stencil_program(
            "two_sided", StencilConfig(nx=64, ny=64, iters=3), ProcessGrid.square_ish(4), 4
        )
        rewritten, (rewrite,) = pipe.run(stencil, M)
        assert rewrite.pass_name == "overlap"
        assert program_cost(rewritten, M) < program_cost(stencil, M)
        base = run_flood(M, "one_sided", 4096, 64, iters=3)
        with ir.passes(["coalesce", "overlap"]):
            assert run_flood(M, "one_sided", 4096, 64, iters=3).time_total < (
                base.time_total
            )

    def test_no_pass_retargets_the_backend(self):
        """The runtime is the program's own: the catalog is three pattern
        rewrites, and a backend-retargeting name is an unknown pass."""
        with pytest.raises(ValueError) as err:
            ir.build_pipeline(["auto-backend"])
        assert str(err.value) == (
            "unknown IR pass 'auto-backend'; valid: coalesce, overlap, sync-elide"
        )


# Every registered backend on a machine that hosts it.
BACKENDS = [
    ("two_sided", "perlmutter-cpu"),
    ("one_sided", "perlmutter-cpu"),
    ("shmem", "perlmutter-gpu"),
    ("one_sided_hw", "perlmutter-cpu"),
    ("stream_triggered", "perlmutter-gpu"),
]


def _machine(runtime, name):
    from repro.experiments.ablations import _with_hw_put_signal

    m = get_machine(name)
    return _with_hw_put_signal(m) if runtime == "one_sided_hw" else m


class TestCostModel:
    """``program_cost`` charges the simulation's own prices: the Message
    Roofline for a batch, ``barrier_delay`` for a barrier."""

    @pytest.mark.parametrize("runtime, machine", BACKENDS)
    def test_a_flood_batch_is_the_message_roofline(self, runtime, machine):
        from repro.roofline.model import MessageRoofline
        from repro.transport import get_backend

        m = _machine(runtime, machine)
        roofline = MessageRoofline(get_backend(runtime).loggp(m, "batch"))
        for nbytes in (8, 1024, 16384, 1 << 20):
            for n in (1, 7, 64):
                flood = build_flood_program(runtime, nbytes, n, iters=1)
                batch = flood.with_(regions=(region_for_all(
                    "batch", 2, lambda r: [O.BatchSend(1, 0, n)] if r == 0
                    else [O.BatchWait(0, 0, n)],
                ),))
                opening = program_cost(flood.with_(regions=()), m)
                assert program_cost(batch, m) - opening == pytest.approx(
                    float(roofline.time(nbytes, n)), rel=1e-12
                )

    @pytest.mark.parametrize("runtime, machine", BACKENDS)
    def test_the_barrier_is_the_jobs_own(self, runtime, machine):
        from repro.comm.job import Job

        m = _machine(runtime, machine)
        for P in (1, 2, 3, 4):
            opening = build_flood_program(runtime, 8, 1, nranks=P).with_(regions=())
            assert program_cost(opening, m) == (
                Job(m, P, runtime, placement="spread")._barrier_delay
            )

    @pytest.mark.parametrize("runtime, machine", BACKENDS)
    def test_the_selectors_round_is_one_roofline_message(self, runtime, machine):
        """The third pricer, pinned without touching it: the collectives
        selector's per-round alpha is one mailbox message of 0 B."""
        from repro.collectives.selector import select
        from repro.roofline.model import MessageRoofline
        from repro.transport import get_backend

        m = _machine(runtime, machine)
        p = get_backend(runtime).loggp(m, "mailbox")
        sel = select("allreduce", nranks=4, nbytes=1024, machine=m, runtime=runtime)
        assert sel.alpha == float(MessageRoofline(p).time(0))
        assert sel.beta == p.G

    def test_more_messages_cost_more(self):
        small = build_flood_program("one_sided", 4096, 4, iters=1)
        big = build_flood_program("one_sided", 4096, 64, iters=1)
        assert program_cost(big, M) > program_cost(small, M)

    def test_an_op_outside_the_vocabulary_is_not_priced(self):
        base = build_flood_program("two_sided", 64, 2, iters=1)
        bad = base.with_(regions=(region_for_all("bad", base.nranks, lambda r: [Teleport()]),))
        with pytest.raises(TypeError, match="no lowering for op Teleport"):
            program_cost(bad, M)


class TestScopes:
    def test_innermost_pipeline_wins(self):
        with ir.passes(["coalesce"]):
            with ir.passes(False):
                assert not ir.current_pipeline().enabled
            assert ir.current_pipeline().passes == ("coalesce",)

    def test_default_is_empty(self):
        assert not ir.current_pipeline().enabled

    def test_faults_force_scalar_pipeline(self):
        from repro import faults

        plan = faults.FaultPlan.uniform(loss=0.2, seed=1)
        with faults.inject(plan), ir.passes(True), ir.collect() as reports:
            run_flood(M, "one_sided", 4096, 64, iters=2)
        (rep,) = reports
        assert rep.passes == ()
        assert any("faults active" in n for n in rep.notes)


class TestObsIntegration:
    def test_counters_and_span(self):
        session = obs.Obs()
        with obs.observe(session), ir.passes(True):
            run_flood(M, "one_sided", 4096, 64, iters=2)
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
            # 64 CAS + 21 FAA + 21 swap; one publish per collision.  The
            # owner-routed inserts: one triplet per remote key.
            {"one_sided": {"atomics": 106, "messages": 21, "collisions": 21},
             "two_sided": {"messages": 32, "recv_messages": 32, "atomics": 0}},
        ),
    ], ids=["sptrsv", "hashtable"])
    def test_dynamic_programs_count_every_verb(self, run, expected):
        """The op streams of the workloads no pass rewrites, pinned where
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
