"""CLI surface: parsing, dispatch, output, error paths."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture(autouse=True)
def _isolated_default_cache(tmp_path, monkeypatch):
    """Keep the CLI's default on-disk sweep cache out of the repo tree."""
    monkeypatch.setattr(
        "repro.sweep.DEFAULT_CACHE_DIR", str(tmp_path / "default-cache")
    )


class TestParsing:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0

    def test_ten_commands(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])
        out = capsys.readouterr().out
        commands = out.split("{", 1)[1].split("}", 1)[0].split(",")
        assert commands == [
            "list", "run", "trace", "ablation", "machines", "topo", "flood",
            "roofline", "collective", "ir",
        ]

    def test_flood_defaults(self):
        args = build_parser().parse_args(["flood", "perlmutter-cpu", "two_sided"])
        assert args.nbytes == "64KiB" and args.msgs_per_sync == 64


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig08" in out and "frontier-gpu" in out and "polling" in out

    def test_machines(self, capsys):
        assert main(["machines"]) == 0
        out = capsys.readouterr().out
        assert "perlmutter-cpu" in out
        assert "PROJECTION" in out  # frontier-gpu listed and flagged

    def test_topo_summary(self, capsys):
        assert main(["topo", "perlmutter-cpu-x4@dragonfly(2,2,1)"]) == 0
        out = capsys.readouterr().out
        assert "diameter" in out and "bisection" in out

    def test_topo_bare_generator_dot(self, capsys):
        assert main(["topo", "dragonfly(2,2,1)", "--dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("graph ") and "--" in out

    def test_topo_unknown_name(self, capsys):
        assert main(["topo", "not-a-fabric"]) == 2
        assert "unknown" in capsys.readouterr().err.lower()

    @pytest.mark.parametrize("name", ["dragonfly(2)", "perlmutter-cpu-x2@fattree(4,4)"])
    def test_topo_bad_arity(self, capsys, name):
        assert main(["topo", name]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"bad generator arity in {name!r}" in captured.err

    def test_topo_disconnected_is_a_message_not_a_traceback(self, capsys, monkeypatch):
        from repro.net import LinkParams, TopologySpec

        split = TopologySpec(name="split")
        split.add_link("a", "b", LinkParams(latency=1e-6, bandwidth=1e9))
        split.add_link("c", "d", LinkParams(latency=1e-6, bandwidth=1e9))
        monkeypatch.setattr("repro.machines.registry.get_topology", lambda name: split)
        assert main(["topo", "split"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'split' is not connected: 'a' cannot reach 'c'" in captured.err

    def test_run_single_experiment(self, capsys):
        assert main(["run", "table1"]) == 0
        out = capsys.readouterr().out
        assert "paper-shape checks" in out
        assert "[PASS]" in out

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_ablation(self, capsys):
        assert main(["ablation", "sharp"]) == 0
        assert "sharp vs rounded" in capsys.readouterr().out

    def test_ablation_unknown(self, capsys):
        assert main(["ablation", "nope"]) == 2

    def test_flood(self, capsys):
        rc = main(
            ["flood", "perlmutter-cpu", "two_sided", "--nbytes", "4KiB",
             "--msgs-per-sync", "8", "--iters", "1"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "bandwidth" in out and "GB/s" in out

    def test_flood_unknown_machine(self, capsys):
        assert main(["flood", "elcap", "two_sided"]) == 2
        assert "unknown machine" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["flood", "--nbytes", "4"], "multiple of the 8-byte element"),
            (["flood", "--nbytes", "100"], "multiple of the 8-byte element"),
            (["flood", "--nbytes", "banana"], "size string"),
            (["flood", "--msgs-per-sync", "0"], "msgs_per_sync"),
            (["flood", "--iters", "0"], "iters"),
            (["flood", "--loss", "0.05", "--nbytes", "banana"], "size string"),
            (["flood", "--loss", "0.05", "--msgs-per-sync", "0"], "msgs_per_sync"),
            (["roofline", "--nbytes", "banana"], "size string"),
            (["roofline", "--msgs-per-sync", "0"], "msgs_per_sync"),
            (["collective", "--nbytes", "banana"], "size string"),
            (["flood", "perlmutter-cpu", "shmem"], "has no runtime 'shmem'"),
            (["roofline", "summit-cpu", "shmem"], "has no runtime 'shmem'"),
            (["flood", "perlmutter-cpu", "shmem", "--loss", "0.05"], "has no runtime 'shmem'"),
            (
                ["collective", "perlmutter-cpu", "shmem", "allreduce"],
                "has no runtime 'shmem'",
            ),
        ],
    )
    def test_bad_message_shape_exits_2_with_the_message(
        self, argv, message, capsys
    ):
        command, *rest = argv
        if rest[0].startswith("--"):  # options only: a valid machine and runtime
            positional = ["perlmutter-cpu", "one_sided"]
            if command == "collective":
                positional.append("allreduce")
            rest = positional + rest
        assert main([command] + rest) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_roofline(self, capsys):
        rc = main(["roofline", "frontier-cpu", "one_sided", "--nbytes", "1KiB"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "peak=36.00 GB/s" in out
        assert "bound" in out
        # Which accounting the bound uses, from the batch endpoint's declaration.
        assert "ops     : put /msg; flush, put, flush /sync\n" in out

    def test_roofline_projection_machine(self, capsys):
        rc = main(["roofline", "frontier-gpu", "shmem", "--nbytes", "64KiB"])
        assert rc == 0


class TestTrace:
    def test_trace_writes_chrome_json(self, tmp_path, capsys):
        import json

        out = tmp_path / "run.trace.json"
        rc = main(["trace", "table2", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["traceEvents"], "trace is empty"
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert "X" in phases and "M" in phases
        assert "chrome://tracing" in capsys.readouterr().out

    def test_trace_ring_sink_bounded(self, tmp_path, capsys):
        import json

        out = tmp_path / "run.trace.json"
        rc = main(
            ["trace", "table2", "--out", str(out), "--sink", "ring",
             "--capacity", "50"]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        # <= capacity records per job, plus metadata events.
        data_events = [e for e in doc["traceEvents"] if e["ph"] != "M"]
        pids = {e["pid"] for e in data_events}
        for pid in pids:
            per_job = [e for e in data_events if e["pid"] == pid and e.get("cat") != "phase"]
            assert len(per_job) <= 50

    def test_trace_jsonl_sink_round_trips(self, tmp_path, capsys):
        out = tmp_path / "run.trace.json"
        jdir = tmp_path / "jsonl"
        rc = main(
            ["trace", "table2", "--out", str(out), "--sink", "jsonl",
             "--jsonl-dir", str(jdir)]
        )
        assert rc == 0
        files = sorted(jdir.glob("job*.jsonl"))
        assert files
        from repro.analysis.traces import load_jsonl

        assert any(len(load_jsonl(f)) > 0 for f in files)

    def test_trace_unknown_experiment(self, capsys):
        assert main(["trace", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_trace_ring_capacity_must_be_positive(self, capsys):
        rc = main(["trace", "table2", "--sink", "ring", "--capacity", "0"])
        assert rc == 2
        assert "--capacity must be >= 1" in capsys.readouterr().err

    def test_trace_out_in_missing_directory_exits_2_before_running(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.experiments as experiments

        monkeypatch.setattr(experiments, "ALL_EXPERIMENTS", _never_run("table2"))
        out = str(tmp_path / "missing" / "x.json")
        assert main(["trace", "table2", "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--out" in err and out in err

    def test_trace_jsonl_dir_that_cannot_be_made_exits_2(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.experiments as experiments

        monkeypatch.setattr(experiments, "ALL_EXPERIMENTS", _never_run("table2"))
        blocker = tmp_path / "file"
        blocker.write_text("x")
        jdir = str(blocker / "jsonl")
        rc = main(
            ["trace", "table2", "--out", str(tmp_path / "t.json"),
             "--sink", "jsonl", "--jsonl-dir", jdir]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--jsonl-dir" in err and jdir in err


def _never_run(*names):
    """An experiment table whose entries fail the test if called."""

    def run():
        raise AssertionError("an experiment ran before the output path was checked")

    return {n: run for n in names}


class TestMetricsFlag:
    def test_run_metrics_embedded_in_json(self, capsys):
        import json

        rc = main(["run", "table2", "--json", "--metrics"])
        assert rc == 0
        d = json.loads(capsys.readouterr().out)
        m = d["metrics"]
        assert m["net.fabric.bytes"] > 0
        assert any(k.startswith("comm.") for k in m)
        assert any(k.startswith("span.table2") for k in m)

    def test_run_without_metrics_omits_key(self, capsys):
        import json

        rc = main(["run", "table2", "--json"])
        assert rc == 0
        assert "metrics" not in json.loads(capsys.readouterr().out)

    def test_export_metrics(self, tmp_path, capsys):
        import json

        rc = main(["run", "table2", "--out", str(tmp_path), "--metrics"])
        assert rc == 0
        d = json.loads((tmp_path / "table2.json").read_text())
        assert d["metrics"]["net.fabric.messages"] > 0


class TestSweepExecutionFlags:
    def test_run_flags_parse(self):
        args = build_parser().parse_args(
            ["run", "fig03", "--jobs", "4", "--no-cache", "--cache-dir", "x"]
        )
        assert args.jobs == 4 and args.no_cache and args.cache_dir == "x"

    def test_jobs_must_be_positive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "table1", "--jobs", "0"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --jobs: must be >= 1" in err
        assert "use 1 for serial execution" in err

    def test_jobs_must_be_an_integer(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "table1", "--jobs", "many"])
        assert exc.value.code == 2
        assert "expected a positive integer" in capsys.readouterr().err

    def test_cache_dir_must_be_nonempty(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "table1", "--cache-dir", ""])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "non-empty path" in err and "--no-cache" in err

    def test_cache_dir_must_not_be_a_file(self, tmp_path, capsys):
        f = tmp_path / "not-a-dir"
        f.write_text("x")
        with pytest.raises(SystemExit) as exc:
            main(["run", "table1", "--cache-dir", str(f)])
        assert exc.value.code == 2
        assert "not a directory" in capsys.readouterr().err

    def test_second_run_hits_the_cache(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "c")
        assert main(["run", "table1", "--cache-dir", cache_dir]) == 0
        first = capsys.readouterr().err
        assert "[sweep] cache: hits=0 misses=5" in first
        assert main(["run", "table1", "--cache-dir", cache_dir]) == 0
        second = capsys.readouterr().err
        assert "[sweep] cache: hits=5 misses=0" in second

    def test_no_cache_writes_nothing(self, tmp_path, capsys):
        cache_dir = tmp_path / "c"
        rc = main(
            ["run", "table1", "--no-cache", "--cache-dir", str(cache_dir)]
        )
        assert rc == 0
        assert not cache_dir.exists()
        assert "[sweep] cache:" not in capsys.readouterr().err

    def test_progress_goes_to_stderr_not_json_stdout(self, tmp_path, capsys):
        import json

        rc = main(
            ["run", "table1", "--json", "--jobs", "2",
             "--cache-dir", str(tmp_path / "c")]
        )
        assert rc == 0
        captured = capsys.readouterr()
        json.loads(captured.out)  # stdout must stay pure JSON
        assert "[sweep] table1" in captured.err

    def _fake_experiments(self, pass_second):
        from repro.experiments.report import ExperimentReport

        def make(name, ok):
            return lambda: ExperimentReport(
                experiment=name, title=name, headers=["x"], rows=[[1]],
                expectations={"claim": ok},
            )

        return {"alpha": make("alpha", True), "beta": make("beta", pass_second)}

    def test_run_all_failure_sets_exit_code(self, monkeypatch, capsys):
        import repro.experiments as experiments

        monkeypatch.setattr(
            experiments, "ALL_EXPERIMENTS", self._fake_experiments(False)
        )
        assert main(["run", "all", "--no-cache"]) == 1
        err = capsys.readouterr().err
        assert "alpha                PASS" in err
        assert "beta                 FAIL" in err
        assert "1/2 experiments failed expectations" in err

    def test_run_all_success_exit_zero(self, monkeypatch, capsys):
        import repro.experiments as experiments

        monkeypatch.setattr(
            experiments, "ALL_EXPERIMENTS", self._fake_experiments(True)
        )
        assert main(["run", "all", "--no-cache"]) == 0
        assert "all 2 experiments passed" in capsys.readouterr().err


class TestExport:
    def test_export_writes_json_and_txt(self, tmp_path, capsys):
        rc = main(["run", "table1", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "table1.json").exists()
        assert (tmp_path / "table1.txt").exists()
        import json

        d = json.loads((tmp_path / "table1.json").read_text())
        assert d["experiment"] == "table1"

    def test_out_files_are_the_reports(self, tmp_path, capsys):
        import hashlib
        import pathlib

        golden = pathlib.Path(__file__).parents[1] / "benchmarks" / "output"
        assert main(["run", "table2", "--out", str(tmp_path), "--no-cache"]) == 0
        assert capsys.readouterr().out == f"  table2: ok -> {tmp_path / 'table2'}.{{json,txt}}\n"
        assert (tmp_path / "table2.txt").read_text() == (golden / "table2.txt").read_text()
        # sha256 of the file ``repro export`` wrote before it folded into ``run``.
        assert hashlib.sha256((tmp_path / "table2.json").read_bytes()).hexdigest() == (
            "6a341081ec8b9726e53dc1c2b76e70f1b1a127807a14f5685cac5ce5900e6991"
        )

    def test_out_and_json_are_exclusive(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "table1", "--json", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "not allowed with" in capsys.readouterr().err

    def test_export_unknown_experiment(self, tmp_path, capsys):
        rc = main(["run", "fig99", "--out", str(tmp_path)])
        assert rc == 2

    def test_export_into_an_existing_file_exits_2(self, tmp_path, capsys, monkeypatch):
        import repro.experiments as experiments

        monkeypatch.setattr(experiments, "ALL_EXPERIMENTS", _never_run("table1"))
        f = tmp_path / "not-a-dir"
        f.write_text("x")
        assert main(["run", "table1", "--out", str(f)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--out" in err and str(f) in err


# What ``repro fault`` printed before it folded into ``repro flood`` (its
# --loss defaulted to 0.05 and its --iters to 2).
_CLUSTER = "perlmutter-cpu-x8@dragonfly(4,2,2)"
_RETIRED_FAULT_STDOUT = [
    (
        ["perlmutter-cpu", "one_sided", "--loss", "0.08", "--iters", "2"],
        0,
        "machine   : perlmutter-cpu / one_sided\n"
        "message   : 64KiB x 64/sync x 2 iters\n"
        "plan      : loss=0.08 jitter=0.0us degrade=1.0 down=0 window(s) "
        "hard=0 element(s) seed=0\n"
        "clean     : 30.85 GB/s\n"
        "faulty    : 12.36 GB/s (40.1% of clean)\n"
        "recovery  : 5 drops (0 at dead elements), 5 retransmits, 0 exhausted\n",
    ),
    (
        [_CLUSTER, "one_sided", "--fail-router", "g0r0", "--placement", "block",
         "--msgs-per-sync", "16", "--iters", "1"],
        1,
        f"machine   : {_CLUSTER} / one_sided\n"
        "plan      : loss=0.0 jitter=0.0us degrade=1.0 hard=1 element(s) seed=0\n"
        "aborted   : transfer n0.cpu0->n4.cpu0 (65536 B) lost on g0r0<->n0.nic0 "
        "after 9 attempts\n",
    ),
    (
        [_CLUSTER, "one_sided", "--loss", "0.05", "--fail-router", "g0r0:100:160",
         "--placement", "block", "--msgs-per-sync", "16", "--iters", "1"],
        0,
        f"machine   : {_CLUSTER} / one_sided\n"
        "message   : 64KiB x 16/sync x 1 iters\n"
        "plan      : loss=0.05 jitter=0.0us degrade=1.0 down=0 window(s) "
        "hard=1 element(s) seed=0\n"
        "clean     : 15.32 GB/s\n"
        "faulty    : 187.43 MB/s (1.2% of clean)\n"
        "recovery  : 10 drops (1 at dead elements), 10 retransmits, 0 exhausted\n",
    ),
]


class TestFaultCommand:
    @pytest.mark.parametrize("argv, rc, stdout", _RETIRED_FAULT_STDOUT)
    def test_fault_flags_print_the_retired_fault_report(self, capsys, argv, rc, stdout):
        assert main(["flood", *argv]) == rc
        assert capsys.readouterr().out == stdout

    def test_no_fault_flag_is_the_plain_flood(self, capsys):
        argv = ["flood", "perlmutter-cpu", "one_sided", "--placement", "spread"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "bandwidth :" in out and "plan" not in out and "clean" not in out

    def test_fault_reports_degradation(self, capsys):
        rc = main(
            ["flood", "perlmutter-cpu", "one_sided", "--loss", "0.08",
             "--msgs-per-sync", "16", "--iters", "1"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "clean" in out and "faulty" in out
        assert "% of clean" in out
        assert "drops" in out and "retransmits" in out

    def test_fault_zero_loss_matches_clean(self, capsys):
        rc = main(
            ["flood", "perlmutter-cpu", "two_sided", "--loss", "0",
             "--msgs-per-sync", "16", "--iters", "1"]
        )
        assert rc == 0
        assert "(100.0% of clean)" in capsys.readouterr().out

    def test_fault_down_window(self, capsys):
        rc = main(
            ["flood", "perlmutter-cpu", "two_sided", "--loss", "0",
             "--down", "0:100", "--msgs-per-sync", "16", "--iters", "1"]
        )
        assert rc == 0
        assert "stalled" in capsys.readouterr().out

    def test_fault_bad_down_spec(self, capsys):
        rc = main(
            ["flood", "perlmutter-cpu", "two_sided", "--down", "oops"]
        )
        assert rc == 2
        assert "START:END" in capsys.readouterr().err

    def test_fault_bad_loss(self, capsys):
        rc = main(["flood", "perlmutter-cpu", "two_sided", "--loss", "1.5"])
        assert rc == 2
        assert "loss" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, field", [("--degrade", "degrade"), ("--timeout-us", "timeout")]
    )
    def test_fault_nan_knob_exits_2(self, capsys, flag, field):
        rc = main(["flood", "perlmutter-cpu", "one_sided", flag, "nan"])
        assert rc == 2
        assert f"{field} must be finite" in capsys.readouterr().err

    def test_fault_unknown_machine(self, capsys):
        assert main(["flood", "elcap", "two_sided"]) == 2

    CLUSTER = "perlmutter-cpu-x8@dragonfly(4,2,2)"

    def test_fault_unknown_router_lists_valid_names(self, capsys):
        rc = main(
            ["flood", self.CLUSTER, "one_sided", "--fail-router", "bogus"]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown router 'bogus'" in err
        assert "valid routers" in err and "g0r0" in err and "g3r1" in err

    def test_fault_unknown_node_rejected_eagerly(self, capsys):
        rc = main(["flood", self.CLUSTER, "one_sided", "--fail-node", "n99"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown node 'n99'" in err and "n7" in err

    def test_fault_router_on_bare_machine_rejected(self, capsys):
        # A single-node machine has no routers at all; the error says so.
        rc = main(
            ["flood", "perlmutter-cpu", "one_sided", "--fail-router", "g0r0"]
        )
        assert rc == 2
        assert "no router elements" in capsys.readouterr().err

    def test_fail_bad_window_spec(self, capsys):
        rc = main(
            ["flood", self.CLUSTER, "one_sided", "--fail-router", "g0r0:oops:2"]
        )
        assert rc == 2
        assert "NAME:START:END" in capsys.readouterr().err

    def test_fail_nic_window_degrades_block_flood(self, capsys):
        rc = main(
            ["flood", self.CLUSTER, "one_sided", "--loss", "0",
             "--fail-nic", "n0.nic0:100:160", "--placement", "block",
             "--msgs-per-sync", "16", "--iters", "1"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "hard=1 element(s)" in out
        assert "at dead elements" in out

    def test_fail_router_forever_aborts_block_flood(self, capsys):
        rc = main(
            ["flood", self.CLUSTER, "one_sided", "--loss", "0",
             "--fail-router", "g0r0", "--placement", "block",
             "--msgs-per-sync", "16", "--iters", "1"]
        )
        assert rc == 1
        assert "aborted" in capsys.readouterr().out


class TestRunSurvivesCrash:
    def _experiments_with_crash(self):
        from repro.experiments.report import ExperimentReport

        def good():
            return ExperimentReport(
                experiment="alpha", title="alpha", headers=["x"], rows=[[1]],
                expectations={"claim": True},
            )

        def boom():
            raise RuntimeError("experiment exploded")

        return {"alpha": good, "boom": boom}

    def test_crashing_experiment_marked_error_others_run(
        self, monkeypatch, capsys
    ):
        import repro.experiments as experiments

        monkeypatch.setattr(
            experiments, "ALL_EXPERIMENTS", self._experiments_with_crash()
        )
        assert main(["run", "all", "--no-cache"]) == 1
        err = capsys.readouterr().err
        assert "experiment exploded" in err  # traceback surfaced
        assert "alpha                PASS" in err
        assert "boom                 ERROR" in err

    def test_crashing_ablation_marked_error_others_run(self, monkeypatch, capsys):
        import repro.experiments.ablations as ablations

        entries = self._experiments_with_crash()
        monkeypatch.setattr(ablations, "ALL_ABLATIONS", entries)
        assert main(["ablation", "all"]) == 1
        captured = capsys.readouterr()
        assert "alpha" in captured.out  # the entry after the crash still ran
        assert "ablation boom raised:" in captured.err
        assert "experiment exploded" in captured.err
        assert "alpha                PASS" in captured.err
        assert "boom                 ERROR" in captured.err
        assert "1/2 ablations raised" in captured.err


class TestIrExplain:
    def test_report_block_printed_although_checks_fail(self, capsys):
        """Under the default pipeline fig03's paper-shape checks fail by
        design; `ir explain` judges nothing, so it still exits 0."""
        from repro import ir
        from repro.experiments import ALL_EXPERIMENTS

        with ir.passes(True):
            assert not ALL_EXPERIMENTS["fig03"]().all_expectations_met
        assert main(["ir", "explain", "fig03"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("== fig03 ==\n")
        assert "coalesce" in out

    def test_a_retargeting_pass_is_a_bad_passes(self, capsys):
        assert main(["ir", "explain", "fig03", "--passes", "auto-backend"]) == 2
        err = capsys.readouterr().err
        assert "bad --passes: unknown IR pass 'auto-backend'" in err
