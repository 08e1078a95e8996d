"""The ambient observation session: Job pickup, metrics wiring, spans."""

from repro import obs
from repro.comm.job import Job
from repro.obs.sinks import JsonlSink, RingBufferSink
from repro.sim.trace import NullTracer


def _flood(ctx, nbytes=64.0, n=8):
    if ctx.rank == 0:
        reqs = []
        for _ in range(n):
            r = yield from ctx.isend(1, nbytes=nbytes, tag=1)
            reqs.append(r)
        yield from ctx.waitall(reqs)
    else:
        for _ in range(n):
            yield from ctx.recv(source=0, tag=1)
    yield from ctx.barrier()


class TestAmbientPickup:
    def test_outside_session_defaults_unchanged(self, pm_cpu):
        job = Job(pm_cpu, 2, "two_sided")
        assert isinstance(job.tracer, NullTracer)
        assert job.metrics is None and job.obs is None

    def test_job_inside_session_feeds_metrics(self, pm_cpu):
        with obs.observe(obs.Obs()) as session:
            job = Job(pm_cpu, 2, "two_sided", placement="spread")
            job.run(_flood)
        snap = session.snapshot()
        assert snap["net.fabric.bytes"] == job.fabric.total_bytes
        assert snap["net.fabric.messages"] == job.fabric.total_messages
        assert snap["comm.two_sided.messages"] == 8
        assert snap["comm.two_sided.bytes_sent"] == 8 * 64.0
        # Tracing off by default even inside a session.
        assert isinstance(job.tracer, NullTracer)

    def test_rendezvous_sends_are_counted(self, pm_cpu):
        """Each send above the eager threshold takes the RTS/CTS path once;
        an in-order flood holds no arrival."""
        with obs.observe(obs.Obs()) as session:
            job = Job(pm_cpu, 2, "two_sided", placement="spread")
            nbytes = 4 * job.costs.eager_threshold
            job.run(lambda ctx: _flood(ctx, nbytes=nbytes))
        snap = session.snapshot()
        assert snap["comm.two_sided.messages"] == 8
        assert snap["comm.two_sided.rendezvous"] == 8
        assert snap["comm.two_sided.held"] == 0

    def test_session_is_stacked_and_popped(self, pm_cpu):
        assert obs.current() is None
        with obs.observe() as outer:
            assert obs.current() is outer
            with obs.observe() as inner:
                assert obs.current() is inner
            assert obs.current() is outer
        assert obs.current() is None

    def test_per_link_bytes_reconcile_on_single_hop(self, pm_cpu):
        """All flood traffic crosses exactly one link (spread placement on
        a 2-rank job), so per-link bytes must equal Fabric.total_bytes."""
        with obs.observe(obs.Obs()) as session:
            job = Job(pm_cpu, 2, "two_sided", placement="spread")
            job.run(_flood)
        snap = session.snapshot()
        link_bytes = sum(
            v for k, v in snap.items()
            if k.startswith("net.link.") and k.endswith(".bytes")
        )
        assert link_bytes == job.fabric.total_bytes == snap["net.fabric.bytes"]

    def test_route_cache_sizes_are_exported(self, pm_cpu):
        """What the fabric trades for speed is visible: one compiled pair
        entry per pair and one memoised costing per distinct path the run
        touched."""
        with obs.observe(obs.Obs()) as session:
            job = Job(pm_cpu, 2, "two_sided", placement="spread")
            job.run(_flood)
        snap = session.snapshot()
        assert snap["net.fabric.compiled_routes"] == len(job.fabric._pairs) >= 1
        assert snap["net.topology.route_memo"] == len(job.fabric.topology._via_cache)
        assert snap["net.topology.route_memo"] >= snap["net.fabric.compiled_routes"]

    def test_routing_decisions_are_exported(self):
        """What adaptive routing did, per fabric, summed over the session:
        decisions, the ones that left the minimal path, candidates scored
        and abandoned, and the size of the topology's detour memo."""
        from repro.net import AdaptiveRouting, Fabric, dragonfly
        from repro.sim import Simulator

        topo = dragonfly(4, 2, 1).topology
        policy = AdaptiveRouting(candidates=2)
        with obs.observe(obs.Obs()) as session:
            fabrics = [
                Fabric(Simulator(), topo, routing=policy, metrics=session.metrics)
                for _ in range(2)
            ]
            for fabric in fabrics:
                for _ in range(40):
                    fabric.transfer("g0r0", "g1r0", 262144)
                    fabric.transfer("g0r1", "g1r0", 262144)
            Fabric(Simulator(), topo, metrics=session.metrics).transfer("g0r0", "g1r0", 64)
        snap = session.snapshot()
        one = fabrics[0].routing_counts
        assert fabrics[1].routing_counts == one  # one policy object, two replays
        assert one["decisions"] == 80
        assert 0 < one["detours"] <= one["candidates_scored"] - one["candidates_pruned"]
        assert 0 < one["candidates_pruned"] < one["candidates_scored"] <= 2 * 80
        for key, value in one.items():
            assert snap[f"net.routing.{key}"] == 2 * value  # the third fabric adds 0
        assert snap["net.routing.decision_memo"] == 3 * len(topo._detour_cache) > 0

    def test_bulk_verdict_is_counted_once_per_batch(self, pm_cpu):
        """Which engine a batch took, and why not the bulk one."""
        from repro import perf
        from repro.workloads.flood import run_flood

        with obs.observe(obs.Obs()) as session:
            run_flood(pm_cpu, "one_sided", 64, 32, iters=2)
            with perf.vectorized(False):
                run_flood(pm_cpu, "one_sided", 64, 32, iters=3)
        snap = session.snapshot()
        assert snap["perf.bulk.engaged"] == 2
        assert snap["perf.bulk.declined.engine_off"] == 3
        with obs.observe(obs.Obs(trace=True)) as traced:
            run_flood(pm_cpu, "one_sided", 64, 32, iters=2)
        assert traced.snapshot()["perf.bulk.declined.tracer"] == 2
        assert "perf.bulk.engaged" not in traced.snapshot()

    def test_metrics_aggregate_across_jobs(self, pm_cpu):
        with obs.observe(obs.Obs()) as session:
            j1 = Job(pm_cpu, 2, "two_sided", placement="spread")
            j1.run(_flood)
            j2 = Job(pm_cpu, 2, "two_sided", placement="spread")
            j2.run(_flood)
        snap = session.snapshot()
        assert snap["net.fabric.bytes"] == (
            j1.fabric.total_bytes + j2.fabric.total_bytes
        )
        assert snap["comm.two_sided.jobs"] == 2

    def test_link_wait_histogram_populated(self, pm_cpu):
        with obs.observe(obs.Obs()) as session:
            Job(pm_cpu, 2, "two_sided", placement="spread").run(_flood)
        snap = session.snapshot()
        assert snap["net.link_wait_seconds.count"] > 0

    def test_injection_wait_histogram_populated(self, pm_gpu):
        # GPU machines model per-endpoint injection (copy/DMA) ports.
        with obs.observe(obs.Obs()) as session:
            Job(pm_gpu, 2, "shmem", placement="spread").run(_flood)
        snap = session.snapshot()
        assert snap["net.injection_wait_seconds.count"] > 0

    def test_bytes_timeline_sums_to_total(self, pm_cpu):
        with obs.observe(obs.Obs()) as session:
            job = Job(pm_cpu, 2, "two_sided", placement="spread")
            job.run(_flood)
        snap = session.snapshot()
        assert sum(v for _t, v in snap["net.bytes_timeline"]) == (
            job.fabric.total_bytes
        )


class TestTracingSessions:
    def test_trace_session_collects_labelled_tracers(self, pm_cpu):
        with obs.observe(obs.Obs(trace=True)) as session:
            job = Job(pm_cpu, 2, "two_sided", placement="spread")
            job.run(_flood)
        assert len(session.traces) == 1
        label, tracer = session.traces[0]
        assert label.startswith("job0:") and "two_sided" in label
        assert tracer is job.tracer
        assert tracer.count("send") == 8

    def test_ring_sink_factory_bounds_every_job(self, pm_cpu):
        session = obs.Obs(trace=True, sink_factory=lambda: RingBufferSink(5))
        with obs.observe(session):
            job = Job(pm_cpu, 2, "two_sided", placement="spread")
            job.run(_flood)
        assert len(job.tracer) <= 5
        assert job.tracer.sink.dropped > 0

    def test_jsonl_factory_streams_and_close(self, pm_cpu, tmp_path):
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        it = iter(paths)
        session = obs.Obs(trace=True, sink_factory=lambda: JsonlSink(next(it)))
        with obs.observe(session):
            Job(pm_cpu, 2, "two_sided", placement="spread").run(_flood)
        session.close()
        from repro.analysis.traces import load_jsonl

        loaded = load_jsonl(paths[0])
        assert loaded.count("send") == 8

    def test_spans_record_job_phases(self, pm_cpu):
        with obs.observe(obs.Obs()) as session:
            Job(pm_cpu, 2, "two_sided", placement="spread").run(_flood)
        totals = session.spans.totals()
        sim_keys = [k for k in totals if k.endswith("/simulate")]
        assert sim_keys and all(totals[k] >= 0 for k in sim_keys)
        snap = session.snapshot()
        assert any(k.startswith("span.") for k in snap)


class TestTable2Spans:
    def test_characterize_workloads_emits_phase_spans(self, pm_cpu):
        from repro.workloads.instrument import characterize_workloads

        with obs.observe(obs.Obs()) as session:
            rows = characterize_workloads(pm_cpu)
        assert len(rows) == 3
        names = {s.name for s in session.spans.spans}
        assert {
            "characterize:stencil",
            "characterize:sptrsv",
            "characterize:hashtable",
        } <= names
