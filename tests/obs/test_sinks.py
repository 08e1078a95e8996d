"""Trace sinks: ring eviction, JSONL round-trip, NullTracer storage."""

import json

import pytest

from repro.analysis.traces import load_jsonl, message_stats
from repro.obs.sinks import JsonlSink, RingBufferSink, record_from_json, record_to_json
from repro.sim.trace import NULL_SINK, ListSink, NullTracer, TraceRecord, Tracer


class TestRingBufferSink:
    def test_keeps_last_n(self):
        t = Tracer(sink=RingBufferSink(3))
        for i in range(10):
            t.emit(float(i), "send", 0, nbytes=i)
        assert len(t) == 3
        assert [r.t for r in t] == [7.0, 8.0, 9.0]
        assert t.sink.dropped == 7

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            RingBufferSink(0)

    def test_under_capacity_keeps_all(self):
        t = Tracer(sink=RingBufferSink(100))
        t.emit(0.0, "send", 0, nbytes=1)
        assert len(t) == 1 and t.sink.dropped == 0

    def test_filter_and_totals_over_survivors(self):
        t = Tracer(sink=RingBufferSink(2))
        t.emit(0.0, "send", 0, nbytes=100)
        t.emit(1.0, "send", 0, nbytes=10)
        t.emit(2.0, "put", 1, nbytes=20)
        assert t.count("send") == 1
        assert t.total_bytes() == 30  # evicted record not counted

    def test_clear_resets_drop_count(self):
        s = RingBufferSink(1)
        s.append(TraceRecord(0.0, "x", 0))
        s.append(TraceRecord(1.0, "x", 0))
        assert s.dropped == 1
        s.clear()
        assert len(s) == 0 and s.dropped == 0


class TestJsonlSink:
    def test_round_trip_via_analysis_loader(self, tmp_path):
        path = tmp_path / "run.jsonl"
        t = Tracer(sink=JsonlSink(path))
        t.emit(1e-6, "net.transfer", -1, src="cpu0", dst="cpu1",
               nbytes=4096.0, start=1e-6, arrival=3e-6, nhops=1)
        t.emit(2e-6, "send", 0, dst=1, tag=7, nbytes=4096.0)
        t.sink.close()
        assert len(t) == 0  # nothing retained in memory
        assert t.sink.written == 2

        loaded = load_jsonl(path)
        assert len(loaded) == 2
        rec = loaded.records[0]
        assert rec.kind == "net.transfer" and rec.detail["dst"] == "cpu1"
        stats = message_stats(loaded)
        assert stats.count == 1 and stats.total_bytes == 4096.0

    def test_record_json_inverse(self):
        rec = TraceRecord(0.5, "put", 3, detail={"target": 1, "nbytes": 8.0})
        assert record_from_json(record_to_json(rec)) == rec

    def test_lines_are_valid_json(self, tmp_path):
        path = tmp_path / "x.jsonl"
        with JsonlSink(path) as sink:
            Tracer(sink=sink).emit(0.0, "send", 0, nbytes=1)
        for line in path.read_text().splitlines():
            json.loads(line)

    def test_append_after_close_raises(self, tmp_path):
        sink = JsonlSink(tmp_path / "x.jsonl")
        sink.close()
        with pytest.raises(ValueError):
            sink.append(TraceRecord(0.0, "send", 0))

    def test_clear_truncates(self, tmp_path):
        path = tmp_path / "x.jsonl"
        sink = JsonlSink(path)
        t = Tracer(sink=sink)
        t.emit(0.0, "send", 0, nbytes=1)
        t.clear()
        t.emit(1.0, "send", 0, nbytes=2)
        sink.close()
        assert len(load_jsonl(path)) == 1


class TestTracerStorage:
    def test_default_sink_is_list(self):
        t = Tracer()
        assert isinstance(t.sink, ListSink)
        t.emit(0.0, "send", 0, nbytes=5)
        assert t.records[0].detail["nbytes"] == 5

    def test_null_tracer_shares_immutable_sink(self):
        a, b = NullTracer(), NullTracer()
        assert a.sink is NULL_SINK and b.sink is NULL_SINK
        a.emit(0.0, "send", 0, nbytes=5)
        assert len(a) == 0 and a.records == ()
        a.clear()  # no-op, no error

    def test_total_bytes_default_covers_one_sided_kinds(self):
        t = Tracer()
        t.emit(0.0, "send", 0, nbytes=1)
        t.emit(0.0, "put", 0, nbytes=2)
        t.emit(0.0, "put_signal", 0, nbytes=4)
        t.emit(0.0, "net.transfer", -1, nbytes=1000)  # fabric-level, excluded
        assert t.total_bytes() == 7
        assert t.total_bytes("send") == 1
        assert t.total_bytes(("put", "put_signal")) == 6

