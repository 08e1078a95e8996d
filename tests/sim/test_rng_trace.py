"""The tracer."""

from repro.sim import NullTracer, Tracer


class TestTracer:
    def test_emit_and_filter(self):
        t = Tracer()
        t.emit(0.0, "send", 0, nbytes=10)
        t.emit(1.0, "send", 1, nbytes=20)
        t.emit(2.0, "recv", 0, nbytes=10)
        assert len(t) == 3
        assert t.count("send") == 2
        assert len(t.filter(kind="send", rank=1)) == 1
        assert t.total_bytes("send") == 30

    def test_clear(self):
        t = Tracer()
        t.emit(0.0, "x", 0)
        t.clear()
        assert len(t) == 0

    def test_null_tracer_drops_everything(self):
        t = NullTracer()
        t.emit(0.0, "send", 0)
        assert len(t) == 0
