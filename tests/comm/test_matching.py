"""MPI envelope matching semantics."""

import pytest

from repro.comm import ANY_SOURCE, ANY_TAG, Message
from repro.comm.matching import MatchingEngine


@pytest.fixture
def engine(sim):
    return MatchingEngine(sim, rank=0)


def _msg(src=1, tag=5, nbytes=8, payload=None):
    return Message(src=src, dst=0, tag=tag, nbytes=nbytes, payload=payload)


class TestMatching:
    def test_posted_recv_matches_arrival(self, sim, engine):
        ev = sim.event()
        engine.post(1, 5, ev)
        engine.deliver(_msg(payload="data"))
        assert ev.triggered
        payload, status = ev.value
        assert payload == "data"
        assert status.source == 1 and status.tag == 5

    def test_unexpected_queue_matches_later_post(self, sim, engine):
        engine.deliver(_msg(payload="early"))
        ev = sim.event()
        engine.post(1, 5, ev)
        assert ev.triggered
        assert ev.value[0] == "early"

    def test_wildcard_source(self, sim, engine):
        ev = sim.event()
        engine.post(ANY_SOURCE, 5, ev)
        engine.deliver(_msg(src=3))
        assert ev.triggered
        assert ev.value[1].source == 3

    def test_wildcard_tag(self, sim, engine):
        ev = sim.event()
        engine.post(1, ANY_TAG, ev)
        engine.deliver(_msg(tag=99))
        assert ev.triggered

    def test_non_matching_tag_queues(self, sim, engine):
        ev = sim.event()
        engine.post(1, 5, ev)
        engine.deliver(_msg(tag=6))
        assert not ev.triggered
        assert engine.unexpected_depth == 1

    def test_non_matching_source_queues(self, sim, engine):
        ev = sim.event()
        engine.post(2, 5, ev)
        engine.deliver(_msg(src=1))
        assert not ev.triggered

    def test_oldest_posted_wins(self, sim, engine):
        ev1, ev2 = sim.event(), sim.event()
        engine.post(ANY_SOURCE, ANY_TAG, ev1)
        engine.post(ANY_SOURCE, ANY_TAG, ev2)
        engine.deliver(_msg(payload="first"))
        assert ev1.triggered and not ev2.triggered

    def test_non_overtaking_same_sender(self, sim, engine):
        engine.deliver(_msg(payload="m1"))
        engine.deliver(_msg(payload="m2"))
        ev1, ev2 = sim.event(), sim.event()
        engine.post(1, 5, ev1)
        engine.post(1, 5, ev2)
        assert ev1.value[0] == "m1" and ev2.value[0] == "m2"

    def test_wrong_destination_rejected(self, engine):
        bad = Message(src=1, dst=7, tag=0, nbytes=0)
        with pytest.raises(ValueError):
            engine.deliver(bad)

    def test_completion_delay_applied(self, sim):
        engine = MatchingEngine(sim, 0, delay_fn=lambda m: 1e-6)
        ev = sim.event()
        engine.post(1, 5, ev)
        engine.deliver(_msg())
        fired = []
        ev.add_callback(lambda e: fired.append(sim.now))
        sim.run()
        assert fired == [pytest.approx(1e-6)]


class TestProbeAndTake:
    def test_take_pops_matching(self, sim, engine):
        engine.deliver(_msg(tag=1, payload="a"))
        engine.deliver(_msg(tag=2, payload="b"))
        got = engine.take(ANY_SOURCE, 2)
        assert got.payload == "b"
        assert engine.unexpected_depth == 1

    def test_take_miss_returns_none(self, sim, engine):
        assert engine.take(ANY_SOURCE, ANY_TAG) is None

    def test_arrival_watcher_fires_on_delivery(self, sim, engine):
        """A process parked on ``on_arrival()`` resumes at the delivery's
        instant, and only the delivery wakes it."""

        def poller():
            yield engine.on_arrival()
            return sim.now

        p = sim.process(poller())
        sim.run()
        assert p.is_alive and engine.on_arrival()  # parked, nothing queued
        sim.timeout(2e-6).add_callback(lambda _ev: engine.deliver(_msg()))
        sim.run()
        assert p.value == pytest.approx(2e-6)
        assert not engine.on_arrival()  # the wake emptied the list

    def test_on_match_hook_bypasses_completion(self, sim, engine):
        hooked = []
        m = _msg()
        m.on_match = lambda posted, msg: hooked.append(msg)
        ev = sim.event()
        engine.post(1, 5, ev)
        engine.deliver(m)
        assert hooked == [m]
        assert not ev.triggered  # hook owns completion now
