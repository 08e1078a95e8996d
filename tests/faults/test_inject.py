"""FaultInjector sampling determinism + the ambient inject() scope."""

import hashlib

import pytest

from repro import faults
from repro.faults import FaultPlan, LinkFaults
from repro.faults.inject import FaultInjector


def _inj(seed=0):
    return FaultInjector(FaultPlan.uniform(loss=0.1, seed=seed))


class TestSampling:
    def test_unit_in_unit_interval(self):
        inj = _inj()
        draws = [inj.unit("a<->b", t, 0, "loss") for t in range(200)]
        assert all(0.0 <= d < 1.0 for d in draws)
        # Not degenerate: the draws actually spread out.
        assert max(draws) - min(draws) > 0.5

    def test_same_args_same_draw(self):
        a, b = _inj(seed=7), _inj(seed=7)
        for t in range(50):
            assert a.unit("x<->y", t, 0, "loss") == b.unit("x<->y", t, 0, "loss")

    def test_different_seed_different_draws(self):
        a, b = _inj(seed=1), _inj(seed=2)
        draws_a = [a.unit("x<->y", t, 0, "loss") for t in range(50)]
        draws_b = [b.unit("x<->y", t, 0, "loss") for t in range(50)]
        assert draws_a != draws_b

    @pytest.mark.parametrize("seed", [0, 7, 20230])
    def test_unit_is_the_keyed_one_shot_hash(self, seed):
        """A draw is blake2b-8 of "link|tid|attempt|purpose" keyed by the
        seed's decimal string, little-endian over 2**64 — however the
        injector arrives at that digest."""
        inj = _inj(seed)
        key = str(seed).encode()
        for link in ("a<->b", "g0r0<->g1r1", "n3.gpu0<->n3.sw"):
            for tid in (0, 1, 9, 10, 99, 123456):
                for attempt in range(4):
                    for purpose in ("loss", "jitter"):
                        data = f"{link}|{tid}|{attempt}|{purpose}".encode()
                        h = hashlib.blake2b(data, digest_size=8, key=key).digest()
                        want = int.from_bytes(h, "little") / float(2**64)
                        assert inj.unit(link, tid, attempt, purpose) == want

    def test_draws_independent_of_link_and_purpose(self):
        inj = _inj()
        assert inj.unit("a<->b", 0, 0, "loss") != inj.unit("a<->c", 0, 0, "loss")
        assert inj.unit("a<->b", 0, 0, "loss") != inj.unit("a<->b", 0, 0, "jitter")

    def test_monotone_coupling_in_loss(self):
        """A message lost at p1 is lost at every p2 >= p1 (same draw,
        larger threshold) — the property that makes degradation curves
        monotone."""
        inj = _inj(seed=3)
        lo, hi = LinkFaults(loss=0.05), LinkFaults(loss=0.3)
        lost_lo = {t for t in range(500) if inj.lost(lo, "a<->b", t, 0)}
        lost_hi = {t for t in range(500) if inj.lost(hi, "a<->b", t, 0)}
        assert lost_lo <= lost_hi
        assert len(lost_lo) < len(lost_hi)

    def test_loss_rate_roughly_matches(self):
        inj = _inj()
        lf = LinkFaults(loss=0.2)
        lost = sum(inj.lost(lf, "a<->b", t, 0) for t in range(2000))
        assert lost / 2000 == pytest.approx(0.2, abs=0.03)

    def test_zero_loss_never_samples(self):
        inj = _inj()
        lf = LinkFaults()
        assert not any(inj.lost(lf, "a<->b", t, 0) for t in range(100))

    def test_jitter_bounded_and_deterministic(self):
        inj = _inj(seed=5)
        lf = LinkFaults(jitter=3e-6)
        draws = [inj.jitter(lf, "a<->b", t, 0) for t in range(100)]
        assert all(0.0 <= j < 3e-6 for j in draws)
        assert draws == [inj.jitter(lf, "a<->b", t, 0) for t in range(100)]
        assert inj.jitter(LinkFaults(), "a<->b", 0, 0) == 0.0


class TestScope:
    def test_no_ambient_plan_by_default(self):
        assert faults.current_plan() is None

    def test_inject_installs_and_restores(self):
        plan = FaultPlan.uniform(loss=0.1)
        with faults.inject(plan) as scope:
            assert faults.current_plan() is plan
            assert scope.plan is plan
        assert faults.current_plan() is None

    def test_inject_none_is_noop_scope(self):
        with faults.inject(None) as scope:
            assert faults.current_plan() is None
            assert scope.stats()["drops"] == 0.0

    def test_nested_innermost_wins(self):
        outer, inner = FaultPlan.uniform(loss=0.1), FaultPlan.uniform(loss=0.2)
        with faults.inject(outer):
            with faults.inject(inner):
                assert faults.current_plan() is inner
            assert faults.current_plan() is outer

    def test_scope_merges_injector_stats(self):
        with faults.inject(FaultPlan.uniform(loss=0.1)) as scope:
            a, b = _inj(), _inj()
            a.record_drop("l1")
            a.record_retransmit()
            b.record_drop("l2")
            b.record_delivery(2)
            scope.attach(a)
            scope.attach(b)
        s = scope.stats()
        assert s["drops"] == 2.0
        assert s["retransmits"] == 1.0
        assert s["delivered_with_retry"] == 1.0


class TestMetricsSnapshot:
    def test_prefixed_and_per_link(self):
        inj = _inj()
        inj.record_drop("cpu0<->cpu1")
        inj.record_delivery(1)
        snap = inj.metrics_snapshot()
        assert snap["faults.drops"] == 1.0
        assert snap["faults.delivered"] == 1.0
        assert snap["faults.link.cpu0<->cpu1.drops"] == 1.0
