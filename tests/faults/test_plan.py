"""FaultPlan / LinkFaults / RetransmitPolicy / FaultSemantics validation."""

import pytest

from repro.faults import (
    NO_FAULTS,
    FaultPlan,
    FaultSemantics,
    LinkFaults,
    RetransmitPolicy,
)


class TestLinkFaults:
    def test_defaults_are_clean(self):
        assert NO_FAULTS.clean
        assert LinkFaults().clean

    @pytest.mark.parametrize("loss", [-0.1, 1.0, 1.5])
    def test_loss_range(self, loss):
        with pytest.raises(ValueError, match="loss"):
            LinkFaults(loss=loss)

    def test_negative_jitter_rejected(self):
        with pytest.raises(ValueError, match="jitter"):
            LinkFaults(jitter=-1e-6)

    def test_degrade_below_one_rejected(self):
        with pytest.raises(ValueError, match="degrade"):
            LinkFaults(degrade=0.5)

    @pytest.mark.parametrize("window", [(5.0, 5.0), (5.0, 2.0), (-1.0, 2.0)])
    def test_bad_down_window_rejected(self, window):
        with pytest.raises(ValueError, match="down window"):
            LinkFaults(down=(window,))

    def test_down_windows_sorted(self):
        lf = LinkFaults(down=((5e-6, 6e-6), (1e-6, 2e-6)))
        assert lf.down == ((1e-6, 2e-6), (5e-6, 6e-6))

    def test_any_fault_is_not_clean(self):
        assert not LinkFaults(loss=0.1).clean
        assert not LinkFaults(jitter=1e-6).clean
        assert not LinkFaults(degrade=2.0).clean
        assert not LinkFaults(down=((0.0, 1e-6),)).clean


class TestRetransmitPolicy:
    def test_defaults_valid(self):
        p = RetransmitPolicy()
        assert p.timeout > 0 and p.backoff >= 1.0 and p.max_retries >= 0

    def test_nonpositive_timeout_rejected(self):
        with pytest.raises(ValueError, match="timeout"):
            RetransmitPolicy(timeout=0.0)

    def test_backoff_below_one_rejected(self):
        with pytest.raises(ValueError, match="backoff"):
            RetransmitPolicy(backoff=0.9)

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="max_retries"):
            RetransmitPolicy(max_retries=-1)


class TestFaultSemantics:
    def test_modes(self):
        assert FaultSemantics(mode="abort").mode == "abort"
        assert FaultSemantics(mode="surface").mode == "surface"
        with pytest.raises(ValueError, match="mode"):
            FaultSemantics(mode="explode")

    def test_detect_scale_positive(self):
        with pytest.raises(ValueError, match="detect_scale"):
            FaultSemantics(detect_scale=0.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "cls, field",
    [
        (LinkFaults, "jitter"),
        (LinkFaults, "degrade"),
        (RetransmitPolicy, "timeout"),
        (RetransmitPolicy, "backoff"),
        (FaultSemantics, "detect_scale"),
    ],
)
def test_non_finite_knob_rejected_by_name(cls, field, value):
    """A one-sided comparison lets ``nan`` and ``inf`` through to a silent
    row (or to the simulator's nameless delay check); each knob is a
    finite range that names itself."""
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        cls(**{field: value})


class TestFaultPlan:
    def test_default_plan_is_clean(self):
        assert FaultPlan().clean
        assert FaultPlan.uniform().clean
        assert FaultPlan.uniform(loss=0.0, jitter=0.0).clean

    def test_uniform_sets_every_link(self):
        plan = FaultPlan.uniform(loss=0.1, seed=3)
        assert not plan.clean
        assert plan.for_link("x", "y").loss == 0.1
        assert plan.seed == 3

    def test_for_link_is_unordered(self):
        lf = LinkFaults(loss=0.2)
        plan = FaultPlan(links={("a", "b"): lf})
        assert plan.for_link("a", "b") is lf
        assert plan.for_link("b", "a") is lf
        assert plan.for_link("a", "c") is NO_FAULTS

    def test_duplicate_link_override_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            FaultPlan(
                links={
                    ("a", "b"): LinkFaults(loss=0.1),
                    ("b", "a"): LinkFaults(loss=0.2),
                }
            )

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            FaultPlan(seed=-1)

    def test_clean_considers_overrides(self):
        plan = FaultPlan(links={("a", "b"): LinkFaults(loss=0.1)})
        assert not plan.clean
        plan = FaultPlan(links={("a", "b"): LinkFaults()})
        assert plan.clean


class TestForLinkClusterNamespacing:
    """Regression: a plan keyed on bare machine link names must bind on a
    cluster machine, where the same endpoints carry ``n{i}.`` prefixes."""

    def test_prefixed_link_falls_back_to_bare_key(self):
        lf = LinkFaults(loss=0.2)
        plan = FaultPlan(links={("cpu0", "nic0"): lf})
        # On node n3 of a cluster machine the same link is namespaced.
        assert plan.for_link("n3.cpu0", "n3.nic0") is lf
        assert plan.for_link("n3.nic0", "n3.cpu0") is lf

    def test_exact_prefixed_key_wins_over_bare(self):
        bare = LinkFaults(loss=0.1)
        exact = LinkFaults(loss=0.3)
        plan = FaultPlan(
            links={
                ("cpu0", "nic0"): bare,
                ("n3.cpu0", "n3.nic0"): exact,
            }
        )
        assert plan.for_link("n3.cpu0", "n3.nic0") is exact
        assert plan.for_link("n5.cpu0", "n5.nic0") is bare

    def test_cross_node_links_do_not_strip(self):
        # A nic0<->nic0 key must not match the inter-node path n0.nic0 ->
        # n1.nic0: the endpoints live on different nodes.
        plan = FaultPlan(links={("nic0", "nic0"): LinkFaults(loss=0.2)})
        assert plan.for_link("n0.nic0", "n1.nic0") is NO_FAULTS

    def test_fabric_level_links_unaffected(self):
        plan = FaultPlan(links={("g0r0", "g1r0"): LinkFaults(loss=0.2)})
        assert plan.for_link("g0r0", "g1r0").loss == 0.2
        assert plan.for_link("n0.nic0", "g0r0") is NO_FAULTS

    def test_faulty_cluster_flood_sees_bare_key_faults(self):
        """End to end: a bare-named link override degrades the same flood
        on the namespaced cluster machine."""
        from repro import faults
        from repro.machines.registry import get_machine
        from repro.workloads.flood import run_flood

        machine = get_machine("perlmutter-cpu-x8@dragonfly(4,2,2)")
        clean = run_flood(machine, "one_sided", 65536, 16, iters=1)
        plan = FaultPlan(
            links={("cpu0", "cpu1"): LinkFaults(degrade=4.0)},
        )
        with faults.inject(plan):
            slowed = run_flood(machine, "one_sided", 65536, 16, iters=1)
        assert slowed.bandwidth < clean.bandwidth
