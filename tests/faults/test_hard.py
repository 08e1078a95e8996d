"""Hard faults: element windows, topology resolution."""

import math

import pytest

from repro.faults import (
    FaultPlan,
    HardFaults,
    NicFaults,
    NodeFaults,
    RouterFaults,
    UnknownElementError,
    element_catalog,
    elements_down_at,
    resolve_hard_faults,
    validate_element,
)
from repro.machines.registry import get_machine
from repro.net import dragonfly

CLUSTER = "perlmutter-cpu-x8@dragonfly(4,2,2)"


def _blueprint():
    return dragonfly(4, 2, 2).topology


class TestHardFaults:
    def test_defaults_are_clean(self):
        hf = RouterFaults("g0r0")
        assert hf.clean
        assert hf.kind == "router"

    def test_windows_make_it_dirty(self):
        assert not RouterFaults("g0r0", windows=((1e-6, math.inf),)).clean

    def test_windows_sorted(self):
        hf = NodeFaults("n0", windows=((5e-6, 6e-6), (1e-6, 2e-6)))
        assert hf.windows == ((1e-6, 2e-6), (5e-6, 6e-6))

    @pytest.mark.parametrize("window", [(5.0, 5.0), (5.0, 2.0), (-1.0, 2.0)])
    def test_bad_window_rejected(self, window):
        with pytest.raises(ValueError, match="window"):
            NicFaults("nic0", windows=(window,))

    def test_empty_element_rejected(self):
        with pytest.raises(ValueError, match="element"):
            RouterFaults("")

    def test_kinds(self):
        assert NodeFaults("n0").kind == "node"
        assert NicFaults("nic0").kind == "nic"
        assert HardFaults("x").kind == "element"

    def test_infinite_window_allowed(self):
        hf = RouterFaults("g0r0", windows=((0.0, math.inf),))
        assert hf.windows == ((0.0, math.inf),)


class TestFaultPlanHard:
    def test_plan_clean_considers_hard(self):
        assert FaultPlan(hard=(RouterFaults("g0r0"),)).clean
        assert not FaultPlan(
            hard=(RouterFaults("g0r0", windows=((0.0, 1e-6),)),)
        ).clean

    def test_duplicate_element_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            FaultPlan(
                hard=(
                    RouterFaults("g0r0", windows=((0.0, 1e-6),)),
                    RouterFaults("g0r0", windows=((2e-6, 3e-6),)),
                )
            )

    def test_same_name_different_kind_allowed(self):
        plan = FaultPlan(
            hard=(
                NodeFaults("n0", windows=((0.0, 1e-6),)),
                NicFaults("n0", windows=((0.0, 1e-6),)),
            )
        )
        assert len(plan.hard) == 2

    def test_uniform_accepts_hard(self):
        plan = FaultPlan.uniform(hard=(RouterFaults("g0r0"),))
        assert plan.hard[0].element == "g0r0"


class TestElementCatalog:
    def test_blueprint_routers(self):
        cat = element_catalog(_blueprint())
        assert "g0r0" in cat["router"] and "g3r1" in cat["router"]
        assert cat["node"] == () and cat["nic"] == ()

    def test_cluster_machine_catalog(self):
        machine = get_machine(CLUSTER)
        cat = element_catalog(
            machine.topology, compute=tuple(machine.compute_endpoints)
        )
        assert len(cat["router"]) == 8
        assert cat["node"] == tuple(f"n{i}" for i in range(8))
        assert len(cat["nic"]) == 8
        # compute endpoints are never fault targets
        assert not any("cpu" in r for r in cat["router"])

    def test_validate_element(self):
        machine = get_machine(CLUSTER)
        compute = tuple(machine.compute_endpoints)
        validate_element(machine.topology, "router", "g0r0", compute=compute)
        validate_element(machine.topology, "node", "n3", compute=compute)
        with pytest.raises(UnknownElementError, match="valid routers"):
            validate_element(
                machine.topology, "router", "bogus", compute=compute
            )
        with pytest.raises(UnknownElementError, match="valid nodes"):
            validate_element(machine.topology, "node", "n99", compute=compute)

    def test_validate_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            validate_element(_blueprint(), "switchboard", "g0r0")


class TestResolveHardFaults:
    def test_router_takes_all_attached_links(self):
        topo = _blueprint()
        plan = FaultPlan(
            hard=(RouterFaults("g1r0", windows=((1e-6, math.inf),)),)
        )
        dead = resolve_hard_faults(plan, topo)
        assert dead  # every key involves g1r0, atomically windowed
        assert all("g1r0" in key for key in dead)
        assert all(ws == ((1e-6, math.inf),) for ws in dead.values())
        expected = {
            frozenset(key)
            for key in topo.links
            if "g1r0" in key
        }
        assert set(dead) == expected

    def test_node_matches_prefixed_endpoints(self):
        machine = get_machine(CLUSTER)
        plan = FaultPlan(hard=(NodeFaults("n0", windows=((0.0, 1e-6),)),))
        dead = resolve_hard_faults(plan, machine.topology)
        assert dead
        assert all(
            any(e == "n0" or e.startswith("n0.") for e in key) for key in dead
        )

    def test_overlapping_windows_merge(self):
        topo = _blueprint()
        plan = FaultPlan(
            hard=(
                RouterFaults("g0r0", windows=((1e-6, 3e-6), (2e-6, 5e-6))),
            )
        )
        dead = resolve_hard_faults(plan, topo)
        assert all(ws == ((1e-6, 5e-6),) for ws in dead.values())

    def test_unknown_element_lenient_by_default(self):
        topo = _blueprint()
        plan = FaultPlan(hard=(NodeFaults("n99", windows=((0.0, 1e-6),)),))
        assert resolve_hard_faults(plan, topo) == {}

    def test_elements_down_at(self):
        plan = FaultPlan(
            hard=(
                RouterFaults("g0r0", windows=((1e-6, 2e-6),)),
                NodeFaults("n0", windows=((3e-6, math.inf),)),
            )
        )
        assert [hf.element for hf in elements_down_at(plan, 1.5e-6)] == ["g0r0"]
        assert [hf.element for hf in elements_down_at(plan, 2.5e-6)] == []
        assert [hf.element for hf in elements_down_at(plan, 10.0)] == ["n0"]

