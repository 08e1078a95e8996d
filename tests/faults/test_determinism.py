"""Property: a FaultPlan(seed=k) run replays bit-identically, and raising
the loss rate can only slow a workload down (monotone coupling)."""

import pytest

from repro import faults, obs
from repro.workloads.flood import run_flood

_SIZE = 65536
_MSGS = 32


def _bandwidth(pm_cpu, loss, seed):
    plan = faults.FaultPlan.uniform(loss=loss, seed=seed) if loss else None
    with faults.inject(plan):
        return run_flood(pm_cpu, "one_sided", _SIZE, _MSGS, iters=1).bandwidth


def _schedule(pm_cpu, plan, **placement):
    """Every net.transfer record of one faulty flood, as comparable tuples."""
    with obs.observe(obs.Obs(trace=True)) as session, faults.inject(plan):
        run_flood(pm_cpu, "two_sided", _SIZE, _MSGS, iters=1, **placement)
    out = []
    for _label, tracer in session.traces:
        for rec in tracer.records:
            if rec.kind == "net.transfer":
                d = rec.detail
                out.append(
                    (d["src"], d["dst"], d["start"], d["arrival"], d["attempts"])
                )
    return out


@pytest.mark.parametrize("seed", [0, 11, 97])
def test_same_seed_identical_schedule(pm_cpu, seed):
    plan = faults.FaultPlan.uniform(loss=0.1, jitter=2e-6, seed=seed)
    assert _schedule(pm_cpu, plan) == _schedule(pm_cpu, plan)


def test_loopback_records_carry_attempts(pm_cpu):
    """Ranks 0 and 1 share a socket: every transfer is a loopback, which a
    fault plan never touches — its records still have the faulty shape."""
    plan = faults.FaultPlan.uniform(loss=0.1, jitter=2e-6, seed=3)
    same_socket = {"nranks": 4, "placement": "block"}
    schedule = _schedule(pm_cpu, plan, **same_socket)
    assert schedule and all(src == dst for src, dst, *_ in schedule)
    assert all(attempts == 1 for *_, attempts in schedule)
    assert schedule == _schedule(pm_cpu, plan, **same_socket)


def test_different_seed_different_schedule(pm_cpu):
    a = _schedule(pm_cpu, faults.FaultPlan.uniform(loss=0.1, seed=1))
    b = _schedule(pm_cpu, faults.FaultPlan.uniform(loss=0.1, seed=2))
    assert a != b


@pytest.mark.parametrize("seed", [0, 5])
def test_bandwidth_monotone_in_loss(pm_cpu, seed):
    bws = [_bandwidth(pm_cpu, loss, seed) for loss in (0.0, 0.05, 0.15, 0.3)]
    assert all(bws[i] >= bws[i + 1] for i in range(len(bws) - 1))


def test_zero_fault_plan_matches_no_plan(pm_cpu):
    """loss=0 under inject() must be byte-identical to no injection at all
    (the acceptance criterion for the fault-free fast path)."""
    baseline = run_flood(pm_cpu, "one_sided", _SIZE, _MSGS, iters=1).bandwidth
    with faults.inject(faults.FaultPlan.uniform(loss=0.0)):
        injected = run_flood(pm_cpu, "one_sided", _SIZE, _MSGS, iters=1).bandwidth
    assert injected == baseline


def test_scope_stats_reflect_run(pm_cpu):
    plan = faults.FaultPlan.uniform(loss=0.15, seed=4)
    with faults.inject(plan) as scope:
        run_flood(pm_cpu, "two_sided", _SIZE, _MSGS, iters=1)
    s = scope.stats()
    assert s["delivered"] > 0
    assert s["drops"] > 0
    assert s["retransmits"] <= s["drops"]


@pytest.mark.parametrize(
    "machine, runtime, time, stats, lost",
    [
        ("perlmutter-cpu", "one_sided", 0.009255389242619655, (103.0, 103.0, 938.0),
         "transfer cpu0->cpu1 (8 B) lost on cpu0<->cpu1 after 1 attempts"),
        ("perlmutter-gpu", "shmem", 0.0015108257003538367, (152.0, 152.0, 1404.0),
         "transfer gpu1->gpu3 (16 B) lost on gpu1<->gpu3 after 1 attempts"),
    ],
)
def test_hashtable_atomics_under_loss_are_unmoved(machine, runtime, time, stats, lost):
    """A blocking remote atomic retransmits and, past the budget, fails at
    the origin's wait — the insert epoch's time, drop accounting and the
    first loss to surface are the values taken before the atomic verbs were
    fused into one generator (PR 19's head)."""
    from repro.machines import get_machine
    from repro.workloads.hashtable import HashTableConfig, run_hashtable

    cfg = HashTableConfig(total_inserts=600, seed=2)
    with faults.inject(faults.FaultPlan.uniform(loss=0.1, jitter=2e-6, seed=7)) as scope:
        res = run_hashtable(get_machine(machine), runtime, cfg, 4)
    s = scope.stats()
    assert res.time == time
    assert (s["drops"], s["retransmits"], s["delivered"]) == stats
    assert len(res.extras["values"]) == 600
    with faults.inject(faults.FaultPlan.uniform(loss=0.3, max_retries=0, seed=7)):
        with pytest.raises(faults.FaultError) as info:
            run_hashtable(get_machine(machine), runtime, cfg, 4)
    assert str(info.value) == lost
