"""A schedule addresses exactly the round slots its plan declares.

The plan allocates ``plan.rounds`` signal slots per call before any rank
runs; the schedule then addresses them by round.  Each rank's pure
schedule is driven here with a recording stand-in for the exec helper
(simulate mode, no values), and the union over ranks must use exactly
the declared rounds, pair every send with a receive in the same round,
and give each (receiver, round) at most one message — the invariant
:mod:`repro.collectives.algorithms` states.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.collectives.algorithms import STRATEGIES
from repro.collectives.plan import ALGORITHMS, CollectivePlan

ALL_PAIRS = [(c, a) for c, algs in ALGORITHMS.items() for a in algs]


class _Recorder:
    """What a schedule sees of ``_RoundExec``, recording each message as
    ``(src, dst, round)`` instead of moving it."""

    execute = False
    v = None
    reduce = None

    def __init__(self, plan, rank, root, log):
        self.P = plan.nranks
        self.rank = rank
        self.root = root
        self.nelems = plan.nelems
        self.stripes = plan.stripes
        self._log = log

    def send(self, dst, rnd, words, values=None, parts=1):
        self._log["send"].append((self.rank, dst, rnd))
        return
        yield  # pragma: no cover - a verb is a generator

    def recv(self, src, rnd, words, parts=1):
        self._log["recv"].append((src, self.rank, rnd))
        return
        yield  # pragma: no cover

    def exchange(self, dst, src, rnd, send_words, recv_words, values=None,
                 parts=1):
        yield from self.send(dst, rnd, send_words)
        yield from self.recv(src, rnd, recv_words)


def _run(plan, root):
    log = {"send": [], "recv": []}
    for rank in range(plan.nranks):
        for _ in plan.strategy.schedule(_Recorder(plan, rank, root, log)):
            raise AssertionError("a recorded verb never yields")
    return log


@pytest.mark.parametrize(("coll", "algorithm"), ALL_PAIRS)
def test_schedule_uses_exactly_its_declared_slots(coll, algorithm):
    for P in range(1, 34):
        if STRATEGIES[coll][algorithm].refusal(P, 1):
            continue  # pairwise alltoall on a non-power-of-two P
        plan = CollectivePlan(coll=coll, algorithm=algorithm, nranks=P,
                              nelems=0 if coll == "barrier" else 5)
        roots = (0, P - 1) if coll == "broadcast" else (0,)
        for root in roots:
            log = _run(plan, root)
            where = f"{coll}/{algorithm} P={P} root={root}"
            used = {rnd for _, _, rnd in log["send"] + log["recv"]}
            assert used == set(range(plan.rounds)), where
            assert Counter(log["send"]) == Counter(log["recv"]), where
            per_slot = Counter((dst, rnd) for _, dst, rnd in log["send"])
            assert max(per_slot.values(), default=0) <= 1, where
