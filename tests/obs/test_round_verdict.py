"""Why a shmem round message was or was not sent as one batch.

Inside an obs session the mailbox endpoint counts its verdict once per
round send: ``transport.round.batched`` or
``transport.round.scalar.<reason>`` with the first reason that applied.
"""

import numpy as np
import pytest

from repro import obs
from repro.collectives import run_collective
from repro.comm.job import Job
from repro.machines import perlmutter_gpu, summit_gpu
from repro.transport.api import MailboxSpec

_PREFIX = "transport.round."


def _round_counts(machine, nranks, nelems, stripes, *, execute=False):
    values = (
        [np.arange(nelems, dtype=float) + r for r in range(nranks)]
        if execute
        else None
    )
    with obs.observe(obs.Obs()) as session:
        res = run_collective(
            machine, "shmem", "allreduce", nranks=nranks, nelems=nelems,
            algorithm="ring", stripes=stripes, values=values,
        )
    counts = {
        k[len(_PREFIX):]: v
        for k, v in session.snapshot().items()
        if k.startswith(_PREFIX)
    }
    # A ring allreduce sends 2(P-1) round messages per rank.
    assert sum(counts.values()) == nranks * 2 * (nranks - 1)
    assert res.stats.messages == nranks * 2 * (nranks - 1) * stripes
    return counts


@pytest.mark.parametrize(
    "machine, nranks, nelems, stripes, execute, expected",
    [
        (perlmutter_gpu, 4, 64, 1, False, {"scalar.one_part": 24}),
        (perlmutter_gpu, 4, 64, 2, False, {"batched": 24}),
        (perlmutter_gpu, 4, 4, 2, False, {"scalar.uneven": 24}),
        # Chunks of 1, 1, 0 and 0 words: each rank sends each chunk once
        # per pass, so half the round messages are empty.
        (perlmutter_gpu, 4, 2, 2, False, {"scalar.uneven": 12, "scalar.empty": 12}),
        (perlmutter_gpu, 4, 64, 2, True, {"scalar.read_data": 24}),
        (summit_gpu, 6, 96, 2, False, {"scalar.shared_paths": 60}),
    ],
    ids=["one_part", "batched", "uneven", "empty", "read_data", "shared_paths"],
)
def test_verdict_counted_once_per_round_send(
    machine, nranks, nelems, stripes, execute, expected
):
    assert _round_counts(machine(), nranks, nelems, stripes, execute=execute) == expected


def test_outside_a_session_the_verdict_is_not_even_asked(monkeypatch):
    """The default path pays one ``metrics is None`` test: a one-part
    round never computes a reason, a striped one only to pick its path."""
    from repro.transport.shmem import _MailboxEndpoint

    asked = []
    real = _MailboxEndpoint._scalar_reason

    def spy(self, words, parts):
        asked.append(parts)
        return real(self, words, parts)

    monkeypatch.setattr(_MailboxEndpoint, "_scalar_reason", spy)
    job = Job(perlmutter_gpu(), 2, "shmem")
    spec = MailboxSpec(data_words=1, nslots=1, offsets={0: (0,), 1: (0,)})
    assert job.channel(spec).endpoint(job.contexts[0])._metrics is None
    run_collective(perlmutter_gpu(), "shmem", "allreduce", nranks=4,
                   nelems=64, algorithm="ring", stripes=1)
    assert asked == []
    run_collective(perlmutter_gpu(), "shmem", "allreduce", nranks=4,
                   nelems=64, algorithm="ring", stripes=2)
    assert asked == [2] * 48  # send and receive side, no counting
