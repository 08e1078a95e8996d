"""Degenerate counts are typed errors that name the caller's argument.

``nan`` slips past every ``x < 1`` check and a fraction is no count; each
row below used to surface as a ``TypeError`` from building the program, a
float conversion error, or a ``flops`` complaint about an argument the
caller never passed.
"""

import pytest

from repro.machines import perlmutter_cpu, perlmutter_gpu
from repro.workloads.flood import run_cas_flood, run_flood
from repro.workloads.hashtable.runner import HashTableConfig, run_hashtable
from repro.workloads.ml import run_kv_transfer, run_moe_dispatch, run_training_step

NAN = float("nan")
CPU, GPU = perlmutter_cpu, perlmutter_gpu

CASES = {
    "flood-msgs-nan": (
        lambda: run_flood(CPU(), "one_sided", 64, NAN),
        r"flood msgs_per_sync must be an integer >= 1, got nan",
    ),
    "flood-msgs-fraction": (
        lambda: run_flood(CPU(), "one_sided", 64, 2.5),
        r"flood msgs_per_sync must be an integer >= 1, got 2\.5",
    ),
    "cas-n_ops-nan": (
        lambda: run_cas_flood(CPU(), "one_sided", n_ops=NAN),
        r"cas flood n_ops must be >= 1, got nan",
    ),
    "hashtable-total_inserts-nan": (
        lambda: run_hashtable(CPU(), "one_sided", HashTableConfig(total_inserts=NAN), 2),
        r"hashtable total_inserts must be an integer >= 1, got nan",
    ),
    "kv-layers-nan": (
        lambda: run_kv_transfer(GPU(), "shmem", nranks=2, layers=NAN),
        r"kv_transfer layers must be an integer >= 1, got nan",
    ),
    "moe-hidden-nan": (
        lambda: run_moe_dispatch(GPU(), "shmem", nranks=2, hidden=NAN),
        r"moe hidden must be an integer >= 1, got nan",
    ),
    "training-tokens_per_rank-nan": (
        lambda: run_training_step(
            GPU(), "shmem", nranks=2, grad_bytes=1024.0, tokens_per_rank=NAN
        ),
        r"training tokens_per_rank must be an integer >= 1, got nan",
    ),
}


@pytest.mark.parametrize("case", list(CASES))
def test_degenerate_count_names_the_argument(case):
    call, message = CASES[case]
    with pytest.raises(ValueError, match=message):
        call()
