#!/usr/bin/env python
"""Add a runtime backend in one file — no workload edits.

The paper's §V projection: one-sided MPI "can easily outperform the
two-sided" once the 4-op software emulation (Put / flush / Put(signal) /
flush + the Listing-1 polling receiver) becomes a single hardware
put-with-signal.  This example builds that NIC as a *user* backend:

1. subclass a built-in adapter (the fused op sequences — and the op
   accounting their endpoints declare — are exactly the NVSHMEM ones, so
   :class:`ShmemBackend` already does the right thing), give it a name
   and a cost-profile key, and register it;
2. give a machine model the matching :class:`CommCosts` profile;
3. run the unchanged flood workload under the new name.

Every workload in the repo (stencil, SpTRSV, hashtable, flood) would
accept ``FUSED`` as its ``runtime`` argument — the flood and stencil
runners emit :class:`repro.ir.IRProgram` values lowered through
:func:`repro.ir.run_program`, SpTRSV and the hashtable are rank programs
over the endpoint verbs, and none of them sees the backend.  The declared
:class:`BackendCaps` is the backend's *entire* behavioural contract with
the rest of the repo: capability-driven consumers — the IR pass gates,
``Selection.explain``, :func:`repro.transport.require` selection, the
host-involvement ablation's overhead model — all pick it up from
:func:`repro.transport.capabilities` with zero extra code, and the last
sections demonstrate each one.

Run:  python examples/custom_backend.py
"""

import dataclasses

from repro import ir
from repro.machines import perlmutter_cpu
from repro.transport import (
    ONE_SIDED,
    TWO_SIDED,
    BackendCaps,
    capabilities,
    register_backend,
    require,
)
from repro.transport.shmem import ShmemBackend
from repro.util import fmt_bw
from repro.workloads.flood import run_flood

FUSED = "fused_put_nic"


class FusedPutNic(ShmemBackend):
    """Hypothetical CPU NIC with hardware put-with-signal.

    The op sequences (fused put+signal, true receiver notification) come
    from the parent adapter; only the name and the cost profile differ.
    Declare capabilities *first* and completely — every flag, not just
    the ones that differ from the default — because consumers branch on
    the caps table, never on the backend's name.  The op count is not a
    flag: "one fused op, not four" is the inherited mailbox endpoint's
    ``ops = (("put_signal",), ("wait_wakeup",))``, and registration
    derives ``caps.ops_per_message == 1`` from it.
    """

    name = FUSED
    caps = BackendCaps(
        remote_atomics=True,   # NIC-side fetch-add (hashtable workload)
        gpu_initiated=False,   # host issues the verbs...
        host_bypass=False,     # ...and host polls completion
        fence_epochs=False,    # no epoch fence -> sync-elide stays off
        stream_ordered=False,  # no device stream ordering
    )
    description = "example: CPU NIC with hardware put-with-signal"


register_backend(FusedPutNic())

# Registering the same name twice is a loud, self-diagnosing error — the
# message names the incumbent class and description, so a double-import
# is identifiable without a debugger.  Opt-in shadowing: replace=True.
try:
    register_backend(FusedPutNic())
except ValueError as exc:
    _COLLISION = str(exc)
register_backend(FusedPutNic(), replace=True)  # idempotent re-run


def fused_machine():
    """Perlmutter CPU with a cost profile for the hypothetical NIC."""
    machine = perlmutter_cpu()
    one = machine.runtimes[ONE_SIDED]
    machine.runtimes[FUSED] = dataclasses.replace(
        one,
        put_signal=one.put,  # one fused issue instead of four ops
        wait_wakeup=1.0e-6,  # hardware notification wake
        poll_slot=0.0,  # no Listing-1 software scan
        wait_poll=2e-7,
    )
    return machine


def main() -> None:
    print("registered backend:", FusedPutNic.name)
    print("collision diagnostic:", _COLLISION)
    print()

    # The caps table now carries the user backend next to the built-ins,
    # and capability selection finds it without naming it: every backend
    # whose declared caps match, and require()'s pick among them.
    print("capabilities():")
    for name, caps in sorted(capabilities().items()):
        print(f"  {name:>16}: {caps.summary()}")
    assert capabilities()[FUSED].ops_per_message == 1  # derived, never declared
    host_nic = {"gpu_initiated": False, "fence_epochs": False, "remote_atomics": True}
    candidates = [n for n, c in capabilities().items() if c.matches(**host_nic)]
    print(f"qualifying {host_nic}: {candidates}")
    print(f"require(**host_nic) = {require(**host_nic)!r}")
    assert FUSED in candidates
    print()

    # Small-message flood: sweep messages-per-sync and watch the
    # crossover.  With the 4-op emulation, one-sided trails two-sided at
    # every n (the paper's CPU result); the fused op flips the order.
    nbytes = 512
    print(f"flood bandwidth, {nbytes} B messages (paper Fig. 3 regime):")
    print(f"  {'n/sync':>7}  {'two_sided':>12}  {'one_sided':>12}  {FUSED:>14}")
    crossover = {ONE_SIDED: None, FUSED: None}
    for n in (1, 4, 16, 64, 256):
        bw = {}
        for runtime in (TWO_SIDED, ONE_SIDED, FUSED):
            machine = fused_machine()
            bw[runtime] = run_flood(machine, runtime, nbytes, n, iters=3).bandwidth
        for runtime in (ONE_SIDED, FUSED):
            if crossover[runtime] is None and bw[runtime] > bw[TWO_SIDED]:
                crossover[runtime] = n
        print(f"  {n:>7}  {fmt_bw(bw[TWO_SIDED]):>12}  "
              f"{fmt_bw(bw[ONE_SIDED]):>12}  {fmt_bw(bw[FUSED]):>14}")
    print()
    print(f"crossover vs two-sided: 4-op emulation at n={crossover[ONE_SIDED]}, "
          f"fused hardware op at n={crossover[FUSED]} — hardware support "
          "moves the paper's §V crossover to the smallest batches.")

    # The flood program is IR, so the pass pipeline applies to the user
    # backend unchanged: coalesce turns the batch of 256 small messages
    # per sync into one message, with a modeled-cost proof per rewrite.
    print()
    print("IR passes on the custom backend (repro ir explain, in-process):")
    with ir.passes(True), ir.collect() as reports:
        run_flood(fused_machine(), FUSED, nbytes, 256, iters=3)
    print(ir.explain_all(reports))

    # The host-involvement ablation's overhead model branches on the
    # caps table too, so the user backend gets a correctly-costed row
    # with zero extra code: its per-message cost is the one put_signal
    # its mailbox endpoint declares instead of the 4-op emulation.
    from repro.experiments.host_involvement import host_overhead

    machine = fused_machine()
    print()
    print("host_overhead (256 msgs, 3 syncs) via caps + endpoint ops:")
    for runtime in (TWO_SIDED, ONE_SIDED, FUSED):
        h = host_overhead(machine, runtime, messages=256, syncs=3)
        print(f"  {runtime:>16}: {h * 1e6:8.1f} us")
    assert host_overhead(machine, FUSED, messages=256, syncs=3) < \
        host_overhead(machine, ONE_SIDED, messages=256, syncs=3)


if __name__ == "__main__":
    main()
