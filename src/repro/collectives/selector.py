"""Algorithm selector: Hockney (α–β) costs from the machine's LogGP.

For each candidate algorithm the selector evaluates the textbook cost
model with ``α = L + o + o_sync`` (per-round latency, from the runtime's
calibrated LogGP parameters on this machine) and ``β = G`` (seconds per
byte), then picks the cheapest; ties go to the collective's preferred
order (:data:`repro.collectives.plan.ALGORITHMS`).  :class:`Selection`
keeps every candidate's modeled time and renders the choice with
:meth:`Selection.explain`.

The model is deliberately the coarse analytic one — it ranks algorithms,
it does not predict simulated time (the simulator has eager/rendezvous
switches, per-port congestion, and sync costs the closed form ignores).
Every formula is monotone in message size, and monotone in nranks within
an algorithm family (for the log-based families, across power-of-two
rank counts — the MPICH fold makes 2^k+1 ranks genuinely costlier than
2^(k+1)); the property suite pins both.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.collectives.plan import ALGORITHMS, CollectiveError, _ceil_log2, _pof2

__all__ = ["Selection", "model_time", "select"]


def model_time(coll: str, algorithm: str, nranks: int, nbytes: float,
               alpha: float, beta: float) -> float:
    """Modeled seconds for one collective of ``nbytes`` payload (the
    plan-module size convention) on ``nranks`` ranks."""
    if coll not in ALGORITHMS:
        raise CollectiveError(f"unknown collective {coll!r}")
    if algorithm not in ALGORITHMS[coll]:
        raise CollectiveError(f"unknown {coll} algorithm {algorithm!r}")
    P, m = nranks, float(nbytes)
    if P == 1:
        return 0.0
    pof2, rem = _pof2(P)
    L = pof2.bit_length() - 1
    Lc = _ceil_log2(P)
    if coll == "allreduce":
        if algorithm == "ring":
            return 2 * (P - 1) * alpha + 2 * m * (P - 1) / P * beta
        t = L * (alpha + m * beta)
        if rem:
            t += 2 * (alpha + m * beta)
        return t
    if coll == "allgather":
        if algorithm == "ring":
            return (P - 1) * (alpha + m * beta)
        # Core doubling moves every core's blocks once: (pof2-1) group
        # exchanges averaging P/pof2 blocks of m bytes.
        t = L * alpha + (pof2 - 1) * (P / pof2) * m * beta
        if rem:
            t += (alpha + m * beta) + (alpha + P * m * beta)
        return t
    if coll == "reduce_scatter":
        if algorithm == "ring":
            return (P - 1) * alpha + (P - 1) / P * m * beta
        t = L * alpha + (1 - 1 / pof2) * m * beta
        if rem:
            t += (alpha + m * beta) + (alpha + m / P * beta)
        return t
    if coll == "alltoall":
        # m is the per-destination block: both schedules are P-1 rounds
        # of one block (pairwise is contention-free but cost-identical,
        # so the preference order picks it when P is a power of two).
        return (P - 1) * (alpha + m * beta)
    if coll == "broadcast":
        rounds = Lc if algorithm == "tree" else P - 1
        return rounds * (alpha + m * beta)
    # barrier
    rounds = Lc if algorithm == "dissemination" else 2 * Lc
    return rounds * alpha


@dataclass(frozen=True)
class Selection:
    """The selector's verdict plus the full modeled-cost table."""

    coll: str
    nranks: int
    nbytes: float
    machine: str
    runtime: str
    algorithm: str
    costs: tuple[tuple[str, float], ...]  # (algorithm, modeled s), all candidates
    alpha: float
    beta: float

    def explain(self) -> str:
        """Human-readable report of the modeled choice."""
        from repro.transport.registry import get_backend

        lines = [
            f"{self.coll}(P={self.nranks}, {self.nbytes:.0f} B) on "
            f"{self.machine}/{self.runtime} -> {self.algorithm}",
            f"  model: alpha={self.alpha:.3e} s/round (L+o+o_sync), "
            f"beta={self.beta:.3e} s/B (G)",
            # Derived from the capability table, never from the name.
            f"  caps: {get_backend(self.runtime).caps.summary()}",
        ]
        width = max(len(a) for a, _ in self.costs)
        for alg, t in self.costs:
            mark = "  <- selected" if alg == self.algorithm else ""
            lines.append(f"  {alg:<{width}}  {t:.3e} s{mark}")
        return "\n".join(lines)


def select(coll: str, *, nranks: int, nbytes: float, machine,
           runtime: str) -> Selection:
    """Pick the cheapest algorithm for ``coll`` by the α–β model.

    ``machine`` is a :class:`repro.machines.base.Machine`; ``runtime`` a
    registered backend name — together they supply the calibrated LogGP
    parameters the model runs on.
    """
    from repro.transport.registry import get_backend

    if coll not in ALGORITHMS:
        raise CollectiveError(
            f"unknown collective {coll!r}; valid: " + ", ".join(ALGORITHMS)
        )
    backend = get_backend(runtime)
    if nranks >= 2:
        # Every round is one notified (round-slotted mailbox) message.
        params = backend.loggp(machine, "mailbox")
        alpha = params.L + params.o + params.o_sync
        beta = params.G
    else:
        alpha = beta = 0.0
    pof2_ok = nranks & (nranks - 1) == 0
    costs = []
    for alg in ALGORITHMS[coll]:
        if coll == "alltoall" and alg == "pairwise" and not pof2_ok:
            continue
        costs.append((alg, model_time(coll, alg, nranks, nbytes, alpha, beta)))
    best = min(costs, key=lambda c: c[1])[0]  # ties: preference order wins
    return Selection(
        coll=coll,
        nranks=nranks,
        nbytes=float(nbytes),
        machine=machine.name,
        runtime=runtime,
        algorithm=best,
        costs=tuple(costs),
        alpha=alpha,
        beta=beta,
    )
