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

from repro.collectives.algorithms import STRATEGIES
from repro.collectives.plan import ALGORITHMS, CollectiveError
from repro.util.validation import check_count, check_non_negative

__all__ = ["Selection", "model_time", "select"]


def model_time(coll: str, algorithm: str, nranks: int, nbytes: float,
               alpha: float, beta: float) -> float:
    """Modeled seconds for one collective of ``nbytes`` payload (the
    plan-module size convention) on ``nranks`` ranks:
    ``rounds(P)·α + wire(P, m)·β`` of the strategy's record."""
    if coll not in ALGORITHMS:
        raise CollectiveError(f"unknown collective {coll!r}")
    if algorithm not in ALGORITHMS[coll]:
        raise CollectiveError(f"unknown {coll} algorithm {algorithm!r}")
    return STRATEGIES[coll][algorithm].cost(nranks, float(nbytes), alpha, beta)


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
           runtime: str, stripes: int = 1) -> Selection:
    """Pick the cheapest algorithm for ``coll`` by the α–β model, among
    the strategies that run ``nranks`` ranks in ``stripes`` stripes.

    ``machine`` is a :class:`repro.machines.base.Machine`; ``runtime`` a
    registered backend name — together they supply the calibrated LogGP
    parameters the model runs on.
    """
    from repro.transport.registry import get_backend

    if coll not in ALGORITHMS:
        raise CollectiveError(
            f"unknown collective {coll!r}; valid: " + ", ".join(ALGORITHMS)
        )
    nranks = check_count("nranks", nranks, 1, CollectiveError)
    m = float(check_non_negative("nbytes", nbytes, CollectiveError))
    stripes = check_count("stripes", stripes, 1, CollectiveError)
    backend = get_backend(runtime)
    if nranks >= 2:
        # Every round is one notified (round-slotted mailbox) message.
        params = backend.loggp(machine, "mailbox")
        alpha = params.L + params.o + params.o_sync
        beta = params.G
    else:
        alpha = beta = 0.0
    costs = [
        (s.name, s.cost(nranks, m, alpha, beta))
        for s in STRATEGIES[coll].values()
        if s.refusal(nranks, stripes) is None
    ]
    if not costs:
        raise CollectiveError(f"no {coll} algorithm runs {stripes} stripes")
    best = min(costs, key=lambda c: c[1])[0]  # ties: preference order wins
    return Selection(
        coll=coll,
        nranks=nranks,
        nbytes=m,
        machine=machine.name,
        runtime=runtime,
        algorithm=best,
        costs=tuple(costs),
        alpha=alpha,
        beta=beta,
    )
