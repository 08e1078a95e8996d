"""ECN-style congestion control at the injection edge.

The fabric's links already serialise contending messages (queueing at the
injection ports); what a loaded datacenter fabric adds is *endpoint
reaction*: flows whose packets queue past a threshold get marked, and
marked sources back off their injection rate so the shared links drain.

The model here is deliberately small and deterministic:

* **Marking** — a transfer is marked when any hop's reservation had to wait
  longer than ``ecn_threshold`` behind earlier traffic (the per-link
  occupancy window is the queue; waiting past the threshold is the ECN
  signal).
* **Backoff** — each source endpoint holds an injection rate in
  ``[min_rate, 1]``.  A marked transfer multiplies the source's rate by
  ``decrease`` (bounded multiplicative decrease); an unmarked transfer adds
  ``recover`` back (additive increase).  A source at rate ``r`` pays an
  extra ``(1/r - 1) * serialisation`` delay before its next injection —
  rate 0.5 means half injection bandwidth.

Everything is a pure function of the simulation state, so congested runs
replay bit-identically; with no :class:`CongestionConfig` installed the
fabric never touches this module and stays byte-identical to the goldens.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.validation import check_non_negative

__all__ = ["CongestionConfig", "CongestionControl"]


@dataclass(frozen=True)
class CongestionConfig:
    """Knobs for the ECN/backoff loop (see module docstring).

    Attributes:
        ecn_threshold: per-hop queueing wait (seconds) beyond which a
            transfer is marked.
        decrease: multiplicative rate decrease applied to a marked source.
        recover: additive rate recovery per unmarked transfer.
        min_rate: rate floor — backoff is bounded, sources never stall.
    """

    ecn_threshold: float = 2e-6
    decrease: float = 0.5
    recover: float = 0.05
    min_rate: float = 0.125

    def __post_init__(self) -> None:
        check_non_negative("ecn_threshold", self.ecn_threshold)
        if not 0.0 < self.decrease < 1.0:
            raise ValueError(f"decrease must be in (0, 1), got {self.decrease}")
        check_non_negative("recover", self.recover)
        if not 0.0 < self.min_rate <= 1.0:
            raise ValueError(f"min_rate must be in (0, 1], got {self.min_rate}")


class CongestionControl:
    """Per-fabric congestion state: one injection rate per source endpoint."""

    __slots__ = ("config", "_rate", "marks", "backoffs", "m_marks", "m_backoffs")

    def __init__(self, config: CongestionConfig):
        self.config = config
        self._rate: dict[str, float] = {}
        self.marks = 0
        self.backoffs = 0
        # Optional obs counters, attached by the fabric at wiring time.
        self.m_marks = None
        self.m_backoffs = None

    def rate(self, src: str) -> float:
        return self._rate.get(src, 1.0)

    def injection_delay(self, src: str, serialization: float) -> float:
        """Extra delay the throttled source pays before this injection.

        ``serialization`` is the transfer's bottleneck occupancy
        (``nbytes * G``); a source at rate ``r`` stretches it by ``1/r``.
        """
        r = self._rate.get(src, 1.0)
        if r >= 1.0 or serialization <= 0.0:
            return 0.0
        self.backoffs += 1
        if self.m_backoffs is not None:
            self.m_backoffs.inc()
        return (1.0 / r - 1.0) * serialization

    def observe(self, src: str, max_wait: float) -> bool:
        """Feed one transfer's worst per-hop queueing wait; returns whether
        it was marked (and updates the source's rate either way)."""
        cfg = self.config
        marked = max_wait > cfg.ecn_threshold
        r = self._rate.get(src, 1.0)
        if marked:
            self.marks += 1
            if self.m_marks is not None:
                self.m_marks.inc()
            self._rate[src] = max(cfg.min_rate, r * cfg.decrease)
        elif r < 1.0:
            self._rate[src] = min(1.0, r + cfg.recover)
        return marked

    def stats(self) -> dict[str, float]:
        """Cumulative mark/backoff counts plus the current per-source rates."""
        out: dict[str, float] = {
            "cc.marks": float(self.marks),
            "cc.backoffs": float(self.backoffs),
        }
        for src, r in sorted(self._rate.items()):
            out[f"cc.rate.{src}"] = r
        return out
