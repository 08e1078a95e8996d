"""The Message Roofline Model (paper §II) — the core contribution.

Characterises sustained messaging bandwidth (bytes/s) as a function of

* message size ``B`` (bytes),
* **messages per synchronization** ``n`` (the paper's new axis),
* peak network bandwidth (``1/G``),
* network latency ``L`` and software overhead ``o``.

Two variants, as in the paper's Fig. 1:

* the **sharp** model ``n*B / max(n*o, n*max(g, B*G), L)`` — perfect overlap
  of everything that can overlap; the junction between the diagonal
  (latency) and horizontal (bandwidth) ceilings is "an ideal region one can
  never practically reach";
* the **rounded** model, where per-message overhead is serial::

      T(n, B) = o + (n-1)*max(o, g, B*G) + B*G + L + o_sync

  i.e. consecutive messages are spaced by the sender overhead, the
  injection gap or the transmission time (whichever dominates — they
  overlap each other, but LogGP's ``g`` and ``o`` cannot be overlapped
  away), the last message streams out, the wire latency is paid once at
  the tail and the synchronization overhead once per batch.

At ``n = 1`` the rounded model reduces to the paper's
``B / (o + L + B*G)`` ~= ``B / (o + max(L, B*G))`` form, and as ``n`` grows
the achieved bandwidth approaches ``min(B / max(g, o), 1/G)`` — the
latency is overlapped but the gap and overhead are not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.net.loggp import LogGPParams

__all__ = ["MessageRoofline"]


def _checked(nbytes, msgs_per_sync=1, *, positive: bool = False):
    """``(B, n)`` as arrays, or a ValueError naming the argument: sizes
    finite and >= 0 (> 0 where a bandwidth divides by them), counts whole
    and >= 1 — ``nan`` fails every comparison, so it fails here."""
    B = np.asarray(nbytes, dtype=float)
    if not np.all(np.isfinite(B) & ((B > 0) if positive else (B >= 0))):
        raise ValueError(
            f"roofline nbytes must be a finite number {'>' if positive else '>='} 0, "
            f"got {nbytes}"
        )
    n = np.asarray(msgs_per_sync)
    if not np.all(np.isfinite(n) & (n >= 1) & (np.floor(n) == n)):
        raise ValueError(
            f"roofline msgs_per_sync must be an integer >= 1, got {msgs_per_sync}"
        )
    return B, n


@dataclass(frozen=True)
class MessageRoofline:
    """Analytic Message Roofline for one (machine, runtime, path) triple."""

    params: LogGPParams
    name: str = "roofline"

    # -- core model ------------------------------------------------------------

    def _spacing(self, nbytes) -> np.ndarray:
        """The gap between consecutive messages of a batch, ``max(o, g, B*G)``:
        sender overhead, injection gap or transmission time, whichever
        dominates."""
        p = self.params
        return np.maximum(max(p.o, p.g), np.asarray(nbytes, dtype=float) * p.G)

    def time(self, nbytes, msgs_per_sync=1, *, sharp: bool = False) -> np.ndarray:
        """Time to complete one synchronization batch; ``nbytes`` and
        ``msgs_per_sync`` are scalars or arrays that broadcast together."""
        B, n = _checked(nbytes, msgs_per_sync)
        p = self.params
        spacing = self._spacing(B)
        if sharp:
            return np.maximum(n * spacing, p.L + p.o_sync)
        return p.o + (n - 1) * spacing + B * p.G + p.L + p.o_sync

    def bandwidth(self, nbytes, msgs_per_sync=1, *, sharp: bool = False) -> np.ndarray:
        """Sustained bandwidth of the batch: ``n*B / T(n, B)``."""
        B, n = _checked(nbytes, msgs_per_sync, positive=True)
        return n * B / self.time(B, n, sharp=sharp)

    def latency_per_message(self, nbytes, msgs_per_sync: int = 1) -> np.ndarray:
        """Effective per-message latency ``T / n`` (the paper's Fig. 7 metric:
        more messages per sync => lower effective latency)."""
        return self.time(nbytes, msgs_per_sync) / msgs_per_sync

    # -- ceilings ----------------------------------------------------------------

    @property
    def peak_bandwidth(self) -> float:
        """The horizontal ceiling, ``1/G`` (bytes/s)."""
        return self.params.peak_bandwidth

    def saturation_bandwidth(self, nbytes) -> np.ndarray:
        """Large-``n`` limit: ``B / max(o, g, B*G)`` — what infinite message
        concurrency buys; the gap/overhead term is the part that can never
        be overlapped."""
        B, _ = _checked(nbytes)
        return B / self._spacing(B)

    def knee_size(self, msgs_per_sync: int = 1) -> float:
        """Message size where the diagonal (latency) ceiling of the sharp
        model meets the horizontal (bandwidth) ceiling:
        ``n * B * G = max(n*o, n*g, L + o_sync)``."""
        n = int(_checked(0, msgs_per_sync)[1])
        p = self.params
        return max(n * p.o, n * p.g, p.L + p.o_sync) / (n * p.G)

    # -- msg/sync implications -----------------------------------------------------

    def overlap_gain(self, nbytes, msgs_per_sync: int) -> np.ndarray:
        """Bandwidth improvement over serialized messages:
        ``BW(B, n) / BW(B, 1)`` — the paper's "at maximum you can get 10x
        improvement by sending one hundred messages per sync when L >> G"."""
        return self.bandwidth(nbytes, msgs_per_sync) / self.bandwidth(nbytes, 1)

    def required_msgs_per_sync(
        self, nbytes: float, target_fraction: float
    ) -> int | None:
        """Smallest msg/sync reaching ``target_fraction`` of the large-n
        limit bandwidth for this message size — the paper's "how much
        optimization room do I have by overlapping messages", inverted.

        Returns None when the target exceeds what any concurrency can buy
        (i.e. ``target_fraction`` of peak is above the saturation
        bandwidth ``B / max(o, g, B*G)``).
        """
        if not 0 < target_fraction <= 1:
            raise ValueError(
                f"target_fraction must be in (0, 1], got {target_fraction}"
            )
        _checked(nbytes, positive=True)
        target = target_fraction * float(self.saturation_bandwidth(nbytes))
        if float(self.bandwidth(nbytes, 1)) >= target:
            return 1
        # T(n) = n*spacing + C with C the fixed terms, so n solves directly.
        p = self.params
        spacing = float(self._spacing(nbytes))
        fixed = p.o - spacing + nbytes * p.G + p.L + p.o_sync
        # n*B/ (n*spacing + fixed) >= target
        denom = nbytes - target * spacing
        if denom <= 0:
            return None
        n = int(np.ceil(target * fixed / denom))
        return max(n, 1)

    def max_overlap_gain(self, nbytes) -> np.ndarray:
        """The ``n -> inf`` limit of :meth:`overlap_gain`."""
        B, _ = _checked(nbytes)
        p = self.params
        return (p.o + B * p.G + p.L + p.o_sync) / self._spacing(B)

    def bound(self, nbytes: float, msgs_per_sync: int = 1) -> dict[str, float]:
        """Point query used by the Fig. 6 workload-bound plots."""
        bw = float(self.bandwidth(nbytes, msgs_per_sync))
        return {
            "message_size": float(nbytes),
            "msgs_per_sync": float(msgs_per_sync),
            "bound_bandwidth": bw,
            "bound_time_per_sync": float(self.time(nbytes, msgs_per_sync)),
            "bound_latency_per_message": float(
                self.latency_per_message(nbytes, msgs_per_sync)
            ),
            "peak_bandwidth": self.peak_bandwidth,
            "fraction_of_peak": bw / self.peak_bandwidth,
        }
