"""Message-splitting analysis (paper Fig. 10 and §V "Discussion").

Fig. 10 is a Message Roofline *variant*: the x-axis is message **volume**
``V = k * B`` (number of messages times per-message size), and the question
is whether sending a volume as ``k`` concurrent smaller messages beats one
big message.  On Perlmutter GPUs the answer is yes for V > 131 KB, by up to
2.9x, because a GPU pair is connected by a *group* of NVLink ports: one
message streams over a single port while ``k`` messages stripe across ``k``
ports, limited by the device's aggregate injection rate.

The analytic model here mirrors the fabric simulation
(``repro.net``): chunk ``i`` (0-based) leaves the injection engine at
``i * (V/k) * G_inj``, then streams over its own sub-channel::

    T(k) = k*o + (k-1) * (V/k) * G_inj + L + (V/k) * G_chan

with ``G_chan`` the per-byte time of one sub-channel and ``G_inj`` of the
injection engine.  ``k = 1`` recovers the single-message time
``o + L + V * G_chan``.  For ``channels`` available sub-channels the model
caps striping at that width.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.transport import SHMEM, get_backend
from repro.transport.registry import op_seconds
from repro.util.validation import check_count, check_non_negative, check_positive

__all__ = ["SplitModel"]


@dataclass(frozen=True)
class SplitModel:
    """Analytic split-message timing for a multi-channel connection.

    Attributes:
        o: per-message software issue overhead (seconds).
        L: one-way wire latency (seconds).
        channel_bandwidth: bytes/s of one sub-channel.
        injection_bandwidth: bytes/s of the endpoint's injection engine.
        channels: number of sub-channels available to stripe across.
    """

    o: float
    L: float
    channel_bandwidth: float
    injection_bandwidth: float
    channels: int = 4
    # Receiver-side wake-and-recheck cost per extra chunk: the receiver's
    # wait_until_all re-scans its signals at each chunk arrival.
    wait_poll: float = 0.0

    def __post_init__(self) -> None:
        check_non_negative("o", self.o)
        check_non_negative("L", self.L)
        check_positive("channel_bandwidth", self.channel_bandwidth)
        check_positive("injection_bandwidth", self.injection_bandwidth)
        check_non_negative("wait_poll", self.wait_poll)
        check_count("channels", self.channels)

    @classmethod
    def from_machine(cls, machine, src: str, dst: str) -> "SplitModel":
        """Build from a machine's topology and its NVSHMEM profile: ``o`` is
        the declared per-message op of a shmem batch (``put_signal``)."""
        link = machine.topology.link_params(src, dst)
        inj = machine.topology.injection.get(src)
        backend = get_backend(SHMEM)
        costs = backend.costs(machine)
        return cls(
            o=op_seconds(costs, backend.ops("batch")[0]),
            L=link.latency,
            channel_bandwidth=link.channel_bandwidth,
            injection_bandwidth=inj.bandwidth if inj else float("inf"),
            channels=link.channels,
            wait_poll=costs.wait_poll,
        )

    def time(self, volume, k: int = 1) -> np.ndarray:
        """Time to move ``volume`` bytes as ``k`` concurrent messages."""
        V = np.asarray(volume, dtype=float)
        if not np.all(V >= 0):  # a nan volume fails too
            raise ValueError("volume must be >= 0")
        check_count("k", k)
        width = min(k, self.channels)
        chunk = V / k
        g_inj = 1.0 / self.injection_bandwidth
        g_chan = 1.0 / self.channel_bandwidth
        if k == 1:
            return self.o + self.L + V * g_chan
        # Chunks are injected back to back; with stripe width < k, a chunk
        # beyond the width also waits for its sub-channel, so the effective
        # serial term is the larger of injection spacing and channel reuse.
        inj_spacing = chunk * g_inj
        chan_serial = np.where(
            k > width, (np.ceil(k / width) - 1) * chunk * g_chan, 0.0
        )
        serial = np.maximum((k - 1) * inj_spacing, chan_serial)
        return (
            k * self.o
            + serial
            + self.L
            + chunk * g_chan
            + (k - 1) * self.wait_poll
        )

    def bandwidth(self, volume, k: int = 1) -> np.ndarray:
        V = np.asarray(volume, dtype=float)
        if np.any(V <= 0):
            raise ValueError("bandwidth requires positive volume")
        return V / self.time(V, k)

    def speedup(self, volume, k: int = 4) -> np.ndarray:
        """``T(1) / T(k)`` — the paper's Fig. 10 y-axis-equivalent."""
        return self.time(volume, 1) / self.time(volume, k)

    def asymptotic_speedup(self, k: int = 4) -> float:
        """Large-volume limit of :meth:`speedup` (the 'up to' figure).

        With injection spacing dominating: ``T(k) -> V*((k-1)/k*G_inj +
        G_chan/k)`` against ``T(1) -> V*G_chan``.
        """
        width = min(check_count("k", k), self.channels)
        g_inj = 1.0 / self.injection_bandwidth
        g_chan = 1.0 / self.channel_bandwidth
        per_byte_split = max(
            (k - 1) / k * g_inj, (np.ceil(k / width) - 1) / k * g_chan
        ) + g_chan / k
        return float(g_chan / per_byte_split)

    def crossover_volume(self, k: int = 4, *, threshold: float = 1.0) -> float:
        """Smallest volume where splitting into ``k`` beats one message by
        ``threshold`` (paper: ~131 KB for speedup > 1 on Perlmutter GPUs).

        Found by bisection on the monotone speedup curve.
        """
        lo, hi = 8.0, 1 << 40
        if float(self.speedup(hi, k)) <= threshold:
            return float("inf")
        if float(self.speedup(lo, k)) > threshold:
            return lo
        for _ in range(200):
            mid = np.sqrt(lo * hi)  # geometric bisection on a log scale
            if float(self.speedup(mid, k)) > threshold:
                hi = mid
            else:
                lo = mid
            if hi / lo < 1.0001:
                break
        return float(hi)
