"""Metrics registry: counters, gauges, fixed-bucket histograms, timelines.

The registry is deliberately small and allocation-light — instruments are
created once (at wiring time) and hot paths touch plain attributes:

* :class:`Counter` — monotonically increasing value (messages, bytes);
* :class:`Gauge` — last-set value (queue depth, per-link totals);
* :class:`Histogram` — fixed bucket edges chosen at creation; ``observe``
  is a bisect + increment (injection-queue wait distributions);
* :class:`Timeline` — values accumulated into fixed-width time bins
  (per-link bytes over time → achieved-bandwidth timelines).

``snapshot()`` flattens everything into one ``dict[str, value]`` for
embedding in experiment reports.  *Collectors* are callables registered by
subsystems that prefer to derive metrics at snapshot time from state they
already keep (per-link byte counters, per-rank :class:`OpCounter`\\ s) —
their outputs are sum-merged on key collision so several jobs feeding one
registry aggregate instead of clobbering each other.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable, Sequence

from repro.util.validation import check_in_range, check_positive

__all__ = ["Counter", "Gauge", "Histogram", "Timeline", "MetricsRegistry"]


class Counter:
    """Monotonic counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease ({amount})")
        self.value += amount


class Gauge:
    """Last-written value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-bucket histogram: ``len(edges) + 1`` buckets.

    ``counts[i]`` counts observations ``x <= edges[i]``; the final bucket
    is the overflow (``x > edges[-1]``).  Edges must be strictly
    increasing.  Tracks count/sum/min/max alongside the buckets.
    """

    __slots__ = ("name", "edges", "counts", "count", "sum", "min", "max")

    def __init__(self, name: str, edges: Sequence[float]):
        edges = tuple(float(e) for e in edges)
        if not edges:
            raise ValueError(f"histogram {name!r} needs at least one bucket edge")
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError(f"histogram {name!r} edges must strictly increase")
        self.name = name
        self.edges = edges
        self.counts = [0] * (len(edges) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, x: float) -> None:
        self.counts[bisect_left(self.edges, x)] += 1
        self.count += 1
        self.sum += x
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else float("nan")

    def quantile(self, p: float) -> float:
        """Estimated p-quantile (``p`` in [0, 1]) from the bucket counts.

        Linear interpolation inside the bucket holding the target rank,
        with the tracked ``min``/``max`` bounding the open first/overflow
        buckets — so p99/p999 tail estimates stay finite and within the
        observed range.  NaN with no observations.
        """
        check_in_range("quantile p", p, 0, 1)
        if self.count == 0:
            return float("nan")
        target = p * self.count
        cum = 0.0
        for i, c in enumerate(self.counts):
            if c == 0:
                continue
            if cum + c >= target:
                lo = self.edges[i - 1] if i >= 1 else self.min
                hi = self.edges[i] if i < len(self.edges) else self.max
                lo = max(lo, self.min)
                hi = min(hi, self.max)
                if hi < lo:
                    hi = lo
                frac = max(0.0, target - cum) / c
                return lo + frac * (hi - lo)
            cum += c
        return self.max

    def snapshot(self) -> dict[str, float]:
        out: dict[str, float] = {
            f"{self.name}.count": self.count,
            f"{self.name}.sum": self.sum,
        }
        if self.count:
            out[f"{self.name}.min"] = self.min
            out[f"{self.name}.max"] = self.max
            out[f"{self.name}.mean"] = self.mean
            out[f"{self.name}.p99"] = self.quantile(0.99)
            out[f"{self.name}.p999"] = self.quantile(0.999)
        for edge, c in zip(self.edges, self.counts):
            out[f"{self.name}.le_{edge:g}"] = c
        out[f"{self.name}.le_inf"] = self.counts[-1]
        return out


class Timeline:
    """Values accumulated into fixed-width time bins.

    ``observe(t, v)`` adds ``v`` to the bin containing ``t``; ``series()``
    returns ``[(bin_center_seconds, total), ...]`` in time order.  Dividing
    a bytes timeline by ``bin_width`` gives achieved bytes/s per window.
    """

    __slots__ = ("name", "bin_width", "bins")

    def __init__(self, name: str, bin_width: float):
        check_positive(f"timeline {name!r} bin_width", bin_width)
        self.name = name
        self.bin_width = float(bin_width)
        self.bins: dict[int, float] = {}

    def observe(self, t: float, value: float) -> None:
        key = int(t // self.bin_width)
        self.bins[key] = self.bins.get(key, 0.0) + value

    def series(self) -> list[tuple[float, float]]:
        w = self.bin_width
        return [((k + 0.5) * w, v) for k, v in sorted(self.bins.items())]


class MetricsRegistry:
    """Named instruments plus snapshot-time collectors (see module doc)."""

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram | Timeline] = {}
        self._collectors: list[Callable[[], dict[str, float]]] = []

    def _get_or_create(self, name: str, cls, factory):
        inst = self._instruments.get(name)
        if inst is not None:
            if not isinstance(inst, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(inst).__name__}, not {cls.__name__}"
                )
            return inst
        inst = factory()
        self._instruments[name] = inst
        return inst

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge, lambda: Gauge(name))

    def histogram(self, name: str, edges: Sequence[float]) -> Histogram:
        return self._get_or_create(name, Histogram, lambda: Histogram(name, edges))

    def timeline(self, name: str, bin_width: float) -> Timeline:
        return self._get_or_create(name, Timeline, lambda: Timeline(name, bin_width))

    def register_collector(self, fn: Callable[[], dict[str, float]]) -> None:
        """Register a snapshot-time producer of ``{flat_key: value}``.

        Collector outputs are sum-merged on key collision, so e.g. several
        jobs on the same machine aggregate their per-link byte counts.
        """
        self._collectors.append(fn)

    def snapshot(self) -> dict[str, object]:
        """Flatten every instrument and collector into one dict."""
        out: dict[str, object] = {}
        for name, inst in self._instruments.items():
            if isinstance(inst, (Counter, Gauge)):
                out[name] = inst.value
            elif isinstance(inst, Histogram):
                out.update(inst.snapshot())
            else:
                out[name] = [[t, v] for t, v in inst.series()]
        for fn in self._collectors:
            for key, value in fn().items():
                prev = out.get(key)
                out[key] = value if prev is None else prev + value
        return out
