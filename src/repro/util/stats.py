"""Small statistics helpers used by the experiment harness and roofline fits."""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

__all__ = ["Summary", "summarize", "percentile", "speedup"]


@dataclass(frozen=True)
class Summary:
    """Five-number-plus summary of a sample of measurements."""

    n: int
    mean: float
    std: float
    minimum: float
    p50: float
    p95: float
    maximum: float

    def as_dict(self) -> dict[str, float]:
        return {
            "n": self.n,
            "mean": self.mean,
            "std": self.std,
            "min": self.minimum,
            "p50": self.p50,
            "p95": self.p95,
            "max": self.maximum,
        }


def summarize(samples: Sequence[float]) -> Summary:
    """Summarise a non-empty sequence of measurements."""
    if len(samples) == 0:
        raise ValueError("cannot summarize an empty sample")
    arr = np.asarray(samples, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("samples contain non-finite values")
    return Summary(
        n=int(arr.size),
        mean=float(arr.mean()),
        std=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        minimum=float(arr.min()),
        p50=float(np.percentile(arr, 50)),
        p95=float(np.percentile(arr, 95)),
        maximum=float(arr.max()),
    )


def percentile(values: Sequence[float], q: float) -> float:
    if not 0 <= q <= 100:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("percentile of empty sequence")
    return float(np.percentile(arr, q))


def speedup(baseline: float, contender: float) -> float:
    """``baseline / contender``: >1 means the contender is faster."""
    if baseline <= 0 or contender <= 0:
        raise ValueError("speedup requires positive times")
    return baseline / contender
