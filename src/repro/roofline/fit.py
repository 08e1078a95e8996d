"""Fitting LogGP parameters from measured (size, msg/sync, bandwidth) data.

The paper's diagonal "latency" ceilings are *inferred from empirical data*;
this module does the same inference: given sweep measurements (from the
simulator, or in principle a real machine), recover ``(L, o, g, G)`` by
least squares on log-bandwidth.

Log space matters: bandwidths span four orders of magnitude across a sweep,
and a linear-space fit would only see the large-message points.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.net.loggp import LogGPParams
from repro.roofline.model import MessageRoofline

__all__ = ["FloodSample", "fit_loggp", "FitResult"]


@dataclass(frozen=True)
class FloodSample:
    """One sweep measurement: a batch of ``msgs_per_sync`` messages of
    ``nbytes`` each achieved ``bandwidth`` bytes/s."""

    nbytes: float
    msgs_per_sync: int
    bandwidth: float


@dataclass(frozen=True)
class FitResult:
    """Fitted parameters plus goodness-of-fit diagnostics."""

    params: LogGPParams
    residual_rms: float  # RMS of log-space residuals
    n_samples: int


def fit_loggp(samples: Sequence[FloodSample]) -> FitResult:
    """Fit the rounded Message Roofline's ``(L, o, g, G)`` to measurements.

    The residual is :meth:`MessageRoofline.bandwidth` itself, so the fit
    reads the formula the roofline draws (with ``o_sync = 0``).

    Args:
        samples: at least four measurements spanning several message sizes
            and msg/sync values (a degenerate sweep cannot identify four
            parameters).

    Returns:
        A :class:`FitResult`; ``result.params`` plugs straight into
        :class:`~repro.roofline.model.MessageRoofline`.
    """
    samples = list(samples)
    if len(samples) < 4:
        raise ValueError(f"need >= 4 samples to fit 4 parameters, got {len(samples)}")
    B = np.array([s.nbytes for s in samples], dtype=float)
    n = np.array([s.msgs_per_sync for s in samples], dtype=float)
    bw = np.array([s.bandwidth for s in samples], dtype=float)
    if np.any(B <= 0) or np.any(n < 1) or np.any(bw <= 0):
        raise ValueError("samples must have positive sizes/bandwidths and n >= 1")

    bw_peak0 = float(bw.max()) * 1.2
    # Initial guess: latency from the smallest single-message sample.
    n1 = (n == n.min()) & (B == B.min())
    t_small = float((B[n1] * n[n1] / bw[n1]).mean()) if np.any(n1) else 3e-6
    lower = np.array([1e-9, 1e-9, 1e-9, 1e-13])
    upper = np.array([1e-2, 1e-2, 1e-2, 1e-6])

    def residuals(theta: np.ndarray) -> np.ndarray:
        model = MessageRoofline(LogGPParams(*theta)).bandwidth(B, n)
        return np.log(model) - np.log(bw)

    # The surface has local minima (L trades against o around the n=1
    # points), so run a small multi-start over latency/overhead splits.
    starts = []
    for l_frac, o_frac in ((0.7, 0.1), (0.5, 0.25), (0.3, 0.5), (0.85, 0.05)):
        starts.append(
            np.array(
                [l_frac * t_small, o_frac * t_small, 0.1 * t_small, 1.0 / bw_peak0]
            )
        )
    from scipy.optimize import least_squares

    best = None
    for theta0 in starts:
        sol = least_squares(
            residuals,
            np.clip(theta0, lower, upper),
            bounds=(lower, upper),
            method="trf",
            xtol=1e-14,
            ftol=1e-14,
        )
        if best is None or sol.cost < best.cost:
            best = sol
    L, o, g, G = best.x
    rms = float(np.sqrt(np.mean(best.fun**2)))
    return FitResult(
        params=LogGPParams(L=float(L), o=float(o), g=float(g), G=float(G)),
        residual_rms=rms,
        n_samples=len(samples),
    )
