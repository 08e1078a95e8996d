"""Fitting LogGP parameters from measured (size, msg/sync, bandwidth) data.

The paper's diagonal "latency" ceilings are *inferred from empirical data*;
this module does the same inference: given sweep measurements (from the
simulator, or in principle a real machine), recover ``(L, o, g, G)`` by
least squares on log-bandwidth (Levenberg–Marquardt in numpy).

Log space matters: bandwidths span four orders of magnitude across a sweep,
and a linear-space fit would only see the large-message points.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.net.loggp import LogGPParams
from repro.roofline.model import MessageRoofline
from repro.util.validation import check_count, check_positive

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
    reads the formula the roofline draws (with ``o_sync = 0``).  The data
    identifies ``L + o``, the spacing ``max(o, g)`` and ``G``, not the split.

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
    for s in samples:
        check_positive("fit sample nbytes", s.nbytes)
        check_positive("fit sample bandwidth", s.bandwidth)
        check_count("fit sample msgs_per_sync", s.msgs_per_sync)
    B = np.array([s.nbytes for s in samples], dtype=float)
    n = np.array([s.msgs_per_sync for s in samples], dtype=float)
    bw = np.array([s.bandwidth for s in samples], dtype=float)

    bw_peak0 = float(bw.max()) * 1.2
    # Initial guess: latency from the smallest single-message sample.
    n1 = (n == n.min()) & (B == B.min())
    t_small = float((B[n1] * n[n1] / bw[n1]).mean()) if np.any(n1) else 3e-6
    lower = np.log([1e-9, 1e-9, 1e-9, 1e-13])
    upper = np.log([1e-2, 1e-2, 1e-2, 1e-6])

    def residuals(x: np.ndarray) -> np.ndarray:
        model = MessageRoofline(LogGPParams(*np.exp(x))).bandwidth(B, n)
        return np.log(model) - np.log(bw)

    # The surface has local minima (L trades against o around the n=1
    # points), so run a small multi-start over latency/overhead splits.
    fits = []
    for l_frac, o_frac in ((0.7, 0.1), (0.5, 0.25), (0.3, 0.5), (0.85, 0.05)):
        theta0 = [l_frac * t_small, o_frac * t_small, 0.1 * t_small, 1.0 / bw_peak0]
        x0 = np.clip(np.log(theta0), lower, upper)
        fits.append(_levenberg_marquardt(residuals, x0, lower, upper))
    x, r = min(fits, key=lambda fit: float(fit[1] @ fit[1]))
    L, o, g, G = np.exp(x)
    return FitResult(
        params=LogGPParams(L=float(L), o=float(o), g=float(g), G=float(G)),
        residual_rms=float(np.sqrt(np.mean(r**2))),
        n_samples=len(samples),
    )


def _levenberg_marquardt(residuals, x, lower, upper):
    """Damped Gauss–Newton from ``x`` inside ``[lower, upper]``; returns the
    last accepted ``(x, residuals(x))``.  ``x`` is the log of the parameters,
    so the difference step ``h`` and the damping ``lam * I`` are relative to
    each; a parameter the data cannot see has a zero Jacobian column."""
    h = 1e-7  # forward-difference step in log space
    r, lam, eye = residuals(x), 1e-2, np.eye(len(x))
    for _ in range(500):
        J = np.column_stack([(residuals(x + h * e) - r) / h for e in eye])
        cost = r @ r
        while True:
            x_new = np.clip(x - np.linalg.solve(J.T @ J + lam * eye, J.T @ r), lower, upper)
            r_new = residuals(x_new)
            if r_new @ r_new < cost:
                break
            if (lam := lam * 10) > 1e12:  # no downhill step left
                return x, r
        x, r, lam = x_new, r_new, max(lam / 10, 1e-12)
        if cost - r @ r <= 1e-15 * cost:
            break
    return x, r
