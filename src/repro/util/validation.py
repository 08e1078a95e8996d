"""Argument-validation helpers shared across the library.

These raise early, with messages that name the offending parameter, so that a
mis-configured machine model or workload fails at construction time rather
than deep inside a simulation run.
"""

from __future__ import annotations

import math

__all__ = ["check_positive", "check_non_negative", "check_in_range"]


def check_positive(name: str, value: float) -> float:
    """Require ``value > 0`` and finite."""
    if not math.isfinite(value) or value <= 0:
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")
    return value


def check_non_negative(name: str, value: float) -> float:
    """Require ``value >= 0`` and finite."""
    if not math.isfinite(value) or value < 0:
        raise ValueError(f"{name} must be a non-negative finite number, got {value!r}")
    return value


def check_in_range(name: str, value: float, lo: float, hi: float) -> float:
    """Require ``lo <= value <= hi``."""
    if not lo <= value <= hi:
        raise ValueError(f"{name} must be in [{lo}, {hi}], got {value!r}")
    return value
