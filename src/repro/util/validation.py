"""Argument-validation helpers shared across the library.

Every count and size a caller passes is judged here, once, so that a
mis-configured machine model or workload fails at construction time with
a message naming the argument and its value, rather than deep inside a
simulation run.  ``nan`` fails every check (a bare ``value < low`` lets
it through); ``error`` keeps a caller's own exception class.
"""

from __future__ import annotations

import math
from numbers import Integral

__all__ = ["check_count", "check_positive", "check_non_negative", "check_in_range"]


def check_count(name: str, value, low: int = 1, error=ValueError):
    """Require an integer ``value >= low``; ``nan``, ``inf``, fractions and
    booleans fail."""
    # ``type(value) is int`` first: an ABC ``isinstance`` costs about 1 us.
    whole = type(value) is int or (isinstance(value, Integral) and not isinstance(value, bool))
    if not whole or value < low:
        raise error(f"{name} must be an integer >= {low}, got {value}")
    return value


def check_positive(name: str, value: float) -> float:
    """Require ``value > 0`` and finite."""
    if not math.isfinite(value) or value <= 0:
        raise ValueError(f"{name} must be finite and > 0, got {value}")
    return value


def check_non_negative(name: str, value: float, error=ValueError) -> float:
    """Require ``value >= 0`` and finite."""
    if not math.isfinite(value) or value < 0:
        raise error(f"{name} must be finite and >= 0, got {value}")
    return value


def check_in_range(name: str, value: float, lo: float, hi: float) -> float:
    """Require ``lo <= value <= hi``."""
    if not lo <= value <= hi:
        raise ValueError(f"{name} must be in [{lo}, {hi}], got {value!r}")
    return value
