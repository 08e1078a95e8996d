"""Unit helpers for bytes, bandwidth, and time.

All simulator-internal quantities use SI base units: **seconds** for time and
**bytes** for data.  Bandwidths are bytes/second.  The helpers here exist so
that machine descriptions and reports can speak the paper's language
("36 GB/s/direction", "131 KB", "3.3 us") without sprinkling magic factors
through the code.

The paper (and vendor datasheets) use decimal giga (1 GB/s = 1e9 B/s) for link
bandwidths but power-of-two sizes for message sizes (2^16 bytes).  We keep the
two conventions distinct: :func:`GB` / :func:`GBps` are decimal while
:func:`KiB` / :func:`MiB` are binary.
"""

from __future__ import annotations

import math

__all__ = [
    "KB",
    "MB",
    "GB",
    "KiB",
    "MiB",
    "GBps",
    "us",
    "ns",
    "ms",
    "fmt_bytes",
    "fmt_bw",
    "fmt_time",
    "parse_size",
]

# ---------------------------------------------------------------------------
# Constructors: value-in-unit -> base unit
# ---------------------------------------------------------------------------


def KB(x: float) -> float:
    """Decimal kilobytes to bytes."""
    return x * 1e3


def MB(x: float) -> float:
    """Decimal megabytes to bytes."""
    return x * 1e6


def GB(x: float) -> float:
    """Decimal gigabytes to bytes."""
    return x * 1e9


def KiB(x: float) -> float:
    """Binary kibibytes to bytes."""
    return x * 1024.0


def MiB(x: float) -> float:
    """Binary mebibytes to bytes."""
    return x * 1024.0**2


def GBps(x: float) -> float:
    """GB/s to bytes/s (decimal, matching vendor link specs)."""
    return x * 1e9


def us(x: float) -> float:
    """Microseconds to seconds."""
    return x * 1e-6


def ns(x: float) -> float:
    """Nanoseconds to seconds."""
    return x * 1e-9


def ms(x: float) -> float:
    """Milliseconds to seconds."""
    return x * 1e-3


# ---------------------------------------------------------------------------
# Formatting: base unit -> human string
# ---------------------------------------------------------------------------

_BYTE_STEPS = [(1024.0**3, "GiB"), (1024.0**2, "MiB"), (1024.0, "KiB")]


def fmt_bytes(nbytes: float) -> str:
    """Render a byte count with a binary suffix (``131072 -> '128 KiB'``)."""
    if nbytes < 0:
        raise ValueError(f"negative byte count: {nbytes}")
    for factor, suffix in _BYTE_STEPS:
        if nbytes >= factor:
            value = nbytes / factor
            if value == int(value):
                return f"{int(value)} {suffix}"
            return f"{value:.2f} {suffix}"
    if nbytes == int(nbytes):
        return f"{int(nbytes)} B"
    return f"{nbytes:.2f} B"


def fmt_bw(bytes_per_s: float) -> str:
    """Render a bandwidth in decimal GB/s or MB/s (paper convention)."""
    if bytes_per_s < 0:
        raise ValueError(f"negative bandwidth: {bytes_per_s}")
    if bytes_per_s >= 1e9:
        return f"{bytes_per_s / 1e9:.2f} GB/s"
    if bytes_per_s >= 1e6:
        return f"{bytes_per_s / 1e6:.2f} MB/s"
    if bytes_per_s >= 1e3:
        return f"{bytes_per_s / 1e3:.2f} KB/s"
    return f"{bytes_per_s:.2f} B/s"


def fmt_time(seconds: float) -> str:
    """Render a duration at an appropriate scale (``3.3e-6 -> '3.30 us'``)."""
    if seconds < 0:
        raise ValueError(f"negative duration: {seconds}")
    if seconds == 0:
        return "0 s"
    if seconds >= 1.0:
        return f"{seconds:.3f} s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f} ms"
    if seconds >= 1e-6:
        return f"{seconds * 1e6:.2f} us"
    return f"{seconds * 1e9:.2f} ns"


_SIZE_SUFFIXES = {
    "b": 1.0,
    "kb": 1e3,
    "mb": 1e6,
    "gb": 1e9,
    "kib": 1024.0,
    "mib": 1024.0**2,
    "gib": 1024.0**3,
    "k": 1024.0,
    "m": 1024.0**2,
    "g": 1024.0**3,
}


def parse_size(text: str) -> int:
    """Parse a human size string (``'128KiB'``, ``'4 MB'``, ``'64'``) to bytes.

    Bare ``K``/``M``/``G`` suffixes are binary, matching common benchmark CLI
    conventions (the paper's "131KB" threshold is 2**17 = 128 KiB).
    """
    s = text.strip().lower()
    if not s:
        raise ValueError("empty size string")
    i = len(s)
    while i > 0 and not (s[i - 1].isdigit() or s[i - 1] == "."):
        i -= 1
    num, suffix = s[:i].strip(), s[i:].strip()
    if not num:
        raise ValueError(f"no numeric part in size string: {text!r}")
    if suffix and suffix not in _SIZE_SUFFIXES:
        raise ValueError(f"unknown size suffix {suffix!r} in {text!r}")
    value = float(num) * (_SIZE_SUFFIXES[suffix] if suffix else 1.0)
    if not math.isfinite(value) or value < 0:
        raise ValueError(f"invalid size: {text!r}")
    return int(round(value))
