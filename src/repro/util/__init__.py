"""Shared utilities: units, table rendering, validation."""

from repro.util.units import (
    KB,
    MB,
    GB,
    KiB,
    MiB,
    GBps,
    us,
    ns,
    ms,
    fmt_bytes,
    fmt_bw,
    fmt_time,
    parse_size,
)
from repro.util.tables import Table, format_table
from repro.util.validation import (
    check_count,
    check_in_range,
    check_non_negative,
    check_positive,
)

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
    "Table",
    "format_table",
    "check_count",
    "check_in_range",
    "check_non_negative",
    "check_positive",
]
