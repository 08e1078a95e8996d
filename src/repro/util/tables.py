"""Plain-text table rendering for experiment reports.

Every benchmark in ``benchmarks/`` prints its result as an ASCII table in the
same row/column arrangement as the corresponding table or figure legend in
the paper, so ``pytest benchmarks/ --benchmark-only`` output can be compared
against the paper side by side without plotting.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import Any

__all__ = ["format_table", "Table"]


def _cell(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e5 or abs(value) < 1e-3:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Any]],
    title: str | None = None,
) -> str:
    """Render ``rows`` under ``headers`` as a boxed monospace table."""
    str_rows = [[_cell(v) for v in row] for row in rows]
    ncol = len(headers)
    for r in str_rows:
        if len(r) != ncol:
            raise ValueError(f"row has {len(r)} cells, expected {ncol}: {r}")
    widths = [len(h) for h in headers]
    for r in str_rows:
        for i, cell in enumerate(r):
            widths[i] = max(widths[i], len(cell))

    def fmt_row(cells: Sequence[str]) -> str:
        return "| " + " | ".join(c.ljust(widths[i]) for i, c in enumerate(cells)) + " |"

    sep = "+-" + "-+-".join("-" * w for w in widths) + "-+"
    lines = []
    if title:
        lines.append(title)
    lines.append(sep)
    lines.append(fmt_row(list(headers)))
    lines.append(sep)
    lines.extend(fmt_row(r) for r in str_rows)
    lines.append(sep)
    return "\n".join(lines)


class Table:
    """Incrementally built table: ``add_row`` then ``render``/``rows``."""

    def __init__(self, headers: Sequence[str], title: str | None = None):
        self.headers = list(headers)
        self.title = title
        self._rows: list[list[Any]] = []

    def add_row(self, *cells: Any) -> None:
        if len(cells) != len(self.headers):
            raise ValueError(
                f"expected {len(self.headers)} cells, got {len(cells)}: {cells}"
            )
        self._rows.append(list(cells))

    @property
    def rows(self) -> list[list[Any]]:
        return [list(r) for r in self._rows]

    def render(self) -> str:
        return format_table(self.headers, self._rows, title=self.title)

    def __len__(self) -> int:
        return len(self._rows)

    def __str__(self) -> str:
        return self.render()
