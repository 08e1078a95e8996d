"""2D process-grid decomposition for the stencil workload.

The paper runs the stencil on a 2D process grid (``srun ... ./stencil 16384
1 1000 2 2`` — grid size, energy, iterations, and the x/y process
decomposition), scaling 4..128 ranks so the per-rank halo message shrinks
from 2^16 to 2^13 bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["ProcessGrid", "DIRECTIONS"]

# Direction name -> (dx, dy) in process-grid coordinates, in exchange
# order.  The stencil's only direction table: opposites, strips, their
# lengths and the global-boundary sides all follow from an offset's axis
# and sign.
DIRECTIONS: dict[str, tuple[int, int]] = {
    "west": (-1, 0),
    "east": (1, 0),
    "north": (0, -1),
    "south": (0, 1),
}


@dataclass(frozen=True)
class ProcessGrid:
    """A ``px`` x ``py`` grid of ranks, row-major (x fastest)."""

    px: int
    py: int

    def __post_init__(self) -> None:
        if self.px < 1 or self.py < 1:
            raise ValueError(f"process grid must be positive, got {self.px}x{self.py}")

    @classmethod
    def square_ish(cls, nranks: int) -> "ProcessGrid":
        """The most-square factorisation with ``px >= py`` (paper's shapes:
        4 -> 2x2, 8 -> 4x2, ..., 128 -> 16x8)."""
        if nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {nranks}")
        py = int(math.isqrt(nranks))
        while nranks % py:
            py -= 1
        return cls(px=nranks // py, py=py)

    @property
    def nranks(self) -> int:
        return self.px * self.py

    def coords(self, rank: int) -> tuple[int, int]:
        if not 0 <= rank < self.nranks:
            raise ValueError(f"rank {rank} out of range for {self.px}x{self.py} grid")
        return rank % self.px, rank // self.px

    def rank_of(self, ix: int, iy: int) -> int | None:
        """Rank at grid coords, or None outside the grid (non-periodic)."""
        if 0 <= ix < self.px and 0 <= iy < self.py:
            return iy * self.px + ix
        return None

    def neighbors(self, rank: int) -> dict[str, int]:
        """Existing neighbors only: boundary ranks have fewer than four."""
        ix, iy = self.coords(rank)
        out = {}
        for name, (dx, dy) in DIRECTIONS.items():
            nb = self.rank_of(ix + dx, iy + dy)
            if nb is not None:
                out[name] = nb
        return out

    @staticmethod
    def opposite(direction: str) -> str:
        """The direction whose offset is ``direction``'s negated."""
        dx, dy = DIRECTIONS[direction]
        return next(d for d, off in DIRECTIONS.items() if off == (-dx, -dy))

    @staticmethod
    def _split(n: int, parts: int, idx: int) -> tuple[int, int]:
        """Start and length of chunk ``idx`` when ``n`` is split into
        ``parts`` near-equal chunks (the first ``n % parts`` chunks get one
        extra element — the paper's 3x2 decomposition of 16384 is uneven)."""
        base, rem = divmod(n, parts)
        start = idx * base + min(idx, rem)
        length = base + (1 if idx < rem else 0)
        return start, length

    def block(self, rank: int, nx: int, ny: int) -> tuple[slice, slice]:
        """This rank's owned index range of the global ``ny`` x ``nx`` grid
        (row = y, col = x), as ``(rows, cols)`` slices."""
        if nx < self.px or ny < self.py:
            raise ValueError(
                f"grid {nx}x{ny} smaller than process grid {self.px}x{self.py}"
            )
        ix, iy = self.coords(rank)
        y0, by = self._split(ny, self.py, iy)
        x0, bx = self._split(nx, self.px, ix)
        return slice(y0, y0 + by), slice(x0, x0 + bx)

    def block_shape(self, rank: int, nx: int, ny: int) -> tuple[int, int]:
        """(bx, by): this rank's owned columns and rows."""
        rows, cols = self.block(rank, nx, ny)
        return cols.stop - cols.start, rows.stop - rows.start

    def halo_bytes(self, nx: int, ny: int, itemsize: int = 8) -> dict[str, int]:
        """Per-direction halo message sizes in bytes (largest block): a
        strip toward an x neighbour is a column, toward a y neighbour a row."""
        bx = -(-nx // self.px)  # ceil
        by = -(-ny // self.py)
        return {d: (by if dx else bx) * itemsize for d, (dx, _) in DIRECTIONS.items()}
