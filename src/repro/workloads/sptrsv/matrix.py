"""Synthetic supernodal lower-triangular matrices for SpTRSV.

The paper solves ``L x = b`` where ``L`` comes from SuperLU_DIST factoring an
M3D-C1 fusion matrix (126K rows, 1e8 nonzeros after fill-in) — proprietary
pipeline we cannot rerun, so this module generates matrices with the same
*communication-relevant* structure (DESIGN.md §2):

* a **supernode partition** of the columns (a supernode = consecutive
  columns sharing one nonzero structure, the unit of SuperLU messaging);
* a 2D nonzero **block pattern** over supernode pairs whose density decays
  with distance from the diagonal (typical of factored sparse systems);
* unit-lower-triangular numerics (as L from LU), well conditioned by
  construction, so execute-mode solves are verifiable against scipy;
* supernode widths tuned so messages span ~24 B to ~1 KB, averaging
  ~100 words — the range Table II and §III-B quote.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import lru_cache
from numbers import Integral
from types import MappingProxyType
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = ["SupernodalMatrix", "generate_matrix", "MatrixSpec"]


@dataclass(frozen=True)
class MatrixSpec:
    """Generator parameters.

    ``width_lo``/``width_hi`` bound supernode widths (in columns == solution
    words per x-message).  ``block_density`` is the base probability that a
    sub-diagonal supernode block is nonzero; it decays exponentially with
    block distance over ``density_range`` supernodes.
    """

    n_supernodes: int = 64
    width_lo: int = 3
    width_hi: int = 130
    block_density: float = 0.28
    density_range: float = 10.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name, low in (("n_supernodes", 2), ("width_lo", 1), ("width_hi", 1)):
            value = getattr(self, name)
            if not isinstance(value, Integral) or value < low:
                raise ValueError(f"matrix {name} must be an integer >= {low}, got {value}")
        if self.width_lo > self.width_hi:
            raise ValueError(f"bad width range [{self.width_lo}, {self.width_hi}]")
        if not 0 < self.block_density <= 1:
            raise ValueError(f"block_density must be in (0, 1], got {self.block_density}")
        if not 0 < self.density_range < math.inf:
            raise ValueError(
                f"matrix density_range must be finite and > 0, got {self.density_range}"
            )


@dataclass
class SupernodalMatrix:
    """A lower-triangular matrix stored as dense supernodal blocks.

    Attributes:
        widths: supernode widths (columns per supernode).
        offsets: prefix sums — supernode ``J`` covers rows/cols
            ``offsets[J]:offsets[J+1]``.
        blocks: ``(I, J) -> dense block`` for ``I >= J``; the diagonal
            blocks ``(J, J)`` are unit lower triangular.

    Immutable once built: :func:`generate_matrix` hands the same object to
    every caller with the same spec, so ``widths`` / ``offsets`` are tuples,
    ``blocks`` is a read-only mapping of read-only arrays, and the
    sub-diagonal structure is indexed by column and by row here, once.
    """

    widths: tuple[int, ...]
    offsets: tuple[int, ...]
    blocks: Mapping[tuple[int, int], np.ndarray] = field(repr=False, default_factory=dict)

    def __post_init__(self) -> None:
        self.widths = tuple(self.widths)
        self.offsets = tuple(self.offsets)
        self.blocks = MappingProxyType(dict(self.blocks))
        below: list[list[int]] = [[] for _ in self.widths]
        left: list[list[int]] = [[] for _ in self.widths]
        for I, J in sorted(self.blocks):  # I-major: both lists come out sorted
            self.blocks[I, J].setflags(write=False)
            if I > J:
                below[J].append(I)
                left[I].append(J)
        self._below = tuple(map(tuple, below))
        self._left = tuple(map(tuple, left))

    @property
    def n(self) -> int:
        return self.offsets[-1]

    @property
    def n_supernodes(self) -> int:
        return len(self.widths)

    @property
    def nnz(self) -> int:
        return int(sum(b.size for b in self.blocks.values()))

    def sn_range(self, j: int) -> tuple[int, int]:
        return self.offsets[j], self.offsets[j + 1]

    def column_blocks(self, j: int) -> tuple[int, ...]:
        """Row supernode indices I > J with a nonzero block (I, J), ascending."""
        return self._below[j]

    def row_blocks(self, i: int) -> tuple[int, ...]:
        """Column supernode indices J < I with a nonzero block (I, J), ascending."""
        return self._left[i]

    def message_sizes(self) -> np.ndarray:
        """Bytes per x-message (one solution subvector per supernode)."""
        return np.array([w * 8 for w in self.widths], dtype=float)

    def to_csr(self) -> sp.csr_matrix:
        """Assemble the full sparse matrix (reference solves, tests)."""
        import scipy.sparse as sp

        rows, cols, vals = [], [], []
        for (I, J), block in self.blocks.items():
            r0, _ = self.sn_range(I)
            c0, _ = self.sn_range(J)
            if I == J:
                # Only the lower triangle (incl. unit diagonal) is stored.
                ii, jj = np.tril_indices(block.shape[0])
                rows.append(r0 + ii)
                cols.append(c0 + jj)
                vals.append(block[ii, jj])
            else:
                ii, jj = np.indices(block.shape)
                rows.append(r0 + ii.ravel())
                cols.append(c0 + jj.ravel())
                vals.append(block.ravel())
        return sp.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.n, self.n),
        )

    def dag_edges(self) -> list[tuple[int, int]]:
        """Supernode dependency edges J -> I (x_J feeds the solve of x_I)."""
        return sorted((J, I) for (I, J) in self.blocks if I > J)

    def critical_path_length(self) -> int:
        """Longest chain in the supernodal DAG (solver's serial depth)."""
        depth = [0] * self.n_supernodes
        for J, I in self.dag_edges():  # sorted: J ascending
            depth[I] = max(depth[I], depth[J] + 1)
        return max(depth) + 1 if depth else 0


@lru_cache(maxsize=1)
def generate_matrix(spec: MatrixSpec = MatrixSpec()) -> SupernodalMatrix:
    """The well-conditioned supernodal lower-triangular matrix of ``spec``.

    Remembers the last spec built: the points of a sweep (fig08's 20) ask
    for one matrix, and it is immutable, so they share it.  One entry only —
    a paper-scale matrix is tens of MiB.
    """
    return _build_matrix(spec)


def _build_matrix(spec: MatrixSpec) -> SupernodalMatrix:
    rng = np.random.default_rng(spec.seed)
    widths = rng.integers(spec.width_lo, spec.width_hi + 1, spec.n_supernodes)
    widths = [int(w) for w in widths]
    offsets = [0]
    for w in widths:
        offsets.append(offsets[-1] + w)

    blocks: dict[tuple[int, int], np.ndarray] = {}
    for J in range(spec.n_supernodes):
        w = widths[J]
        # Unit lower-triangular diagonal block with small off-diagonals
        # (LU's L is unit triangular; small entries keep solves stable).
        diag = np.tril(rng.uniform(-0.4, 0.4, (w, w)), k=-1)
        np.fill_diagonal(diag, 1.0)
        blocks[(J, J)] = diag
        for I in range(J + 1, spec.n_supernodes):
            p = spec.block_density * np.exp(-(I - J - 1) / spec.density_range)
            if rng.random() < p:
                scale = 0.5 / max(widths[J], 1)
                blocks[(I, J)] = rng.uniform(-scale, scale, (widths[I], w))
    # Guarantee the DAG is connected enough to exercise communication: every
    # supernode after the first depends on at least its predecessor.
    for I in range(1, spec.n_supernodes):
        if not any((I, J) in blocks for J in range(I)):
            scale = 0.5 / max(widths[I - 1], 1)
            blocks[(I, I - 1)] = rng.uniform(
                -scale, scale, (widths[I], widths[I - 1])
            )
    return SupernodalMatrix(widths=widths, offsets=offsets, blocks=blocks)
