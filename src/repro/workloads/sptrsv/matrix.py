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

import itertools
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import TYPE_CHECKING

import numpy as np

from repro.util.validation import check_count, check_positive

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
            check_count(f"matrix {name}", getattr(self, name), low)
        if self.width_lo > self.width_hi:
            raise ValueError(f"bad width range [{self.width_lo}, {self.width_hi}]")
        if not 0 < self.block_density <= 1:
            raise ValueError(f"block_density must be in (0, 1], got {self.block_density}")
        check_positive("matrix density_range", self.density_range)


@dataclass
class SupernodalMatrix:
    """A lower-triangular matrix stored as dense supernodal blocks.

    Attributes:
        spec: the generator parameters the matrix was drawn from.
        widths: supernode widths (columns per supernode).
        offsets: prefix sums — supernode ``J`` covers rows/cols
            ``offsets[J]:offsets[J+1]``.
        shapes: ``(I, J) -> (rows, cols)`` for ``I >= J``: all a simulated
            solve reads.
        blocks: ``(I, J) -> dense block``, drawn on first read by replaying
            ``spec``; the diagonal blocks ``(J, J)`` are unit lower triangular.

    Immutable once built: :func:`generate_matrix` hands the same object to
    every caller with the same spec, so ``widths`` / ``offsets`` are tuples,
    ``shapes`` / ``blocks`` are read-only mappings (of read-only arrays), and
    the sub-diagonal structure is indexed by column and by row here, once.
    """

    spec: MatrixSpec
    widths: tuple[int, ...]
    shapes: Mapping[tuple[int, int], tuple[int, int]] = field(repr=False)

    def __post_init__(self) -> None:
        self.widths = tuple(self.widths)
        self.offsets = tuple(itertools.accumulate(self.widths, initial=0))
        self.shapes = MappingProxyType(dict(self.shapes))
        below: list[list[int]] = [[] for _ in self.widths]
        left: list[list[int]] = [[] for _ in self.widths]
        for I, J in sorted(self.shapes):  # I-major: both lists come out sorted
            if I > J:
                below[J].append(I)
                left[I].append(J)
        self._below = tuple(map(tuple, below))
        self._left = tuple(map(tuple, left))

    @cached_property
    def blocks(self) -> Mapping[tuple[int, int], np.ndarray]:
        _, blocks = _draw(self.spec, values=True)
        for block in blocks.values():
            block.setflags(write=False)
        return MappingProxyType(blocks)

    @property
    def n(self) -> int:
        return self.offsets[-1]

    @property
    def n_supernodes(self) -> int:
        return len(self.widths)

    @property
    def nnz(self) -> int:
        return sum(rows * cols for rows, cols in self.shapes.values())

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
        return sorted((J, I) for (I, J) in self.shapes if I > J)

    def critical_path_length(self) -> int:
        """Longest chain in the supernodal DAG (solver's serial depth)."""
        depth = [0] * self.n_supernodes
        for J, I in self.dag_edges():  # sorted: J ascending
            depth[I] = max(depth[I], depth[J] + 1)
        return max(depth) + 1 if depth else 0


@lru_cache(maxsize=1)
def generate_matrix(spec: MatrixSpec = MatrixSpec()) -> SupernodalMatrix:
    """The well-conditioned supernodal lower-triangular matrix of ``spec``.

    Built as its structure (~1 MiB for fig08's); the values, tens of MiB at
    paper scale, are drawn when something reads ``blocks``.  Remembers the
    last spec built: the points of a sweep (fig08's 20) ask for one matrix,
    and it is immutable, so they share it.  One entry only.
    """
    return _build_matrix(spec)


def _build_matrix(spec: MatrixSpec) -> SupernodalMatrix:
    return SupernodalMatrix(spec, *_draw(spec, values=False))


def _draw(spec: MatrixSpec, *, values: bool):
    """The widths and ``(I, J) -> block`` (or ``-> shape`` without values).

    Both passes take the same draws: a block not kept is drawn into a scratch
    buffer (one double per element, as ``rng.uniform`` takes), so every
    structure decision reads the same stream position.
    """
    rng = np.random.default_rng(spec.seed)
    widths = rng.integers(spec.width_lo, spec.width_hi + 1, spec.n_supernodes).tolist()
    scratch = np.empty(max(widths) ** 2)

    def block(scale: float, rows: int, cols: int):
        if values:
            return rng.uniform(-scale, scale, (rows, cols))
        rng.random(out=scratch[: rows * cols])
        return rows, cols

    blocks: dict[tuple[int, int], np.ndarray | tuple[int, int]] = {}
    for J in range(spec.n_supernodes):
        w = widths[J]
        # Unit lower-triangular diagonal block with small off-diagonals
        # (LU's L is unit triangular; small entries keep solves stable).
        diag = block(0.4, w, w)
        if values:
            diag = np.tril(diag, k=-1)
            np.fill_diagonal(diag, 1.0)
        blocks[(J, J)] = diag
        for I in range(J + 1, spec.n_supernodes):
            p = spec.block_density * np.exp(-(I - J - 1) / spec.density_range)
            if rng.random() < p:
                blocks[(I, J)] = block(0.5 / max(widths[J], 1), widths[I], w)
    # Guarantee the DAG is connected enough to exercise communication: every
    # supernode after the first depends on at least its predecessor.
    for I in range(1, spec.n_supernodes):
        if not any((I, J) in blocks for J in range(I)):
            blocks[(I, I - 1)] = block(0.5 / max(widths[I - 1], 1), widths[I], widths[I - 1])
    return widths, blocks
