"""Distributed hashtable data layout and local (owner-side) operations.

Each rank owns a fixed-size slice of the table plus an overflow heap for
collision chains (paper §III-C).  The same layout backs both variants:

* one-sided: four RMA windows — table slots, per-slot chain heads, the
  overflow heap, and the heap allocation pointer — manipulated remotely
  with atomics;
* two-sided: the owner applies inserts locally on receipt of a triplet.

Values are nonzero int64 keys; slot 0 encodes "empty".  Heap entries are
``(key, next)`` pairs where ``next`` is the 1-based index of the following
chain element (0 terminates).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.validation import check_count

__all__ = ["TableGeometry", "local_insert", "collect_values", "chain_lengths"]

EMPTY = 0


@dataclass(frozen=True)
class TableGeometry:
    """Sizes and addressing of the distributed table."""

    nranks: int
    slots_per_rank: int
    heap_per_rank: int

    def __post_init__(self) -> None:
        for name in ("nranks", "slots_per_rank", "heap_per_rank"):
            check_count(name, getattr(self, name))

    @property
    def total_slots(self) -> int:
        return self.nranks * self.slots_per_rank

    def locate(self, key: int) -> tuple[int, int]:
        """Home (rank, slot) of a key.

        Multiplicative (Fibonacci) hashing spreads sequential keys across
        ranks — the "indeterministic" peer-to-peer pattern of Table II.
        """
        if key == EMPTY:
            raise ValueError("key 0 is reserved for empty slots")
        h = (key * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        idx = h % self.total_slots
        return int(idx // self.slots_per_rank), int(idx % self.slots_per_rank)

    def locate_many(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``locate`` of every key in one pass: int64 ``(ranks, slots)``.

        Exact, not approximate: a uint64 multiply wraps modulo 2**64, which
        is ``locate``'s ``& 0xFFFF_FFFF_FFFF_FFFF``.
        """
        keys = np.asarray(keys, dtype=np.int64)
        if (keys == EMPTY).any():
            raise ValueError("key 0 is reserved for empty slots")
        h = keys.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        ranks, slots = np.divmod(
            h % np.uint64(self.total_slots), np.uint64(self.slots_per_rank)
        )
        return ranks.astype(np.int64), slots.astype(np.int64)

    @classmethod
    def for_inserts(
        cls, nranks: int, total_inserts: int, *, load_factor: float = 0.6
    ) -> "TableGeometry":
        """Geometry sized so the table ends up ~``load_factor`` full."""
        check_count("nranks", nranks)
        check_count("total_inserts", total_inserts)
        if not 0 < load_factor <= 1:
            raise ValueError("load_factor must be in (0, 1]")
        slots = max(int(total_inserts / load_factor / nranks) + 1, 4)
        heap = max(int(total_inserts / nranks) + 4, 8)
        return cls(nranks=nranks, slots_per_rank=slots, heap_per_rank=heap)


def local_insert(
    key: int,
    slot: int,
    table: np.ndarray,
    chain: np.ndarray,
    heap: np.ndarray,
    meta: np.ndarray,
) -> bool:
    """Owner-side insert (two-sided variant); returns True on collision.

    Mirrors the one-sided algorithm exactly: claim the slot if empty,
    otherwise allocate a heap element and push it at the head of the slot's
    chain.
    """
    if table[slot] == EMPTY:
        table[slot] = key
        return False
    idx = int(meta[0])
    if idx >= len(heap) // 2:
        raise RuntimeError("overflow heap exhausted; grow heap_per_rank")
    meta[0] = idx + 1
    prev = int(chain[slot])
    chain[slot] = idx + 1  # 1-based
    heap[2 * idx] = key
    heap[2 * idx + 1] = prev
    return True


def collect_values(
    table: np.ndarray, heap: np.ndarray, meta: np.ndarray
) -> list[int]:
    """All stored keys (table slots + allocated heap entries)."""
    vals = table[table != EMPTY].tolist()
    keys = heap[: 2 * int(meta[0]) : 2]
    vals.extend(keys[keys != EMPTY].tolist())
    return vals


def chain_lengths(chain: np.ndarray, heap: np.ndarray) -> list[int]:
    """Length of each slot's overflow chain; raises on a broken chain."""
    out = []
    heap_len = len(heap) // 2
    for head in chain:
        n, cur, seen = 0, int(head), set()
        while cur:
            if cur in seen or not 1 <= cur <= heap_len:
                raise RuntimeError(f"corrupt overflow chain at entry {cur}")
            seen.add(cur)
            n += 1
            cur = int(heap[2 * (cur - 1) + 1])
        out.append(n)
    return out
