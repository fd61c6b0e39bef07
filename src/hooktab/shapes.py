"""Partitions, skew shapes and cell geometry.

Conventions used throughout the package: French notation (row 1 is the
bottom row), cells are 1-based ``(row, col)`` pairs, partitions are plain
tuples of weakly decreasing positive integers.
"""

from __future__ import annotations

from typing import Iterator

Cell = tuple[int, int]
Partition = tuple[int, ...]


def is_partition(parts) -> bool:
    """True iff parts is weakly decreasing with all parts >= 1."""
    return all(isinstance(p, int) and p >= 1 for p in parts) and all(
        parts[i] >= parts[i + 1] for i in range(len(parts) - 1)
    )


def check_partition(parts) -> Partition:
    parts = tuple(parts)
    if not is_partition(parts):
        raise ValueError(f"not a partition: {parts!r}")
    return parts


def part(lam: Partition, i: int) -> int:
    """The i-th part (1-based), zero beyond the last row."""
    return lam[i - 1] if 1 <= i <= len(lam) else 0


def contains(outer: Partition, inner: Partition) -> bool:
    """inner is contained in outer, componentwise with zero padding."""
    return len(inner) <= len(outer) and all(
        inner[i] <= outer[i] for i in range(len(inner))
    )


def check_skew(outer, inner) -> tuple[Partition, Partition]:
    outer = check_partition(outer)
    inner = check_partition(inner)
    if not contains(outer, inner):
        raise ValueError(f"inner {inner} not contained in outer {outer}")
    return outer, inner


def skew_cells(outer: Partition, inner: Partition) -> Iterator[Cell]:
    for r, width in enumerate(outer, 1):
        for c in range(part(inner, r) + 1, width + 1):
            yield (r, c)


def content(cell: Cell) -> int:
    """col - row; may be negative."""
    r, c = cell
    return c - r


def column_height(lam: Partition, c: int) -> int:
    """Number of rows of lam whose width is at least c."""
    return sum(1 for width in lam if width >= c)


def conjugate(lam: Partition) -> Partition:
    if not lam:
        return ()
    return tuple(column_height(lam, c) for c in range(1, lam[0] + 1))


def partitions_of(n: int, max_part: int | None = None) -> Iterator[Partition]:
    """All partitions of n with parts at most max_part, largest part first."""
    if max_part is None or max_part > n:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(max_part, 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def partitions_up_to(n: int) -> list[Partition]:
    """All partitions of size 0..n, ordered by size then reverse-lex."""
    out: list[Partition] = []
    for k in range(n + 1):
        out.extend(partitions_of(k))
    return out


def subpartitions(mu: Partition) -> list[Partition]:
    """All partitions contained in mu."""
    return partitions_between((), mu)


def skew_shapes(max_outer_size: int) -> list[tuple[Partition, Partition]]:
    """All (outer, inner) pairs with |outer| <= max_outer_size, inner in outer."""
    out = []
    for mu in partitions_up_to(max_outer_size):
        for lam in subpartitions(mu):
            out.append((mu, lam))
    return out


def partitions_between(inner: Partition, outer: Partition) -> list[Partition]:
    """All partitions nu with inner <= nu <= outer componentwise."""
    rows = len(outer)
    out: list[Partition] = []

    def grow(prefix: list[int], row: int, prev: int) -> None:
        if row == rows:
            trimmed = list(prefix)
            while trimmed and trimmed[-1] == 0:
                trimmed.pop()
            out.append(tuple(trimmed))
            return
        lo = part(inner, row + 1)
        hi = min(prev, outer[row])
        for v in range(lo, hi + 1):
            prefix.append(v)
            grow(prefix, row + 1, v)
            prefix.pop()

    grow([], 0, outer[0] if outer else 0)
    del grow  # the closure refers to itself: free it without the cyclic GC
    return sorted(set(out))


def partitions_containing(lam: Partition, max_added: int) -> list[Partition]:
    """All mu containing lam with |mu/lam| <= max_added."""
    total = sum(lam)
    out = []
    for size in range(total, total + max_added + 1):
        for mu in partitions_of(size):
            if contains(mu, lam):
                out.append(mu)
    return out
