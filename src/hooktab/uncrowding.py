"""Arm/leg uncrowding bumpings and the word-indexed uncrowding map.

An arm bump moves the largest arm entry of the rightmost arm-bearing column
one column to the right; a leg bump moves the largest leg entry of the
topmost leg-bearing row one row up.  One routine serves both: a leg bump is
an arm bump read along rows, with the strict and weak comparisons swapped.
Iterating a bump until the shape first grows gives a single uncrowding step;
a word over {A, L} drives the full map, which also builds a mixed recording
tableau on the new cells.

A word runs on one grid of mutable cells.  Inputs must be valid, and a bump
then checks only the two cells it rewrote, against their hook shape and four
neighbours: every condition names one cell or two adjacent ones.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .shapes import Cell
from .switching import InternalError
from .tableaux import (
    HookCell,
    HookValuedTableau,
    MixedTableau,
    alpha,
    beta,
    hvt_violations,
)


class BumpRecord(NamedTuple):
    kind: str  # "arm" or "leg"
    origin: Cell  # cell holding the selected largest arm/leg entry
    created: Optional[Cell]  # new cell, when the shape grew
    moved_entry: int


class UncrowdResult(NamedTuple):
    insertion: HookValuedTableau
    recording: MixedTableau
    records: tuple[BumpRecord, ...]


def _grid(T: HookValuedTableau) -> list:
    """The rows of T, bottom-up, as lists of mutable cells [hook, arms, legs]."""
    return [[[x.hook, x.arms, x.legs] for x in row] for row in T.rows]


def _tableau(grid) -> HookValuedTableau:
    return HookValuedTableau([HookCell(*x) for x in row] for row in grid)


def _top(x) -> int:  # the largest entry of a cell with a valid hook shape
    return max(x[1][-1] if x[1] else x[0], x[2][-1] if x[2] else x[0])


def _broken(grid, r: int, c: int) -> bool:
    """Whether cell (r, c) breaks the hook shape, or a row or column condition
    with one of its four neighbours (taken to have valid hook shapes)."""
    row = grid[r - 1]
    h, arms, legs = x = row[c - 1]
    return (
        (arms and any(a > b for a, b in zip((h,) + arms, arms)))
        or (legs and any(a >= b for a, b in zip((h,) + legs, legs)))
        or (c > 1 and _top(row[c - 2]) > h)
        or (c < len(row) and _top(x) > row[c][0])
        or (r > 1 and _top(grid[r - 2][c - 1]) >= h)
        or (r < len(grid) and c <= len(grid[r]) and _top(x) >= grid[r][c - 1][0])
    )


def _bump(grid, arm: bool) -> Optional[BumpRecord]:
    """One arm (arm=True) or leg bump of the grid, in place; None when there
    is nothing to bump.  Written once in (line, pos) coordinates: an arm moves
    from column line to line + 1 at row pos, a leg from row line to line + 1
    at column pos.  x[own] is the list of cell x that bumps (arms or legs),
    x[other] the list that may follow it."""
    kind, own, other = ("arm", 1, 2) if arm else ("leg", 2, 1)

    def place(L, p):
        return (p, L) if arm else (L, p)

    def cells(L):  # the cells of line L, from pos 1 up
        return [row[L - 1] for row in grid if len(row) >= L] if arm else grid[L - 1]

    line = len(grid[0]) if arm and grid else len(grid)
    while line and not any(x[own] for x in cells(line)):
        line -= 1
    if not line:
        return None
    xs = cells(line)
    v = max(x[own][-1] for x in xs if x[own])
    holders = [p for p, x in enumerate(xs, 1) if x[own] and x[own][-1] == v]
    if len(holders) != 1:
        raise InternalError(f"largest {kind} entry of a line must sit in one cell")
    pos = holders[0]
    src = xs[pos - 1]
    if not arm and line == len(grid):
        grid.append([])  # the row above the top one, for the new cell

    # an arm takes the smallest entry >= v and carries the origin's legs > v;
    # a leg takes the smallest entry > v and carries the origin's arms >= v
    lo, carried = (v, v + 1) if arm else (v + 1, v)
    nxt = cells(line + 1)
    fits = [(w, p) for p, x in enumerate(nxt, 1) for w in (x[0], *x[1], *x[2]) if w >= lo]
    k, at = min(fits, default=(None, None))  # the first on ties
    if k is None:
        at = len(nxt) + 1
        if at > pos:  # at <= pos keeps the shape a partition
            raise InternalError(f"a new cell at {place(line + 1, at)} breaks the shape")
        dst = [v, (), ()]
        grid[place(line + 1, at)[0] - 1].append(dst)
    else:
        dst = nxt[at - 1]
        if dst[own]:
            raise InternalError(f"the line after the last {kind} line has {kind}s")
        t = [dst[0], *dst[other]]
        t[t.index(k)] = v
        dst[0], dst[other], dst[own] = t[0], tuple(t[1:]), (k,)
    src[own] = src[own][:-1]
    if at == pos:
        moved = tuple(x for x in src[other] if x >= carried)
        dst[other] = tuple(sorted(dst[other] + moved))
        src[other] = tuple(x for x in src[other] if x < carried)
    origin, target = place(line, pos), place(line + 1, at)
    if _broken(grid, *origin) or _broken(grid, *target):
        bad = hvt_violations(_tableau(grid))
        raise InternalError(f"bump produced an invalid tableau: {bad}")
    return BumpRecord(kind, origin, target if k is None else None, v)


def _step(grid, arm: bool) -> Optional[BumpRecord]:
    """Bump until the shape grows; None when nothing moves.  A bump that does
    not grow the shape moves the bumped value from line L to L + 1, so a step
    needs at most as many bumps as there are lines, never more than cells."""
    budget = sum(map(len, grid))
    first = rec = _bump(grid, arm)
    while rec is not None and rec.created is None and budget:
        rec, budget = _bump(grid, arm), budget - 1
    if first is None:
        return None
    if rec is None:
        raise InternalError("bumping died before the shape grew")
    if rec.created is None:
        raise InternalError("an uncrowding step exceeded its bump budget")
    return first._replace(created=rec.created)


def _apply(T: HookValuedTableau, routine, arm: bool):
    """routine (_bump or _step) on a grid of T; T itself when it moves nothing."""
    grid = _grid(T)
    rec = routine(grid, arm)
    return (T, None) if rec is None else (_tableau(grid), rec)


def arm_bump(T: HookValuedTableau) -> tuple[HookValuedTableau, Optional[BumpRecord]]:
    """One arm-uncrowding bump of a valid T; identity (record None) without arms."""
    return _apply(T, _bump, True)


def leg_bump(T: HookValuedTableau) -> tuple[HookValuedTableau, Optional[BumpRecord]]:
    """One leg-uncrowding bump of a valid T; identity (record None) without legs.

    Dual of arm_bump: the bumped value looks for the smallest entry strictly
    larger than itself in the row above, and arm entries >= the bumped leg
    follow it into the cell it lands in (they would otherwise break column
    strictness with the origin cell).
    """
    return _apply(T, _bump, False)


def arm_uncrowd(T: HookValuedTableau) -> tuple[HookValuedTableau, Optional[BumpRecord]]:
    """Iterate arm_bump on a valid T until the shape grows; identity without arms.

    The record keeps the origin cell of the *first* bump (whose column names
    the recorded alpha index) and the cell created by the last one.
    """
    return _apply(T, _step, True)


def leg_uncrowd(T: HookValuedTableau) -> tuple[HookValuedTableau, Optional[BumpRecord]]:
    """Iterate leg_bump on a valid T until the shape grows; identity without legs."""
    return _apply(T, _step, False)


def uncrowd(T: HookValuedTableau, word: str) -> UncrowdResult:
    """Run the uncrowding map on a valid T for a word over {A, L}.

    The word is given in the paper's subscript order f_n...f_1, so its
    letters are applied right to left, to one grid of T.  Each effective
    A step writes alpha_c (c the origin column) into the created cell of
    the recording tableau, each effective L step writes beta_r; no-op
    letters write nothing.
    """
    if any(ch not in "AL" for ch in word):
        raise ValueError(f"word must be over 'A'/'L', got {word!r}")
    grid, records, q_entries = _grid(T), [], {}
    for letter in reversed(word):
        rec = _step(grid, letter == "A")
        if rec is not None:
            records.append(rec)
            r, c = rec.origin
            q_entries[rec.created] = alpha(c) if rec.kind == "arm" else beta(r)
    P = _tableau(grid) if records else T
    recording = MixedTableau(P.shape, T.shape, q_entries)
    return UncrowdResult(P, recording, tuple(records))


def _canonical_word(T: HookValuedTableau, order: str) -> str:
    """The word of the canonical order "LA" (L^inf A^inf) or "AL"."""
    a, l = T.arm_excess, T.leg_excess
    if order == "LA":
        return "L" * l + "A" * a
    if order == "AL":
        return "A" * a + "L" * l
    raise ValueError(f"order must be 'LA' or 'AL', got {order!r}")


def uncrowd_canonical(T: HookValuedTableau, order: str) -> UncrowdResult:
    """Exhaustive uncrowding of a valid T in one of the two canonical orders.

    order "LA" performs all arm uncrowdings first then all leg uncrowdings
    (the word L^inf A^inf read right to left); order "AL" is the reverse.
    The insertion tableau always has zero excess.
    """
    result = uncrowd(T, _canonical_word(T, order))
    if any(x.arms or x.legs for row in result.insertion.rows for x in row):
        raise InternalError("canonical uncrowding left excess in the insertion tableau")
    return result


def has_type(T: HookValuedTableau, typed_word) -> bool:
    """Check Definition-of-type growth pattern for a word of typed bumps.

    typed_word is a sequence of (op, eps) pairs with op in {"A", "L"} and
    eps in {0, 1}, written like the word subscripts (applied right to left);
    each bump of the valid T must change the cell count by exactly its eps.
    """
    word = list(typed_word)[::-1]
    for op, eps in word:
        if op not in ("A", "L") or eps not in (0, 1):
            raise ValueError(f"bad typed letter ({op!r}, {eps!r})")
    grid = _grid(T)
    for op, eps in word:
        rec = _bump(grid, op == "A")
        if (rec is not None and rec.created is not None) != eps:
            return False
    return True
