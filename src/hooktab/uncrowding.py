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
neighbours: every condition names one cell or two adjacent ones.  Only a
step's first bump searches for its line; the later ones move the bumped
value on from where it landed.  The insertion and recording tableaux are
built once, at the end of the word, the recording behind a tripwire that
its created cells fill the grown shape.
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
    T = object.__new__(HookValuedTableau)  # __init__ would tuple the rows again
    T.rows = tuple([tuple([HookCell(*x) for x in row]) for row in grid])
    return T


def _top(x) -> int:  # the largest entry of a cell with a valid hook shape
    return max(x[1][-1] if x[1] else x[0], x[2][-1] if x[2] else x[0])


def _broken(grid, r: int, c: int) -> bool:
    """Whether cell (r, c) breaks the hook shape, or a row or column condition
    with one of its four neighbours (taken to have valid hook shapes)."""
    row = grid[r - 1]
    h, arms, legs = row[c - 1]
    top = h
    for a in arms:
        if top > a:
            return True
        top = a
    last = h
    for b in legs:
        if last >= b:
            return True
        last = b
    top = max(top, last)
    return (
        (c > 1 and _top(row[c - 2]) > h)
        or (c < len(row) and top > row[c][0])
        or (r > 1 and _top(grid[r - 2][c - 1]) >= h)
        or (r < len(grid) and c <= len(grid[r]) and top >= grid[r][c - 1][0])
    )


def _line(grid, arm: bool, line: int) -> list:
    """The cells of column line (arm) or row line (leg), from pos 1 up."""
    if arm:
        return [row[line - 1] for row in grid if len(row) >= line]
    return grid[line - 1]


def _find(grid, arm: bool) -> Optional[tuple[int, int]]:
    """(line, pos) of the cell holding the largest own entry of the last line
    with own entries (arms: the rightmost column, legs: the topmost row);
    None when no cell has any."""
    kind, own = ("arm", 1) if arm else ("leg", 2)
    line = len(grid[0]) if arm and grid else len(grid)
    while line:
        tops = [x[own][-1] if x[own] else 0 for x in _line(grid, arm, line)]
        v = max(tops, default=0)
        if v:
            if tops.count(v) != 1:
                raise InternalError(f"largest {kind} entry of a line must sit in one cell")
            return line, tops.index(v) + 1
        line -= 1
    return None


def _move(grid, arm: bool, line: int, pos: int) -> tuple[BumpRecord, int]:
    """Move the largest own entry of the cell at pos of line to line + 1, in
    place; its record and the pos it landed at.  Written once in (line, pos)
    coordinates: an arm moves from column line to line + 1 at row pos, a leg
    from row line to line + 1 at column pos.  x[own] is the list of cell x
    that bumps (arms or legs), x[other] the list that may follow it."""
    kind, own, other = ("arm", 1, 2) if arm else ("leg", 2, 1)
    origin = (pos, line) if arm else (line, pos)
    if not arm and line == len(grid):
        grid.append([])  # the row above the top one, for the new cell
    src = grid[origin[0] - 1][origin[1] - 1]
    v = src[own][-1]
    # an arm takes the smallest entry >= v and carries the origin's legs > v;
    # a leg takes the smallest entry > v and carries the origin's arms >= v
    lo, carried = (v, v + 1) if arm else (v + 1, v)
    # entries grow along the line, so the first cell whose top reaches lo
    # holds the smallest entry >= lo, the first on ties
    nxt = _line(grid, arm, line + 1)
    k, at = None, len(nxt) + 1
    for p, x in enumerate(nxt, 1):
        if _top(x) >= lo:
            k, at = min(w for w in (x[0], *x[1], *x[2]) if w >= lo), p
            break
    target = (at, line + 1) if arm else (line + 1, at)
    if k is None:
        if at > pos:  # at <= pos keeps the shape a partition
            raise InternalError(f"a new cell at {target} breaks the shape")
        dst = [v, (), ()]
        grid[target[0] - 1].append(dst)
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
    if _broken(grid, *origin) or _broken(grid, *target):
        bad = hvt_violations(_tableau(grid))
        raise InternalError(f"bump produced an invalid tableau: {bad}")
    return BumpRecord(kind, origin, target if k is None else None, v), at


def _bump(grid, arm: bool) -> Optional[BumpRecord]:
    """One arm (arm=True) or leg bump of the grid, in place; None when there
    is nothing to bump."""
    found = _find(grid, arm)
    return None if found is None else _move(grid, arm, *found)[0]


def _step(grid, arm: bool) -> Optional[BumpRecord]:
    """Bump until the shape grows; None when nothing moves.  Only the first
    bump searches: one that does not grow the shape leaves the bumped value
    the only own entry of line + 1, now the last line with any, and the next
    bump moves it on from where it landed.  So a step needs at most as many
    bumps as there are lines, never more than cells."""
    found = _find(grid, arm)
    if found is None:
        return None
    line, pos = found
    first, pos = _move(grid, arm, line, pos)
    rec, budget = first, sum(map(len, grid))
    while rec.created is None:
        if not budget:
            raise InternalError("an uncrowding step exceeded its bump budget")
        line, budget = line + 1, budget - 1
        rec, pos = _move(grid, arm, line, pos)
    return BumpRecord(first.kind, first.origin, rec.created, first.moved_entry)


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
    if word.strip("AL"):
        raise ValueError(f"word must be over 'A'/'L', got {word!r}")
    grid, records, q_entries = _grid(T), [], {}
    for letter in reversed(word):
        rec = _step(grid, letter == "A")
        if rec is not None:
            records.append(rec)
            r, c = rec.origin
            q_entries[rec.created] = alpha(c) if rec.kind == "arm" else beta(r)
    P = _tableau(grid) if records else T
    # created cells are new cells of a partition grid: they fill P / T when
    # there are as many as the cells it gained, so Q skips MixedTableau()
    if len(q_entries) != sum(map(len, grid)) - T.num_cells:
        raise InternalError("the created cells do not fill the grown shape")
    recording = object.__new__(MixedTableau)
    recording.outer, recording.inner, recording.entries = P.shape, T.shape, q_entries
    return UncrowdResult(P, recording, tuple(records))


def _canonical_word(T: HookValuedTableau, order: str) -> str:
    """The word of the canonical order "LA" (L^inf A^inf) or "AL"."""
    a = l = 0
    for row in T.rows:
        for x in row:
            a, l = a + len(x.arms), l + len(x.legs)
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
