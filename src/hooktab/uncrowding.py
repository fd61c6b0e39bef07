"""Arm/leg uncrowding bumpings and the word-indexed uncrowding map.

An arm bump moves the largest arm entry of the rightmost arm-bearing column
one column to the right; a leg bump moves the largest leg entry of the
topmost leg-bearing row one row up.  Iterating a bump until the shape first
grows gives a single uncrowding step; a word over {A, L} drives the full map,
which also builds a mixed recording tableau on the new cells.
"""

from __future__ import annotations

import bisect
from typing import NamedTuple, Optional

from .shapes import Cell, column_height, part
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


def _insert_sorted(values: tuple[int, ...], v: int) -> tuple[int, ...]:
    out = list(values)
    bisect.insort(out, v)
    return tuple(out)


def _assert_valid(T: HookValuedTableau) -> None:
    bad = hvt_violations(T)
    assert not bad, f"bump produced an invalid tableau: {bad}"


def _select_arm(T: HookValuedTableau):
    """Cell and value of the largest arm entry in the rightmost arm column."""
    col = max((c for (_, c), cell in T.cells() if cell.arms), default=None)
    if col is None:
        return None
    in_col = [((r, c), cell) for (r, c), cell in T.cells() if c == col and cell.arms]
    a = max(cell.arms[-1] for _, cell in in_col)
    holders = [rc for rc, cell in in_col if cell.arms[-1] == a]
    assert len(holders) == 1, "largest arm entry of a column must sit in one cell"
    return holders[0], a


def _select_leg(T: HookValuedTableau):
    """Cell and value of the largest leg entry in the topmost leg row."""
    row = max((r for (r, _), cell in T.cells() if cell.legs), default=None)
    if row is None:
        return None
    in_row = [((r, c), cell) for (r, c), cell in T.cells() if r == row and cell.legs]
    l = max(cell.legs[-1] for _, cell in in_row)
    holders = [rc for rc, cell in in_row if cell.legs[-1] == l]
    assert len(holders) == 1, "largest leg entry of a row must sit in one cell"
    return holders[0], l


def arm_bump(T: HookValuedTableau) -> tuple[HookValuedTableau, Optional[BumpRecord]]:
    """One arm-uncrowding bump; identity (record None) when T has no arms."""
    sel = _select_arm(T)
    if sel is None:
        return T, None
    (r, c), a = sel
    origin = T.cell(r, c)
    new_origin = HookCell(origin.hook, origin.arms[:-1], origin.legs)

    # smallest entry k >= a in column c+1 (unique cell by column strictness)
    target_pos = None
    k = None
    for rr in range(1, len(T.shape) + 1):
        cell = T.cell_at(rr, c + 1)
        if cell is None:
            continue
        for v in cell.entries():
            if v >= a and (k is None or v < k):
                k = v
                target_pos = rr

    def migrate(origin_cell: HookCell, target_cell: HookCell):
        stay = tuple(l for l in origin_cell.legs if l <= a)
        move = [l for l in origin_cell.legs if l > a]
        merged = list(target_cell.legs)
        for l in move:
            bisect.insort(merged, l)
        return (
            HookCell(origin_cell.hook, origin_cell.arms, stay),
            HookCell(target_cell.hook, target_cell.arms, merged),
        )

    if k is not None:
        rt = target_pos
        target = T.cell(rt, c + 1)
        assert not target.arms, "column right of the rightmost arm column has arms"
        if target.hook == k:
            new_target = HookCell(a, _insert_sorted(target.arms, k), target.legs)
        else:
            legs = list(target.legs)
            legs[legs.index(k)] = a
            new_target = HookCell(target.hook, _insert_sorted(target.arms, k), legs)
        if rt == r:
            new_origin, new_target = migrate(new_origin, new_target)
        out = T.replace(r, c, new_origin).replace(rt, c + 1, new_target)
        record = BumpRecord("arm", (r, c), None, a)
    else:
        created = (column_height(T.shape, c + 1) + 1, c + 1)
        new_cell = HookCell(a)
        if created == (r, c + 1):
            new_origin, new_cell = migrate(new_origin, new_cell)
        out = T.replace(r, c, new_origin).add_cell(created, new_cell)
        record = BumpRecord("arm", (r, c), created, a)
        assert created[0] <= r and created[1] > c
    _assert_valid(out)
    return out, record


def leg_bump(T: HookValuedTableau) -> tuple[HookValuedTableau, Optional[BumpRecord]]:
    """One leg-uncrowding bump; identity (record None) when T has no legs.

    Dual of arm_bump: the bumped value looks for the smallest entry strictly
    larger than itself in the row above, and arm entries >= the bumped leg
    follow it into the cell it lands in (they would otherwise break column
    strictness with the origin cell).
    """
    sel = _select_leg(T)
    if sel is None:
        return T, None
    (r, c), l = sel
    origin = T.cell(r, c)
    new_origin = HookCell(origin.hook, origin.arms, origin.legs[:-1])

    # smallest entry k > l in row r+1, leftmost holder when the value repeats
    k = None
    target_pos = None
    width_above = part(T.shape, r + 1)
    for cc in range(1, width_above + 1):
        cell = T.cell(r + 1, cc)
        for v in cell.entries():
            # strict "<" keeps the leftmost holder when the value repeats
            if v > l and (k is None or v < k):
                k = v
                target_pos = cc

    def migrate(origin_cell: HookCell, target_cell: HookCell):
        stay = tuple(a for a in origin_cell.arms if a < l)
        move = [a for a in origin_cell.arms if a >= l]
        merged = list(target_cell.arms)
        for a in move:
            bisect.insort(merged, a)
        return (
            HookCell(origin_cell.hook, stay, origin_cell.legs),
            HookCell(target_cell.hook, merged, target_cell.legs),
        )

    if k is not None:
        ct = target_pos
        target = T.cell(r + 1, ct)
        assert not target.legs, "row above the topmost leg row has legs"
        if target.hook == k:
            new_target = HookCell(l, target.arms, _insert_sorted(target.legs, k))
        else:
            arms = list(target.arms)
            arms[arms.index(k)] = l
            new_target = HookCell(target.hook, arms, _insert_sorted(target.legs, k))
        if ct == c:
            new_origin, new_target = migrate(new_origin, new_target)
        out = T.replace(r, c, new_origin).replace(r + 1, ct, new_target)
        record = BumpRecord("leg", (r, c), None, l)
    else:
        created = (r + 1, width_above + 1)
        new_cell = HookCell(l)
        if created == (r + 1, c):
            new_origin, new_cell = migrate(new_origin, new_cell)
        out = T.replace(r, c, new_origin).add_cell(created, new_cell)
        record = BumpRecord("leg", (r, c), created, l)
        assert created[0] > r and created[1] <= c
    _assert_valid(out)
    return out, record


def _uncrowd_step(T, bump, kind):
    cur, rec = bump(T)
    if rec is None:
        return T, None
    first = rec
    while rec.created is None:
        cur, rec = bump(cur)
        assert rec is not None, "bumping died before the shape grew"
    return cur, BumpRecord(kind, first.origin, rec.created, first.moved_entry)


def arm_uncrowd(T: HookValuedTableau) -> tuple[HookValuedTableau, Optional[BumpRecord]]:
    """Iterate arm_bump until the shape first grows; identity without arms.

    The record keeps the origin cell of the *first* bump (whose column names
    the recorded alpha index) and the cell created by the last one.
    """
    return _uncrowd_step(T, arm_bump, "arm")


def leg_uncrowd(T: HookValuedTableau) -> tuple[HookValuedTableau, Optional[BumpRecord]]:
    """Iterate leg_bump until the shape first grows; identity without legs."""
    return _uncrowd_step(T, leg_bump, "leg")


def _uncrowd_steps(T: HookValuedTableau, word: str):
    """Yield (letter, tableau, record) for each effective step of the word,
    applying its letters right to left."""
    if any(ch not in "AL" for ch in word):
        raise ValueError(f"word must be over 'A'/'L', got {word!r}")
    cur = T
    for letter in reversed(word):
        op = arm_uncrowd if letter == "A" else leg_uncrowd
        cur, rec = op(cur)
        if rec is not None:
            yield letter, cur, rec


def _collect(T: HookValuedTableau, steps) -> UncrowdResult:
    """The uncrowding result of T from its effective steps."""
    cur = T
    records = []
    q_entries = {}
    for _, cur, rec in steps:
        records.append(rec)
        r, c = rec.origin
        q_entries[rec.created] = alpha(c) if rec.kind == "arm" else beta(r)
    recording = MixedTableau(cur.shape, T.shape, q_entries)
    return UncrowdResult(cur, recording, tuple(records))


def uncrowd(T: HookValuedTableau, word: str) -> UncrowdResult:
    """Run the uncrowding map for a word over {A, L}.

    The word is given in the paper's subscript order f_n...f_1, so its
    letters are applied right to left.  Each effective A step writes
    alpha_c (c the origin column) into the created cell of the recording
    tableau, each effective L step writes beta_r; no-op letters write
    nothing.
    """
    return _collect(T, _uncrowd_steps(T, word))


def _canonical_word(T: HookValuedTableau, order: str) -> str:
    """The word of the canonical order "LA" (L^inf A^inf) or "AL"."""
    a, l = T.arm_excess, T.leg_excess
    if order == "LA":
        return "L" * l + "A" * a
    if order == "AL":
        return "A" * a + "L" * l
    raise ValueError(f"order must be 'LA' or 'AL', got {order!r}")


def uncrowd_canonical(T: HookValuedTableau, order: str) -> UncrowdResult:
    """Exhaustive uncrowding in one of the two canonical orders.

    order "LA" performs all arm uncrowdings first then all leg uncrowdings
    (the word L^inf A^inf read right to left); order "AL" is the reverse.
    The insertion tableau always has zero excess.
    """
    result = uncrowd(T, _canonical_word(T, order))
    assert result.insertion.arm_excess == 0 and result.insertion.leg_excess == 0
    return result


def has_type(T: HookValuedTableau, typed_word) -> bool:
    """Check Definition-of-type growth pattern for a word of typed bumps.

    typed_word is a sequence of (op, eps) pairs with op in {"A", "L"} and
    eps in {0, 1}, written like the word subscripts (applied right to left);
    each bump must change the cell count by exactly its eps.
    """
    word = list(typed_word)[::-1]
    for op, eps in word:
        if op not in ("A", "L") or eps not in (0, 1):
            raise ValueError(f"bad typed letter ({op!r}, {eps!r})")
    cur = T
    for op, eps in word:
        nxt, _ = (arm_bump if op == "A" else leg_bump)(cur)
        if nxt.num_cells - cur.num_cells != eps:
            return False
        cur = nxt
    return True
