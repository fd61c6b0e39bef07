"""Arm/leg uncrowding bumpings and the word-indexed uncrowding map.

An arm bump moves the largest arm entry of the rightmost arm-bearing column
one column to the right; a leg bump moves the largest leg entry of the
topmost leg-bearing row one row up.  One routine serves both: a leg bump is
an arm bump read along rows, with the strict and weak comparisons swapped.
Iterating a bump until the shape first grows gives a single uncrowding step;
a word over {A, L} drives the full map, which also builds a mixed recording
tableau on the new cells.
"""

from __future__ import annotations

import bisect
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


def _assert_valid(T: HookValuedTableau) -> None:
    bad = hvt_violations(T)
    assert not bad, f"bump produced an invalid tableau: {bad}"


def _bump(T: HookValuedTableau, arm: bool):
    """One arm (arm=True) or leg bump, written once in (line, pos)
    coordinates: an arm moves from column line to line + 1 at row pos, a leg
    from row line to line + 1 at column pos.  "own" is the list that bumps
    (arms or legs), "other" the list that may follow it."""
    kind = "arm" if arm else "leg"
    # lines[L] lists the cells of line L as (hook, own, other) from pos 1 up:
    # T.cells() visits the rows in order and each row left to right
    lines: dict[int, list] = {}
    for (r, c), x in T.cells():
        if arm:
            lines.setdefault(c, []).append((x.hook, x.arms, x.legs))
        else:
            lines.setdefault(r, []).append((x.hook, x.legs, x.arms))
    line = max((L for L, xs in lines.items() if any(o for _, o, _ in xs)), default=None)
    if line is None:
        return T, None
    v = max(own[-1] for _, own, _ in lines[line] if own)
    holders = [p for p, (_, own, _) in enumerate(lines[line], 1) if own and own[-1] == v]
    assert len(holders) == 1, f"largest {kind} entry of a line must sit in one cell"
    pos = holders[0]
    hook, own, other = lines[line][pos - 1]
    origin = (hook, own[:-1], other)

    # an arm takes the smallest entry >= v and carries the origin's legs > v;
    # a leg takes the smallest entry > v and carries the origin's arms >= v
    least, carried = (v, v + 1) if arm else (v + 1, v)
    nxt = lines.get(line + 1, [])
    k = at = None
    for p, (h, o, t) in enumerate(nxt, 1):
        for w in (h,) + o + t:
            if w >= least and (k is None or w < k):  # first minimum wins
                k, at = w, p
    if k is None:
        at = len(nxt) + 1
        assert at <= pos
        target = (v, (), ())
    else:
        h, o, t = nxt[at - 1]
        assert not o, f"the line after the last {kind} line has {kind}s"
        if h == k:
            target = (v, (k,), t)
        else:
            t = list(t)
            t[t.index(k)] = v
            target = (h, (k,), t)
    if at == pos:
        merged = list(target[2])
        for x in other:
            if x >= carried:
                bisect.insort(merged, x)
        origin = (hook, own[:-1], tuple(x for x in other if x < carried))
        target = (target[0], target[1], merged)

    def place(L, p):
        return (p, L) if arm else (L, p)

    def cell(h, o, t):
        return HookCell(h, o, t) if arm else HookCell(h, t, o)

    out = T.replace(*place(line, pos), cell(*origin))
    if k is None:
        created = place(line + 1, at)
        out = out.add_cell(created, cell(*target))
    else:
        created = None
        out = out.replace(*place(line + 1, at), cell(*target))
    _assert_valid(out)
    return out, BumpRecord(kind, place(line, pos), created, v)


def arm_bump(T: HookValuedTableau) -> tuple[HookValuedTableau, Optional[BumpRecord]]:
    """One arm-uncrowding bump; identity (record None) when T has no arms."""
    return _bump(T, True)


def leg_bump(T: HookValuedTableau) -> tuple[HookValuedTableau, Optional[BumpRecord]]:
    """One leg-uncrowding bump; identity (record None) when T has no legs.

    Dual of arm_bump: the bumped value looks for the smallest entry strictly
    larger than itself in the row above, and arm entries >= the bumped leg
    follow it into the cell it lands in (they would otherwise break column
    strictness with the origin cell).
    """
    return _bump(T, False)


def _uncrowd_step(T, bump):
    """Bump until the shape grows.  A bump that does not grow the shape moves
    the bumped value from line L to L + 1 of the unchanged shape, so a step
    needs at most as many bumps as T has lines, never more than T.num_cells."""
    cur, rec = bump(T)
    if rec is None:
        return T, None
    first = rec
    for _ in range(T.num_cells):
        if rec.created is not None:
            break
        cur, rec = bump(cur)
        assert rec is not None, "bumping died before the shape grew"
    if rec.created is None:
        raise InternalError("an uncrowding step exceeded its bump budget")
    return cur, first._replace(created=rec.created)


def arm_uncrowd(T: HookValuedTableau) -> tuple[HookValuedTableau, Optional[BumpRecord]]:
    """Iterate arm_bump until the shape first grows; identity without arms.

    The record keeps the origin cell of the *first* bump (whose column names
    the recorded alpha index) and the cell created by the last one.
    """
    return _uncrowd_step(T, arm_bump)


def leg_uncrowd(T: HookValuedTableau) -> tuple[HookValuedTableau, Optional[BumpRecord]]:
    """Iterate leg_bump until the shape first grows; identity without legs."""
    return _uncrowd_step(T, leg_bump)


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
