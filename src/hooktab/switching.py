"""Tableau switching, the jeu-de-taquin shuffle, and GG-jdt slides.

A switch swaps an adjacent alpha/beta pair while keeping the tableau
alpha-column-strict and beta-row-strict; iterating to a fixed point gives a
normal form independent of the switch order.  The shuffle is one specific
switch strategy; GG-jdt performs a content-twisted partial switch sequence.

Each public entry point validates its input once.  A switch is then checked
locally: only the pairs that involve the two moved entries can break
strictness, so only those are compared, and the swapped tableau is built
without re-validating its shape.
"""

from __future__ import annotations

import random
from typing import NamedTuple, Optional

from .shapes import Cell
from .tableaux import (
    MixedTableau,
    is_alpha_column_strict,
    is_beta_row_strict,
    is_flagged_mixed,
    is_sorted_alpha_beta,
)


class PreconditionViolation(ValueError):
    """The input tableau fails a documented strictness precondition."""


class InternalError(RuntimeError):
    """A termination tripwire fired; indicates a bug, not bad input."""


class SwitchMove(NamedTuple):
    cell: Cell  # position of the alpha entry
    direction: str  # "up" or "right"


class OutOfOrderWitness(NamedTuple):
    cell: Cell
    horizontal_applies: bool
    vertical_applies: bool


def _require_strict(T: MixedTableau, *, sorted_ab: bool = False) -> None:
    if not (is_alpha_column_strict(T) and is_beta_row_strict(T)):
        raise PreconditionViolation(
            "tableau must be alpha-column-strict and beta-row-strict"
        )
    if sorted_ab and not is_sorted_alpha_beta(T):
        raise PreconditionViolation("tableau must be (alpha,beta)-sorted")


def _target(move: SwitchMove) -> Cell:
    (r, c) = move.cell
    return (r + 1, c) if move.direction == "up" else (r, c + 1)


def _fits(T: MixedTableau, old: Cell, new: Cell, axis: int) -> bool:
    """Whether the entry at old, moved to new, keeps its kind strict in T:
    no larger index of that kind weakly northeast of new, no smaller one
    weakly southwest, and no equal one in its column (axis 1) or row
    (axis 0).  Pairs without the moved entry are T's own and need no check."""
    kind, i = T.entries[old]
    r, c = new
    for q, (k, j) in T.entries.items():
        if k != kind or q == old:
            continue
        if j == i:
            if q[axis] == new[axis]:
                return False
        elif j > i:
            if q[0] >= r and q[1] >= c:
                return False
        elif q[0] <= r and q[1] <= c:
            return False
    return True


def _switch(T: MixedTableau, p: Cell, q: Cell) -> Optional[MixedTableau]:
    """T with the alpha at p and the beta at q exchanged; None unless both
    are there and the exchange is legal."""
    u = T.entries.get(p)
    v = T.entries.get(q)
    if u is None or v is None or u.kind != "a" or v.kind != "b":
        return None
    # T is strict, so the swap is legal iff the moved alpha keeps T
    # alpha-column-strict and the moved beta keeps it beta-row-strict
    if _fits(T, p, q, 1) and _fits(T, q, p, 0):
        return T.swapped(p, q)
    return None


def try_switch(T: MixedTableau, move: SwitchMove) -> Optional[MixedTableau]:
    """Apply one switch if legal, else None.

    The move names a cell that must hold an alpha and a direction whose
    target must hold a beta; the swap must preserve alpha-column-strictness
    and beta-row-strictness.
    """
    _require_strict(T)
    return _switch(T, move.cell, _target(move))


def available_switches(T: MixedTableau) -> list[tuple[SwitchMove, MixedTableau]]:
    """All legal switches with their results, scanning rows top to bottom
    and columns left to right."""
    _require_strict(T)
    return _legal_switches(T)


def _legal_switches(T: MixedTableau) -> list[tuple[SwitchMove, MixedTableau]]:
    out = []
    for r in range(len(T.outer), 0, -1):
        for c in range(1, T.outer[r - 1] + 1):
            u = T.entries.get((r, c))
            if u is None or u.kind != "a":
                continue
            for direction, q in (("up", (r + 1, c)), ("right", (r, c + 1))):
                res = _switch(T, (r, c), q)
                if res is not None:
                    out.append((SwitchMove((r, c), direction), res))
    return out


def _switch_budget(T: MixedTableau) -> int:
    """Bound on the switches from T to any fixed point."""
    # each switch moves one alpha one cell up or right, so the sum of r+c
    # over alpha cells strictly increases: n_alpha * num_cells bounds it
    n_alpha = sum(1 for e in T.entries.values() if e.kind == "a")
    return n_alpha * T.num_cells


def fully_switch(
    T: MixedTableau, strategy: str = "deterministic", seed: int | None = None
) -> MixedTableau:
    """Apply switches until none is possible.

    The result is strategy-independent; "deterministic" always takes the
    first available switch in scan order, "random" draws them from a seeded
    generator (useful for confluence testing).  Sortedness of the input is
    not required: partially switched states (for instance GG-jdt output)
    continue to the same normal form as the sorted tableau they came from.
    """
    _require_strict(T)
    if strategy not in ("deterministic", "random"):
        raise ValueError(f"unknown strategy {strategy!r}")
    rng = random.Random(seed) if strategy == "random" else None
    cur = T
    for _ in range(_switch_budget(T) + 1):
        moves = _legal_switches(cur)
        if not moves:
            return cur
        if rng is None:
            cur = moves[0][1]
        else:
            cur = rng.choice(moves)[1]
    raise InternalError("fully_switch exceeded its switch budget")


def _slide_dest(entries: dict, cell: Cell) -> Optional[Cell]:
    """Where the shuffle moves the alpha at cell: past the beta above or to
    the right, the upper one when both exist and its index is larger; None
    without a beta neighbour."""
    r, c = cell
    up = entries.get((r + 1, c))
    right = entries.get((r, c + 1))
    right_is_beta = right is not None and right.kind == "b"
    if up is not None and up.kind == "b":
        if not right_is_beta or up.index > right.index:
            return (r + 1, c)
    return (r, c + 1) if right_is_beta else None


def _shuffle_start(entries: dict) -> Optional[Cell]:
    """The alpha the shuffle slides next: the smallest index among alphas
    with a beta neighbour, rightmost on ties; None when there is none."""
    eligible = [
        (p, e.index)
        for p, e in entries.items()
        if e.kind == "a" and _slide_dest(entries, p) is not None
    ]
    if not eligible:
        return None
    smallest = min(i for _, i in eligible)
    return max((p for p, i in eligible if i == smallest), key=lambda p: p[1])


def shuffle(T: MixedTableau) -> MixedTableau:
    """The jeu-de-taquin shuffle: a specific switch strategy.

    Repeatedly pick, among alpha entries with a beta directly above or to
    the right, one of smallest index (rightmost on ties, unique by column
    strictness), then switch it past betas until both neighbours are alphas
    or empty; with betas on both sides it moves up when the upper index
    exceeds the right one and right otherwise.
    """
    _require_strict(T, sorted_ab=True)
    return _shuffle(T)


def _shuffle(T: MixedTableau) -> MixedTableau:
    entries = dict(T.entries)
    cell = None
    for _ in range(_switch_budget(T) + 1):
        dest = None if cell is None else _slide_dest(entries, cell)
        if dest is None:
            cell = _shuffle_start(entries)
            if cell is None:
                return T.with_entries(entries)
            dest = _slide_dest(entries, cell)
        entries[cell], entries[dest] = entries[dest], entries[cell]
        cell = dest
    raise InternalError("shuffle exceeded its switch budget")


def _out_of_order(T: MixedTableau) -> list[OutOfOrderWitness]:
    out = []
    for (r, c) in sorted(T.entries):
        e = T.entries[(r, c)]
        if e.kind != "a":
            continue
        right = T.entry(r, c + 1)
        up = T.entry(r + 1, c)
        horiz = (
            right is not None
            and right.kind == "b"
            and e.index < right.index + (c + 1) - r
        )
        vert = (
            up is not None and up.kind == "b" and e.index <= up.index + c - (r + 1)
        )
        if horiz or vert:
            out.append(OutOfOrderWitness((r, c), horiz, vert))
    return out


def gg_out_of_order(T: MixedTableau) -> list[OutOfOrderWitness]:
    """All out-of-order alpha entries with the applicable slide directions."""
    _require_strict(T)
    return _out_of_order(T)


def _gg_slide(T: MixedTableau, wit: OutOfOrderWitness) -> MixedTableau:
    r, c = wit.cell
    if wit.horizontal_applies and wit.vertical_applies:
        t = T.entry(r + 1, c).index
        s = T.entry(r, c + 1).index
        go_up = t > s
    else:
        go_up = wit.vertical_applies
    dest = (r + 1, c) if go_up else (r, c + 1)
    return T.swapped((r, c), dest)


def gg_jdt(T: MixedTableau, trace: bool = False):
    """Goulden-Greene jeu de taquin.

    Slide the rightmost alpha of smallest out-of-order index until nothing
    is out of order.  With trace=True returns (result, intermediates), the
    tableau after each elementary slide.
    """
    _require_strict(T, sorted_ab=True)
    budget = 2 * _switch_budget(T)
    cur = T
    steps: list[MixedTableau] = []
    while True:
        wits = _out_of_order(cur)
        if not wits:
            break
        smallest = min(cur.entries[w.cell].index for w in wits)
        chosen = max(
            (w for w in wits if cur.entries[w.cell].index == smallest),
            key=lambda w: w.cell[1],
        )
        cur = _gg_slide(cur, chosen)
        steps.append(cur)
        if len(steps) > budget:
            raise InternalError("GG-jdt exceeded its slide budget")
    return (cur, steps) if trace else cur


def is_biflagged(T: MixedTableau) -> bool:
    """Sorted and strict, with both T and shuffle(T) flagged-mixed."""
    if not (
        is_flagged_mixed(T)
        and is_sorted_alpha_beta(T)
        and is_alpha_column_strict(T)
        and is_beta_row_strict(T)
    ):
        return False
    return is_flagged_mixed(_shuffle(T))
