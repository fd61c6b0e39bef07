"""Tableau switching, the jeu-de-taquin shuffle, and GG-jdt slides.

A switch swaps an adjacent alpha/beta pair while keeping the tableau
alpha-column-strict and beta-row-strict; iterating to a fixed point gives a
normal form independent of the switch order.  The shuffle is one specific
switch strategy; GG-jdt runs the same slide loop but moves an alpha only
past a beta it is out of order with, a content-twisted partial sequence.

Each public entry point validates its input once, through one gate whose
neighbour rule accepts sorted strict tableaux; only other inputs pay for the
global strictness predicates.  A legal switch is an (alpha cell, beta cell)
pair, checked locally: only the pairs that involve the two moved entries can
break strictness.  Only an applied switch builds a tableau, without
re-validating its shape.
"""

from __future__ import annotations

import random
from typing import NamedTuple, Optional

from .shapes import Cell
from .tableaux import (
    MixedTableau,
    _all_fit,
    _sorted_strict,
    is_alpha_column_strict,
    is_beta_row_strict,
    is_flagged_mixed,
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
    # the neighbour rule accepts every sorted strict tableau; the global
    # predicates run only for the rest, to reject or to pick the message
    if _all_fit(T, _sorted_strict):
        return
    if not (is_alpha_column_strict(T) and is_beta_row_strict(T)):
        raise PreconditionViolation(
            "tableau must be alpha-column-strict and beta-row-strict"
        )
    if sorted_ab:
        raise PreconditionViolation("tableau must be (alpha,beta)-sorted")


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


def try_switch(T: MixedTableau, move: SwitchMove) -> Optional[MixedTableau]:
    """Apply one switch if legal, else None.

    The move names a cell that must hold an alpha and a direction, "up" or
    "right" (anything else raises ValueError), whose target must hold a beta;
    the swap must preserve alpha-column-strictness and beta-row-strictness.
    """
    _require_strict(T)
    (r, c) = move.cell
    if move.direction == "up":
        pair = (move.cell, (r + 1, c))
    elif move.direction == "right":
        pair = (move.cell, (r, c + 1))
    else:
        raise ValueError(f"direction must be 'up' or 'right', got {move.direction!r}")
    return T.swapped(*pair) if pair in _legal_switches(T) else None


def available_switches(T: MixedTableau) -> list[tuple[SwitchMove, MixedTableau]]:
    """All legal switches with their results, scanning rows top to bottom
    and columns left to right."""
    _require_strict(T)
    return [
        (SwitchMove(p, "up" if q[0] > p[0] else "right"), T.swapped(p, q))
        for p, q in _legal_switches(T)
    ]


def _legal_switches(T: MixedTableau) -> list[tuple[Cell, Cell]]:
    """The (alpha cell, beta cell) pairs of a strict T whose exchange is
    legal, rows top to bottom, columns left to right, up before right."""
    entries = T.entries
    out = []
    for r in range(len(T.outer), 0, -1):
        for c in range(1, T.outer[r - 1] + 1):
            p = (r, c)
            u = entries.get(p)
            if u is None or u.kind != "a":
                continue
            for q in ((r + 1, c), (r, c + 1)):
                v = entries.get(q)
                if v is None or v.kind != "b":
                    continue
                # T is strict, so the exchange is legal iff the moved alpha
                # keeps T alpha-column-strict and the moved beta keeps it
                # beta-row-strict
                if _fits(T, p, q, 1) and _fits(T, q, p, 0):
                    out.append((p, q))
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
        pairs = _legal_switches(cur)
        if not pairs:
            return cur
        cur = cur.swapped(*(pairs[0] if rng is None else rng.choice(pairs)))
    raise InternalError("fully_switch exceeded its switch budget")


def _dest(entries: dict, cell: Cell, moves) -> Optional[Cell]:
    """Where the alpha at cell moves, given moves(entries, cell), whether it
    may move right and whether it may move up: up when only that applies or
    the upper index is larger, else right if that applies, else None."""
    r, c = cell
    horizontal, vertical = moves(entries, cell)
    if vertical:
        if not horizontal or entries[(r + 1, c)].index > entries[(r, c + 1)].index:
            return (r + 1, c)
    return (r, c + 1) if horizontal else None


def _beta_moves(entries: dict, cell: Cell) -> tuple[bool, bool]:
    """Whether the shuffle moves the alpha at cell past a beta to its right
    and past a beta above it: whenever that beta is there."""
    r, c = cell
    right, up = entries.get((r, c + 1)), entries.get((r + 1, c))
    return right is not None and right.kind == "b", up is not None and up.kind == "b"


def _gg_moves(entries: dict, cell: Cell) -> tuple[bool, bool]:
    """Whether the alpha at cell is out of order with the beta to its right
    and with the beta above it, comparing the beta index shifted by the
    content of its cell."""
    r, c = cell
    i = entries[cell].index
    right, up = entries.get((r, c + 1)), entries.get((r + 1, c))
    return (
        right is not None and right.kind == "b" and i < right.index + (c + 1) - r,
        up is not None and up.kind == "b" and i <= up.index + c - (r + 1),
    )


def _slide(T: MixedTableau, moves, budget: int):
    """Slide alphas of T until _dest(entries, cell, moves) moves none: each
    round moves the alpha of smallest movable index, rightmost on ties, for
    as long as _dest finds it a cell.  Returns the result and the tableau
    after each slide; more than budget slides is a bug."""
    cur, steps = T, []
    while True:
        movable = [
            (e.index, -p[1], p)
            for p, e in cur.entries.items()
            if e.kind == "a" and _dest(cur.entries, p, moves) is not None
        ]
        if not movable:
            return cur, steps
        cell = min(movable)[2]
        to = _dest(cur.entries, cell, moves)
        while to is not None:
            if len(steps) == budget:
                raise InternalError("slide loop exceeded its budget")
            cur = cur.swapped(cell, to)
            steps.append(cur)
            cell, to = to, _dest(cur.entries, to, moves)


def shuffle(T: MixedTableau) -> MixedTableau:
    """The jeu-de-taquin shuffle: a specific switch strategy.

    Repeatedly pick, among alpha entries with a beta directly above or to
    the right, one of smallest index (rightmost on ties, unique by column
    strictness), then switch it past betas until both neighbours are alphas
    or empty; with betas on both sides it moves up when the upper index
    exceeds the right one and right otherwise.
    """
    _require_strict(T, sorted_ab=True)
    return _slide(T, _beta_moves, _switch_budget(T))[0]


def gg_out_of_order(T: MixedTableau) -> list[OutOfOrderWitness]:
    """All out-of-order alpha entries with the applicable slide directions."""
    _require_strict(T)
    return [
        OutOfOrderWitness(p, *moves)
        for p in sorted(T.entries)
        if T.entries[p].kind == "a" and any(moves := _gg_moves(T.entries, p))
    ]


def gg_jdt(T: MixedTableau, trace: bool = False):
    """Goulden-Greene jeu de taquin.

    The shuffle's slide loop, except that an alpha moves only past a beta
    it is out of order with (see gg_out_of_order): slide the rightmost
    alpha of smallest out-of-order index until nothing is out of order.
    With trace=True returns (result, intermediates), the tableau after each
    elementary slide.
    """
    _require_strict(T, sorted_ab=True)
    result, steps = _slide(T, _gg_moves, 2 * _switch_budget(T))
    return (result, steps) if trace else result


def is_biflagged(T: MixedTableau) -> bool:
    """Sorted and strict, with both T and shuffle(T) flagged-mixed."""
    if not (is_flagged_mixed(T) and _all_fit(T, _sorted_strict)):
        return False
    return is_flagged_mixed(_slide(T, _beta_moves, _switch_budget(T))[0])
