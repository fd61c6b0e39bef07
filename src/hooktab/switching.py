"""Tableau switching, the jeu-de-taquin shuffle, and GG-jdt slides.

A switch swaps an adjacent alpha/beta pair while keeping the tableau
alpha-column-strict and beta-row-strict; iterating to a fixed point gives a
normal form independent of the switch order.  The shuffle is one specific
switch strategy; GG-jdt performs a content-twisted partial switch sequence.
"""

from __future__ import annotations

import random
from typing import NamedTuple, Optional

from .shapes import Cell
from .tableaux import MixedTableau, classify_mixed


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
    flags = classify_mixed(T)
    if not (flags.alpha_column_strict and flags.beta_row_strict):
        raise PreconditionViolation(
            "tableau must be alpha-column-strict and beta-row-strict"
        )
    if sorted_ab and not flags.sorted_alpha_beta:
        raise PreconditionViolation("tableau must be (alpha,beta)-sorted")


def _target(move: SwitchMove) -> Cell:
    (r, c) = move.cell
    return (r + 1, c) if move.direction == "up" else (r, c + 1)


def _try_switch_unchecked(T: MixedTableau, move: SwitchMove) -> Optional[MixedTableau]:
    u = T.entry(*move.cell)
    if u is None or u.kind != "a":
        return None
    v = T.entry(*_target(move))
    if v is None or v.kind != "b":
        return None
    swapped = T.swapped(move.cell, _target(move))
    flags = classify_mixed(swapped)
    if flags.alpha_column_strict and flags.beta_row_strict:
        return swapped
    return None


def try_switch(T: MixedTableau, move: SwitchMove) -> Optional[MixedTableau]:
    """Apply one switch if legal, else None.

    The move names a cell that must hold an alpha and a direction whose
    target must hold a beta; the swap must preserve alpha-column-strictness
    and beta-row-strictness.
    """
    _require_strict(T)
    return _try_switch_unchecked(T, move)


def available_switches(T: MixedTableau) -> list[tuple[SwitchMove, MixedTableau]]:
    """All legal switches with their results, scanning rows top to bottom
    and columns left to right."""
    _require_strict(T)
    out = []
    for r in range(len(T.outer), 0, -1):
        for c in range(1, T.outer[r - 1] + 1):
            for direction in ("up", "right"):
                move = SwitchMove((r, c), direction)
                res = _try_switch_unchecked(T, move)
                if res is not None:
                    out.append((move, res))
    return out


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
    # each switch moves one alpha one cell up or right, so the sum of r+c
    # over alpha cells strictly increases: n_alpha * num_cells bounds the loop
    n_alpha = sum(1 for e in T.entries.values() if e.kind == "a")
    budget = n_alpha * T.num_cells
    cur = T
    for _ in range(budget + 1):
        moves = available_switches(cur)
        if not moves:
            return cur
        if rng is None:
            cur = moves[0][1]
        else:
            cur = rng.choice(moves)[1]
    raise InternalError("fully_switch exceeded its switch budget")


def shuffle(T: MixedTableau) -> MixedTableau:
    """The jeu-de-taquin shuffle: a specific switch strategy.

    Repeatedly pick, among alpha entries with a beta directly above or to
    the right, one of smallest index (rightmost on ties, unique by column
    strictness), then switch it past betas until both neighbours are alphas
    or empty; with betas on both sides it moves up when the upper index
    exceeds the right one and right otherwise.
    """
    _require_strict(T, sorted_ab=True)
    entries = dict(T.entries)

    def beta_at(p):
        e = entries.get(p)
        return e if e is not None and e.kind == "b" else None

    while True:
        eligible = [
            (p, e.index)
            for p, e in entries.items()
            if e.kind == "a"
            and (beta_at((p[0] + 1, p[1])) or beta_at((p[0], p[1] + 1)))
        ]
        if not eligible:
            break
        smallest = min(i for _, i in eligible)
        r, c = max((p for p, i in eligible if i == smallest), key=lambda p: p[1])
        while True:
            up = beta_at((r + 1, c))
            right = beta_at((r, c + 1))
            if up is not None and right is not None:
                go_up = up.index > right.index
            elif up is not None:
                go_up = True
            elif right is not None:
                go_up = False
            else:
                break
            dest = (r + 1, c) if go_up else (r, c + 1)
            entries[(r, c)], entries[dest] = entries[dest], entries[(r, c)]
            r, c = dest
    return T.with_entries(entries)


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
    n_alpha = sum(1 for e in T.entries.values() if e.kind == "a")
    budget = 2 * n_alpha * T.num_cells
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
    flags = classify_mixed(T)
    if not (
        flags.alpha_column_strict
        and flags.beta_row_strict
        and flags.sorted_alpha_beta
    ):
        return False
    if not flags.flagged_mixed:
        return False
    return classify_mixed(shuffle(T)).flagged_mixed
