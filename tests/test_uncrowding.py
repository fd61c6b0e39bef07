import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import paper_cases as pc
from hooktab import uncrowding
from hooktab.enumeration import EnumBounds, enum_hvt
from hooktab.shapes import partitions_up_to
from hooktab.switching import InternalError
from hooktab.tableaux import (
    HookCell,
    HookValuedTableau,
    MixedTableau,
    alpha,
    beta,
    hvt_violations,
    weight_hvt,
    weight_mixed,
)
from hooktab.textform import parse_hvt, parse_mixed, serialize_hvt, serialize_mixed
from hooktab.uncrowding import (
    BumpRecord,
    arm_bump,
    arm_uncrowd,
    has_type,
    leg_bump,
    leg_uncrowd,
    uncrowd,
    uncrowd_canonical,
)


def simulate_one_arm_bump(T):
    """Independent single-step simulator working on raw entry lists.

    Cells are dicts {"h": int, "A": list, "L": list}; the bumped arm moves
    by the textbook rules with no shared code with the library.
    """
    cells = {
        pos: {"h": cell.hook, "A": list(cell.arms), "L": list(cell.legs)}
        for pos, cell in T.cells()
    }
    arm_cols = [c for (r, c), d in cells.items() if d["A"]]
    if not arm_cols:
        return cells
    col = max(arm_cols)
    a = max(v for (r, c), d in cells.items() if c == col for v in d["A"])
    (r, c) = next(p for p, d in cells.items() if p[1] == col and a in d["A"])
    cells[(r, c)]["A"].remove(a)
    column_right = {p: d for p, d in cells.items() if p[1] == col + 1}
    bigger = [
        (v, p) for p, d in column_right.items()
        for v in [d["h"]] + d["A"] + d["L"] if v >= a
    ]
    if bigger:
        k, target = min(bigger)
        d = cells[target]
        if d["h"] == k:
            d["h"] = a
        else:
            d["L"][d["L"].index(k)] = a
            d["L"].sort()
        d["A"] = sorted(d["A"] + [k])
        if target[0] == r:
            movers = [l for l in cells[(r, c)]["L"] if l > a]
            cells[(r, c)]["L"] = [l for l in cells[(r, c)]["L"] if l <= a]
            d["L"] = sorted(d["L"] + movers)
    else:
        height = max((p[0] for p in cells if p[1] == col + 1), default=0)
        new = (height + 1, col + 1)
        cells[new] = {"h": a, "A": [], "L": []}
        if new == (r, c + 1):
            movers = [l for l in cells[(r, c)]["L"] if l > a]
            cells[(r, c)]["L"] = [l for l in cells[(r, c)]["L"] if l <= a]
            cells[new]["L"] = sorted(movers)
    return cells


def simulate_one_leg_bump(T):
    """Dual of simulate_one_arm_bump, on the same raw dicts: the largest leg
    of the topmost leg row moves one row up, to the smallest entry strictly
    larger than it (leftmost on ties), and arms >= it follow it."""
    cells = {
        pos: {"h": cell.hook, "A": list(cell.arms), "L": list(cell.legs)}
        for pos, cell in T.cells()
    }
    leg_rows = [r for (r, c), d in cells.items() if d["L"]]
    if not leg_rows:
        return cells
    row = max(leg_rows)
    l = max(v for (r, c), d in cells.items() if r == row for v in d["L"])
    (r, c) = next(p for p, d in cells.items() if p[0] == row and l in d["L"])
    cells[(r, c)]["L"].remove(l)
    row_above = {p: d for p, d in cells.items() if p[0] == row + 1}
    bigger = [
        (v, p) for p, d in row_above.items()
        for v in [d["h"]] + d["A"] + d["L"] if v > l
    ]
    if bigger:
        k, target = min(bigger)
        d = cells[target]
        if d["h"] == k:
            d["h"] = l
        else:
            d["A"][d["A"].index(k)] = l
            d["A"].sort()
        d["L"] = sorted(d["L"] + [k])
        if target[1] == c:
            movers = [a for a in cells[(r, c)]["A"] if a >= l]
            cells[(r, c)]["A"] = [a for a in cells[(r, c)]["A"] if a < l]
            d["A"] = sorted(d["A"] + movers)
    else:
        width = max((p[1] for p in cells if p[0] == row + 1), default=0)
        new = (row + 1, width + 1)
        cells[new] = {"h": l, "A": [], "L": []}
        if new == (r + 1, c):
            movers = [a for a in cells[(r, c)]["A"] if a >= l]
            cells[(r, c)]["A"] = [a for a in cells[(r, c)]["A"] if a < l]
            cells[new]["A"] = sorted(movers)
    return cells


def small_hvts():
    """Every hook-valued tableau with |lambda| <= 4, entries <= 3 and
    excess <= 2."""
    out = [T for lam in partitions_up_to(4) for T in enum_hvt(lam, EnumBounds(3, 2))]
    assert len(out) == 2103
    return out


def cells_of(T):
    return {
        pos: {"h": cell.hook, "A": list(cell.arms), "L": list(cell.legs)}
        for pos, cell in T.cells()
    }


def test_arm_bump_trace():
    T = parse_hvt(pc.ARM_BUMP_TRACE[0])
    assert hvt_violations(T) == []
    for expected in pc.ARM_BUMP_TRACE[1:]:
        T, record = arm_bump(T)
        assert record is not None
        assert serialize_hvt(T) == expected
        assert hvt_violations(T) == []


def test_arm_bump_matches_simulator():
    for start in (pc.ARM_BUMP_TRACE[0], pc.UNCROWD_INPUT, pc.T1):
        T = parse_hvt(start)
        bumped, _ = arm_bump(T)
        assert cells_of(bumped) == simulate_one_arm_bump(T)
    for T in small_hvts():
        bumped, _ = arm_bump(T)
        assert cells_of(bumped) == simulate_one_arm_bump(T)


def test_leg_bump_matches_simulator():
    for start in (pc.LEG_BUMP_TRACE[0], pc.UNCROWD_INPUT, pc.T1):
        T = parse_hvt(start)
        bumped, _ = leg_bump(T)
        assert cells_of(bumped) == simulate_one_leg_bump(T)
    for T in small_hvts():
        bumped, _ = leg_bump(T)
        assert cells_of(bumped) == simulate_one_leg_bump(T)


def test_arm_bump_identity_without_arms():
    P = parse_hvt(pc.UNCROWD_P)
    out, record = arm_bump(P)
    assert out == P and record is None


def test_leg_bump_trace():
    T = parse_hvt(pc.LEG_BUMP_TRACE[0])
    assert hvt_violations(T) == []
    for expected in pc.LEG_BUMP_TRACE[1:]:
        T, record = leg_bump(T)
        assert record is not None
        assert serialize_hvt(T) == expected
        assert hvt_violations(T) == []


def test_leg_bump_identity_without_legs():
    T = parse_hvt("1|1+2 / 2")
    out, record = leg_bump(T)
    assert out == T and record is None


def test_arm_uncrowd_records():
    T = parse_hvt(pc.ARM_BUMP_TRACE[0])
    out, record = arm_uncrowd(T)
    assert serialize_hvt(out) == pc.ARM_BUMP_TRACE[-1]
    assert record.origin == (2, 2)
    assert record.created == (1, 5)

    T = parse_hvt(pc.UNCROWD_INPUT)
    out, record = arm_uncrowd(T)
    assert serialize_hvt(out) == pc.UNCROWD_TRACE[0]
    origin_col, created = pc.UNCROWD_FIRST_ARM
    assert record.origin[1] == origin_col and record.created == created


def test_leg_uncrowd_records():
    T = parse_hvt(pc.LEG_BUMP_TRACE[0])
    out, record = leg_uncrowd(T)
    assert serialize_hvt(out) == pc.LEG_BUMP_TRACE[-1]
    assert record.origin == (1, 2)
    assert record.created == (3, 2)

    T = parse_hvt(pc.UNCROWD_TRACE[1])  # A^2(T) of the running example
    out, record = leg_uncrowd(T)
    assert serialize_hvt(out) == pc.UNCROWD_TRACE[2]
    origin_row, created = pc.UNCROWD_FIRST_LEG
    assert record.origin[0] == origin_row and record.created == created


def test_uncrowd_full_example():
    T = parse_hvt(pc.UNCROWD_INPUT)
    result = uncrowd(T, "LLAA")
    assert serialize_hvt(result.insertion) == pc.UNCROWD_P
    assert serialize_mixed(result.recording) == pc.UNCROWD_Q
    assert len(result.records) == 4

    cur = T
    seen = []
    for letter in reversed("LLAA"):
        cur, _ = (arm_uncrowd if letter == "A" else leg_uncrowd)(cur)
        seen.append(serialize_hvt(cur))
    assert seen == pc.UNCROWD_TRACE


def test_uncrowd_word_validation():
    with pytest.raises(ValueError):
        uncrowd(HookValuedTableau(()), "AXL")


def test_uncrowd_ssyt_is_identity():
    P = parse_hvt(pc.UNCROWD_P)
    result = uncrowd(P, "ALLA")
    assert result.insertion == P
    assert result.recording.num_cells == 0
    assert result.records == ()


def test_uncrowd_single_arm_step_derived():
    # hand-simulated single bump chain on the weight example (oracle below)
    T = parse_hvt(pc.T1)
    result = uncrowd(T, "A")
    assert serialize_hvt(result.insertion) == "1+1^2|3+3,4^4|4+4|5^9 / 3+3,5^4,6|6+7"
    assert serialize_mixed(result.recording) == ".|.|.|a3 / .|."
    assert cells_of(result.insertion) == simulate_one_arm_bump(T)


def test_uncrowd_canonical_orders():
    T = parse_hvt(pc.UNCROWD_INPUT)
    res = uncrowd_canonical(T, "LA")
    assert serialize_hvt(res.insertion) == pc.UNCROWD_P
    assert serialize_mixed(res.recording) == pc.UNCROWD_Q
    assert res.insertion.arm_excess == 0 and res.insertion.leg_excess == 0

    zero = parse_hvt(pc.UNCROWD_P)
    res = uncrowd_canonical(zero, "AL")
    assert res.insertion == zero and res.recording.num_cells == 0

    with pytest.raises(ValueError):
        uncrowd_canonical(T, "XY")


def test_uncrowd_canonical_leg_continuation():
    # arm-only image continued by leg uncrowding (negative-control setup)
    P1 = parse_hvt(pc.NEG_P1)
    cur = P1
    seen = []
    while cur.leg_excess:
        cur, _ = leg_uncrowd(cur)
        seen.append(serialize_hvt(cur))
    assert seen == pc.NEG_LEG_CONTINUATION

    res = uncrowd_canonical(P1, "LA")
    assert serialize_hvt(res.insertion) == pc.NEG_P
    combined = {(1, 2): alpha(1)}
    combined.update(res.recording.entries)
    Q = MixedTableau(res.insertion.shape, pc.NEG_Q1_INNER, combined)
    assert serialize_mixed(Q) == pc.NEG_Q


def test_has_type_examples():
    T = parse_hvt(pc.TYPE_EXAMPLE)
    assert hvt_violations(T) == []
    for word in pc.TYPE_HAS:
        assert has_type(T, word)
    assert not has_type(T, [("A", 0)])
    # a no-op bump never creates a cell
    ssyt = parse_hvt(pc.UNCROWD_P)
    assert not has_type(ssyt, [("A", 1)])
    assert has_type(ssyt, [("A", 0), ("L", 0)])
    with pytest.raises(ValueError):
        # checked before any bump, even one that already fails the type
        has_type(ssyt, [("B", 1), ("A", 1)])
    with pytest.raises(ValueError):
        has_type(T, [("B", 1)])


def test_uncrowd_step_invariants():
    # one arm uncrowding: one new cell, arm excess down one, legs and the
    # entry multiset unchanged (dually for legs)
    for lam in ((2, 1), (3,), (1, 1)):
        for T in enum_hvt(lam, EnumBounds(3, 2)):
            if T.arm_excess:
                out, rec = arm_uncrowd(T)
                assert out.num_cells == T.num_cells + 1
                assert out.arm_excess == T.arm_excess - 1
                assert out.leg_excess == T.leg_excess
                assert out.entry_multiset() == T.entry_multiset()
            if T.leg_excess:
                out, rec = leg_uncrowd(T)
                assert out.num_cells == T.num_cells + 1
                assert out.leg_excess == T.leg_excess - 1
                assert out.arm_excess == T.arm_excess
                assert out.entry_multiset() == T.entry_multiset()


def test_uncrowd_weight_preservation():
    for lam in ((2, 1), (2,)):
        for T in enum_hvt(lam, EnumBounds(3, 2)):
            for order in ("LA", "AL"):
                res = uncrowd_canonical(T, order)
                assert weight_hvt(T) == weight_hvt(res.insertion) * weight_mixed(
                    res.recording
                )


def test_uncrowd_step_tripwire(monkeypatch):
    # a move that never grows the shape must trip the step's budget, not loop
    T = parse_hvt(pc.ARM_BUMP_TRACE[0])
    stuck = BumpRecord("arm", (2, 2), None, 1)
    monkeypatch.setattr(uncrowding, "_move", lambda grid, arm, line, pos: (stuck, pos))

    def timeout(signum, frame):
        raise TimeoutError("the uncrowding step did not stop")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(10)
    try:
        with pytest.raises(InternalError):
            arm_uncrowd(T)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_uncrowd_fill_tripwire(monkeypatch):
    # a step that reports an earlier step's created cell leaves a grown cell
    # without a recording entry
    step, created = uncrowding._step, []

    def repeating(grid, arm):
        rec = step(grid, arm)
        created.append(rec.created)
        return rec._replace(created=created[0])

    monkeypatch.setattr(uncrowding, "_step", repeating)
    with pytest.raises(InternalError, match="do not fill"):
        uncrowd(parse_hvt(pc.UNCROWD_INPUT), "LLAA")


def step_by_bumps(T, uncrowd_step, bump):
    """uncrowd_step(T), checked against bump repeated until the shape grows;
    whether the step took more than one bump."""
    out, rec = uncrowd_step(T)
    cur, first = bump(T)
    if first is None:
        assert out is T and rec is None
        return out, False
    last = first
    while last.created is None:
        cur, last = bump(cur)
        assert last is not None
    assert out == cur
    assert rec == first._replace(created=last.created)
    return out, first is not last


def test_uncrowd_step_equals_repeated_bumps():
    # a step searches once and follows the bumped value, where the public
    # bumps search on every bump; the steps run in both canonical orders, so
    # they also start from the grown shapes those pass through
    arm, leg = (arm_uncrowd, arm_bump), (leg_uncrowd, leg_bump)
    chains = 0
    for lam in partitions_up_to(3):
        for T in enum_hvt(lam, EnumBounds(4, 3)):
            for order in ((arm, leg), (leg, arm)):
                cur = T
                for uncrowd_step, bump in order:
                    while True:
                        out, chained = step_by_bumps(cur, uncrowd_step, bump)
                        chains += chained
                        if out is cur:
                            break
                        cur = out
    assert chains > 1000


def tableau_of(cells):
    """The HookValuedTableau of a raw cell dict."""
    rows = {}
    for r, c in sorted(cells):
        d = cells[(r, c)]
        rows.setdefault(r, []).append(HookCell(d["h"], d["A"], d["L"]))
    return HookValuedTableau(rows[r] for r in sorted(rows))


def simulate_uncrowd_canonical(T, order):
    """Canonical uncrowding by the raw-dict simulators alone: bump until a
    cell appears, record alpha_c (beta_r) for the rightmost arm column
    (topmost leg row) the step started from, and run every arm step before
    every leg step for "LA" and the reverse for "AL"."""
    cells = cells_of(T)
    q_entries = {}
    for letter in reversed(order):  # "A" and "L" also key the raw arm and leg lists
        sim = simulate_one_arm_bump if letter == "A" else simulate_one_leg_bump
        while any(d[letter] for d in cells.values()):
            line = max(p[1] if letter == "A" else p[0] for p, d in cells.items() if d[letter])
            before = set(cells)
            while set(cells) == before:
                cells = sim(tableau_of(cells))
            (created,) = set(cells) - before
            q_entries[created] = alpha(line) if letter == "A" else beta(line)
    P = tableau_of(cells)
    return P, MixedTableau(P.shape, T.shape, q_entries)


def test_uncrowd_canonical_matches_simulator():
    # the raw-dict simulators share no code with uncrowding
    for T in small_hvts():
        for order in ("LA", "AL"):
            res = uncrowd_canonical(T, order)
            assert (res.insertion, res.recording) == simulate_uncrowd_canonical(T, order)


def test_local_check_equals_full_check():
    # every one-cell replacement of a valid tableau: the check of the
    # replaced cell and its neighbours sees exactly what hvt_violations sees
    pool = [HookCell(h) for h in range(1, 5)]
    pool += [HookCell(h, (e,)) for h in range(1, 5) for e in range(1, 5)]
    pool += [HookCell(h, (), (e,)) for h in range(1, 5) for e in range(1, 5)]
    pool += [HookCell(1, (2, 2)), HookCell(1, (3, 2)), HookCell(1, (), (2, 3)), HookCell(1, (), (3, 3))]
    outcomes = []
    for lam in partitions_up_to(3):
        for T in enum_hvt(lam, EnumBounds(3, 2)):
            for (r, c), _ in T.cells():
                for x in pool:
                    U = T.replace(r, c, x)
                    broken = uncrowding._broken(uncrowding._grid(U), r, c)
                    assert broken == bool(hvt_violations(U)), (U, r, c)
                    outcomes.append(broken)
    assert any(outcomes) and not all(outcomes)


BREAKING_BUMP = """\
from hooktab.switching import InternalError
from hooktab.tableaux import HookCell, HookValuedTableau
from hooktab.uncrowding import arm_bump
# the arm 4 moves into (1, 2), right of the larger leg 6 of (1, 1)
T = HookValuedTableau([[HookCell(1, (), (6,)), HookCell(5)], [HookCell(2, (4,))]])
try:
    arm_bump(T)
except InternalError as exc:
    print(exc)
"""


def test_bump_check_survives_optimize(capsys):
    # the check raises InternalError in process and under python -O, which
    # strips asserts
    expected = (
        "bump produced an invalid tableau: "
        "[('RowViolation', (1, 1), (1, 2)), ('ColumnViolation', (1, 1), (2, 1))]\n"
    )
    exec(BREAKING_BUMP, {})
    assert capsys.readouterr().out == expected
    src = str(Path(uncrowding.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-B", "-O", "-c", BREAKING_BUMP],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.stdout == expected, done.stderr
