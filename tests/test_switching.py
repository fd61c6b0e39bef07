import signal

import pytest

import paper_cases as pc
from oracles import brute_classify, brute_gg_jdt, brute_is_exquisite
from hooktab.enumeration import (
    enum_biflagged,
    enum_exquisite,
    enum_mixed,
    enum_sorted_strict,
)
from hooktab.shapes import skew_shapes
from hooktab import switching
from hooktab.switching import (
    InternalError,
    OutOfOrderWitness,
    PreconditionViolation,
    SwitchMove,
    available_switches,
    fully_switch,
    gg_jdt,
    gg_out_of_order,
    is_biflagged,
    shuffle,
    try_switch,
)
from hooktab.tableaux import MixedTableau, classify_mixed, is_exquisite, weight_mixed
from hooktab.textform import parse_mixed, serialize_mixed


def test_try_switch_first_move_of_example():
    T = parse_mixed(pc.SWITCH_START)
    out = try_switch(T, SwitchMove((1, 4), "right"))
    assert out is not None
    assert serialize_mixed(out) == pc.SWITCH_SECOND


def test_try_switch_requires_alpha():
    T = parse_mixed(pc.SWITCH_START)
    assert try_switch(T, SwitchMove((3, 1), "right")) is None  # beta cell
    assert try_switch(T, SwitchMove((1, 2), "right")) is None  # alpha-alpha
    assert try_switch(T, SwitchMove((1, 6), "up")) is None  # empty target
    for direction in ("down", "Right"):  # only "up" and "right" exist
        with pytest.raises(ValueError, match="direction"):
            try_switch(T, SwitchMove((1, 4), direction))


def test_try_switch_precondition():
    bad = parse_mixed("a1|a1")  # two alpha_1 in a row is fine...
    bad = parse_mixed("a1 / a1")  # ...but not in a column
    with pytest.raises(PreconditionViolation):
        try_switch(bad, SwitchMove((1, 1), "up"))


def test_fully_switched_endpoint_has_no_moves():
    end = parse_mixed(pc.SWITCH_END)
    assert available_switches(end) == []
    for (r, c) in end.cells():
        for d in ("up", "right"):
            assert try_switch(end, SwitchMove((r, c), d)) is None


def test_fully_switch_example():
    T = parse_mixed(pc.SWITCH_START)
    out = fully_switch(T)
    assert serialize_mixed(out) == pc.SWITCH_END
    flags = classify_mixed(out)
    assert flags.alpha_column_strict and flags.beta_row_strict
    assert flags.sorted_beta_alpha
    for seed in range(25):
        assert fully_switch(T, "random", seed) == out


def test_fully_switch_alpha_only():
    T = parse_mixed(".|a2|a1 / a2")
    assert fully_switch(T) == T


def test_shuffle_example_trace():
    T = parse_mixed(pc.SWITCH_START)
    assert serialize_mixed(shuffle(T)) == pc.SWITCH_END
    # replay: after each pick-and-slide round the displayed tableau appears
    # (the trace is validated by construction through fully_switch equality)
    assert shuffle(T) == fully_switch(T)


def test_shuffle_trace_steps_are_switches():
    # every displayed intermediate is reachable and strict
    for text in pc.SHUFFLE_TRACE:
        flags = classify_mixed(parse_mixed(text))
        assert flags.alpha_column_strict and flags.beta_row_strict


def test_shuffle_of_negative_control():
    Q = parse_mixed(pc.NEG_Q)
    assert serialize_mixed(shuffle(Q)) == pc.NEG_Q_SHUFFLED
    assert not classify_mixed(parse_mixed(pc.NEG_Q_SHUFFLED)).flagged_mixed


def test_shuffle_without_adjacency_is_identity():
    # alpha below all betas, sorted, but never adjacent to one
    T = parse_mixed(".|a1 / . / b1")
    assert shuffle(T) == T
    assert fully_switch(T) == T


def _expect_tripwire(run):
    def timeout(signum, frame):
        raise TimeoutError("the switch loop did not stop")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(10)
    try:
        with pytest.raises(InternalError):
            run()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_fully_switch_tripwire(monkeypatch):
    # a switch relation with a cycle must trip the budget, not loop forever
    T = parse_mixed(pc.SWITCH_START)
    pair = switching._legal_switches(T)[0]
    assert T.swapped(*pair).swapped(*pair) == T
    monkeypatch.setattr(switching, "_legal_switches", lambda cur: [pair])
    _expect_tripwire(lambda: fully_switch(T))


def test_shuffle_tripwire(monkeypatch):
    # a slide rule that sends the alpha back and forth must trip the budget
    T = parse_mixed("a1|b1")
    monkeypatch.setattr(
        switching,
        "_dest",
        lambda entries, cell, moves: (cell[0], 2 if cell[1] == 1 else 1),
    )
    _expect_tripwire(lambda: shuffle(T))


def test_gg_jdt_tripwire(monkeypatch):
    # the same budget guards GG-jdt's slides
    T = parse_mixed("a1|b1")
    monkeypatch.setattr(
        switching,
        "_dest",
        lambda entries, cell, moves: (cell[0], 2 if cell[1] == 1 else 1),
    )
    _expect_tripwire(lambda: gg_jdt(T))


def _brute_switches(T):
    """Every legal switch of T in scan order, built through the validating
    constructor and judged by the pair-scan oracle."""
    out = []
    for r in range(len(T.outer), 0, -1):
        for c in range(1, T.outer[r - 1] + 1):
            for direction, q in (("up", (r + 1, c)), ("right", (r, c + 1))):
                u, v = T.entries.get((r, c)), T.entries.get(q)
                if u is None or v is None or (u.kind, v.kind) != ("a", "b"):
                    continue
                entries = dict(T.entries)
                entries[(r, c)], entries[q] = v, u
                S = MixedTableau(T.outer, T.inner, entries)
                flags = brute_classify(S)
                if flags[0] and flags[3]:  # alpha-column, beta-row strict
                    out.append((((r, c), direction), S))
    return out


def test_available_switches_match_brute_force():
    # every state reachable from the switching-theorem inputs ...
    seen = set()
    todo = [
        T
        for outer, inner in skew_shapes(4)
        for T in enum_sorted_strict(outer, inner, 3)
    ]
    while todo:
        T = todo.pop()
        if T in seen:
            continue
        seen.add(T)
        expected = _brute_switches(T)
        assert available_switches(T) == expected, serialize_mixed(T)
        legal = dict(expected)
        for p in T.entries:
            for d in ("up", "right"):
                assert try_switch(T, SwitchMove(p, d)) == legal.get((p, d)), (T, p, d)
        todo.extend(S for _, S in expected)
    # ... and every strict tableau over alphas 1..2 and betas 0..2
    extra = 0
    for outer, inner in skew_shapes(4):
        for T in enum_mixed(outer, inner, (1, 2), (0, 1, 2)):
            flags = brute_classify(T)
            if flags[0] and flags[3] and T not in seen:
                extra += 1
                assert available_switches(T) == _brute_switches(T), serialize_mixed(T)
    assert (len(seen), extra) == (3094, 838)


def test_gg_out_of_order_example():
    Q = parse_mixed(pc.GGJDT_INPUT)
    wits = gg_out_of_order(Q)
    assert (
        OutOfOrderWitness((7, 6), horizontal_applies=True, vertical_applies=False)
        in wits
    )
    # the first slide acts on the rightmost alpha_1, at (7,6)
    smallest = min(Q.entries[w.cell].index for w in wits)
    chosen = max((w for w in wits if Q.entries[w.cell].index == smallest),
                 key=lambda w: w.cell[1])
    assert chosen.cell == (7, 6)

    done = parse_mixed(pc.GGJDT_RESULT)
    assert gg_out_of_order(done) == []

    beta_only = parse_mixed("b2|b1 / b1")
    assert gg_out_of_order(beta_only) == []


def test_gg_jdt_example_trace():
    Q = parse_mixed(pc.GGJDT_INPUT)
    result, steps = gg_jdt(Q, trace=True)
    assert [serialize_mixed(s) for s in steps] == pc.GGJDT_TRACE
    assert serialize_mixed(result) == pc.GGJDT_RESULT
    # the figure displays the states after slides 2, 4, 5, 6 and 7
    shown = [serialize_mixed(steps[i]) for i in (1, 3, 4, 5, 6)]
    assert shown == pc.GGJDT_DISPLAYED_STEPS
    # every intermediate stays strict, moves one alpha one step northeast,
    # and preserves both entry multisets
    prev = Q
    for s in steps:
        flags = classify_mixed(s)
        assert flags.alpha_column_strict and flags.beta_row_strict
        moved = {p for p in prev.entries if prev.entries[p] != s.entries[p]}
        assert len(moved) == 2
        assert sorted(prev.entries[p] for p in moved) == sorted(
            s.entries[p] for p in moved
        )
        (p, q) = sorted(moved)
        assert (q[0] - p[0], q[1] - p[1]) in ((0, 1), (1, 0))
        prev = s


def test_gg_jdt_matches_brute_force():
    # every slide of every switching and bijection input, against the
    # literal rule re-evaluated from scratch after each slide
    inputs = [
        T
        for outer, inner in skew_shapes(5)
        for T in enum_sorted_strict(outer, inner, 3)
    ]
    inputs += [
        T
        for outer, inner in skew_shapes(6)
        for T in enum_biflagged(outer, inner)
    ]
    slides = 0
    for T in inputs:
        result, steps = gg_jdt(T, trace=True)
        end, states = brute_gg_jdt(T)
        assert result.entries == end, serialize_mixed(T)
        assert [s.entries for s in steps] == states, serialize_mixed(T)
        slides += len(steps)
    assert (len(inputs), slides) == (6403, 4403)


def test_gg_jdt_identity_when_in_order():
    done = parse_mixed(pc.GGJDT_RESULT)
    assert gg_out_of_order(done) == []
    T = parse_mixed(".|a1 / b1")
    assert gg_out_of_order(T) == []
    assert gg_jdt(T) == T


def test_ggjdt_partial_switch_consistency():
    Q = parse_mixed(pc.GGJDT_INPUT)
    assert fully_switch(gg_jdt(Q)) == fully_switch(Q)


def test_is_biflagged_examples():
    for text in pc.BFT_331_21:
        assert is_biflagged(parse_mixed(text))
    bad = parse_mixed(pc.BFT_NON_MEMBER)
    assert not is_biflagged(bad)
    assert serialize_mixed(shuffle(bad)) == pc.BFT_NON_MEMBER_SHUFFLED
    assert is_biflagged(parse_mixed(""))


def _precondition_message(run, T):
    try:
        run(T)
    except PreconditionViolation as exc:
        return str(exc)
    return None


def test_preconditions_and_predicates_on_every_small_filling():
    # every filling of every skew shape with |outer| <= 4, alphas 1..3 and
    # betas -2..3: the neighbour rules against the pair-scan oracles
    checked = 0
    for outer, inner in skew_shapes(4):
        for T in enum_mixed(outer, inner, range(1, 4), range(-2, 4)):
            flags = brute_classify(T)
            strict = flags[0] and flags[3]  # alpha-column, beta-row strict
            if not strict:
                expected = "tableau must be alpha-column-strict and beta-row-strict"
            elif not flags[5]:
                expected = "tableau must be (alpha,beta)-sorted"
            else:
                expected = None
            for run in (shuffle, gg_jdt):
                assert _precondition_message(run, T) == expected, (run, T)
            # entry points that take unsorted input reject only non-strict T
            gate = None if strict else expected
            for run in (available_switches, gg_out_of_order):
                assert _precondition_message(run, T) == gate, (run, T)
            assert is_exquisite(T) == brute_is_exquisite(T), T
            if is_biflagged(T):
                assert flags[7] and expected is None, T
            checked += 1
    assert checked == 39_828


def test_ggjdt_maps_bft_to_exq_in_display_order():
    for q_text, e_text in pc.GGJDT_PAIRS:
        assert serialize_mixed(gg_jdt(parse_mixed(q_text))) == e_text


def test_switch_theorem_small_exhaustive():
    # confluence, reverse uniqueness and shuffle agreement at small scale
    for outer, inner in skew_shapes(4):
        normal_forms = {}
        for T in enum_sorted_strict(outer, inner, 3):
            nf = fully_switch(T)
            flags = classify_mixed(nf)
            assert flags.sorted_beta_alpha
            assert shuffle(T) == nf
            for seed in range(5):
                assert fully_switch(T, "random", seed) == nf
            assert fully_switch(gg_jdt(T)) == nf
            key = serialize_mixed(nf)
            assert key not in normal_forms, "two inputs share a normal form"
            normal_forms[key] = T


def test_bft_exq_counts_agree_small():
    for outer, inner in skew_shapes(5):
        assert len(enum_biflagged(outer, inner)) == len(enum_exquisite(outer, inner))
