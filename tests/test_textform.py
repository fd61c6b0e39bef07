import pytest
from hypothesis import given, strategies as st

import paper_cases as pc
from hooktab.tableaux import HookCell, HookValuedTableau, MixedTableau, alpha, beta
from hooktab.textform import (
    TableauSyntaxError,
    parse_hvt,
    parse_mixed,
    parse_tableau,
    serialize_hvt,
    serialize_mixed,
)


def test_parse_example_input():
    T = parse_hvt(pc.UNCROWD_INPUT)
    assert T.shape == (4, 2, 2, 1)
    assert T.cell(1, 4) == HookCell(3, (), (5,))
    assert T.cell(3, 2) == HookCell(5, (7,), (6,))
    assert serialize_hvt(T) == pc.UNCROWD_INPUT


def test_parse_mixed_example():
    Q = parse_mixed(pc.UNCROWD_Q)
    assert Q.outer == (4, 4, 3, 2)
    assert Q.inner == (4, 2, 2, 1)
    assert Q.entry(2, 3) == alpha(2)
    assert Q.entry(4, 2) == beta(3)
    assert serialize_mixed(Q) == pc.UNCROWD_Q


def test_single_row_mixed():
    Q = parse_mixed(".|b3")
    assert Q.outer == (2,) and Q.inner == (1,)
    assert Q.entry(1, 2) == beta(3)


def test_empty_tableaux():
    assert parse_hvt("") == HookValuedTableau(())
    assert serialize_hvt(HookValuedTableau(())) == ""
    empty = parse_mixed("")
    assert empty.outer == () and empty.entries == {}


def test_negative_beta_round_trip():
    Q = parse_mixed(".|b-2|a1 / b0|b3")
    assert Q.entry(1, 2) == beta(-2)
    assert Q.entry(2, 1) == beta(0)
    assert serialize_mixed(Q) == ".|b-2|a1 / b0|b3"


def test_syntax_errors_positions():
    with pytest.raises(TableauSyntaxError) as err:
        parse_hvt("1|0")
    assert err.value.line == 1 and err.value.column == 3
    assert "positive" in err.value.expected

    with pytest.raises(TableauSyntaxError):
        parse_hvt("1|")
    with pytest.raises(TableauSyntaxError):
        parse_hvt("1+^2")
    with pytest.raises(TableauSyntaxError):
        parse_mixed("a0")
    with pytest.raises(TableauSyntaxError):
        parse_mixed("a-1")
    with pytest.raises(TableauSyntaxError):
        parse_mixed("c3")
    with pytest.raises(TableauSyntaxError) as err:
        # dot after an entry is not a skew row
        parse_mixed("b1|.")
    assert err.value.line == 1 and err.value.column == 1
    with pytest.raises(TableauSyntaxError) as err:
        parse_mixed("a1|b2 / b1|.")
    assert err.value.line == 1 and err.value.column == 9
    with pytest.raises(TableauSyntaxError):
        # outer rows must weakly decrease
        parse_mixed("b1 / b1|b1")
    # only ASCII digits make an index
    with pytest.raises(TableauSyntaxError) as err:
        parse_hvt("1²")
    assert err.value.line == 1 and err.value.column == 2
    with pytest.raises(TableauSyntaxError):
        parse_hvt("1|٣")
    with pytest.raises(TableauSyntaxError):
        parse_mixed("a²")


def test_parse_tableau_dispatch():
    assert parse_tableau("1|2", "hvt") == parse_hvt("1|2")
    assert parse_tableau(".|a1", "mixed") == parse_mixed(".|a1")
    with pytest.raises(ValueError):
        parse_tableau("1", "ssyt")


hook_cells = st.builds(
    lambda h, arms, legs: HookCell(
        h, tuple(sorted(h + a for a in arms)), tuple(sorted({h + l for l in legs}))
    ),
    st.integers(1, 9),
    st.lists(st.integers(0, 9), max_size=3),
    st.lists(st.integers(1, 9), max_size=3),
)


@given(st.lists(hook_cells, min_size=1, max_size=6))
def test_hvt_round_trip_single_row(cells):
    # serialization round-trips regardless of semistandardness
    T = HookValuedTableau((tuple(cells),))
    assert parse_hvt(serialize_hvt(T)) == T


@given(
    st.integers(1, 4),
    st.integers(0, 3),
    st.data(),
)
def test_mixed_round_trip(width, inner_width, data):
    inner_width = min(inner_width, width - 1) if width > inner_width else width
    outer = (width,)
    inner = (inner_width,) if inner_width else ()
    entries = {}
    for c in range(inner_width + 1, width + 1):
        kind = data.draw(st.sampled_from(["a", "b"]))
        if kind == "a":
            entries[(1, c)] = alpha(data.draw(st.integers(1, 9)))
        else:
            entries[(1, c)] = beta(data.draw(st.integers(-9, 9)))
    T = MixedTableau(outer, inner, entries)
    assert parse_mixed(serialize_mixed(T)) == T
