from itertools import product

import pytest
from hypothesis import given, strategies as st

import paper_cases as pc
from oracles import brute_classify
from hooktab.polynomials import Monomial
from hooktab.shapes import skew_cells, skew_shapes
from hooktab.tableaux import (
    HookCell,
    HookValuedTableau,
    MixedEntry,
    MixedTableau,
    NonpositiveBetaIndex,
    alpha,
    beta,
    c_beta_shift,
    classify_mixed,
    hvt_violations,
    is_alpha_column_strict,
    is_alpha_row_strict,
    is_beta_column_strict,
    is_beta_row_strict,
    is_exquisite,
    is_flagged_mixed,
    is_sorted_alpha_beta,
    is_sorted_beta_alpha,
    is_totally_column_strict,
    validate_hvt,
    weight_hvt,
    weight_mixed,
)
from hooktab.textform import parse_hvt, parse_mixed

# the named predicates in the field order of StrictnessFlags / brute_classify
PREDICATES = (
    is_alpha_column_strict,
    is_alpha_row_strict,
    is_beta_column_strict,
    is_beta_row_strict,
    is_totally_column_strict,
    is_sorted_alpha_beta,
    is_sorted_beta_alpha,
    is_flagged_mixed,
)


def brute_force_violations(T):
    """Direct double loop over all entry pairs of adjacent cells."""
    out = set()
    for (r, c), cell in T.cells():
        right = T.cell_at(r, c + 1)
        if right is not None:
            for u in cell.entries():
                for v in right.entries():
                    if u > v:
                        out.add(("RowViolation", (r, c), (r, c + 1)))
        above = T.cell_at(r + 1, c)
        if above is not None:
            for u in cell.entries():
                for v in above.entries():
                    if u >= v:
                        out.add(("ColumnViolation", (r, c), (r + 1, c)))
    return out


def test_t1_is_valid_with_pinned_weight():
    T = parse_hvt(pc.T1)
    assert hvt_violations(T) == []
    w = pc.T1_WEIGHT
    assert weight_hvt(T) == Monomial(x=w["x"], a=w["a"], b=w["b"])


def test_t2_reports_every_violation():
    T = parse_hvt(pc.T2)
    assert set(hvt_violations(T)) == pc.T2_VIOLATIONS
    assert brute_force_violations(T) == pc.T2_VIOLATIONS


def test_validate_hvt_from_cell_map():
    T = parse_hvt(pc.T1)
    cells = {pos: cell for pos, cell in T.cells()}
    built, errors = validate_hvt(T.shape, cells)
    assert errors == [] and built == T

    _, errors = validate_hvt((2, 1), cells)
    assert errors == [("DomainMismatch", (2, 1))]

    built, errors = validate_hvt((), {})
    assert errors == [] and built == HookValuedTableau(())


def test_hook_shape_violation():
    bad = HookValuedTableau(((HookCell(3, (2,), ()),),))
    assert hvt_violations(bad) == [("HookShapeViolation", (1, 1))]
    bad = HookValuedTableau(((HookCell(2, (), (2,)),),))
    assert hvt_violations(bad) == [("HookShapeViolation", (1, 1))]


def test_weight_examples():
    # brute-force count of the displayed entries: 1,1,1,3 / 2,2,4,5 / 3,5,7 / 4,6
    P = parse_hvt(pc.UNCROWD_P)
    assert weight_hvt(P) == Monomial(x={1: 3, 2: 2, 3: 2, 4: 2, 5: 2, 6: 1, 7: 1})
    assert weight_hvt(HookValuedTableau(())) == Monomial()


def test_weight_mixed_examples():
    Q = parse_mixed(pc.UNCROWD_Q)
    assert weight_mixed(Q) == Monomial(a={2: 2}, b={1: 1, 3: 1})
    first_exq = parse_mixed(pc.EXQ_331_21[0])
    assert weight_mixed(first_exq) == Monomial(a={1: 1, 2: 1}, b={1: 1, 2: 1})
    assert weight_mixed(parse_mixed("")) == Monomial()
    with pytest.raises(NonpositiveBetaIndex):
        weight_mixed(parse_mixed("b0"))


def test_classify_ggjdt_example():
    Q = parse_mixed(pc.GGJDT_INPUT)
    flags = classify_mixed(Q)
    assert flags.alpha_column_strict
    assert flags.beta_row_strict
    assert flags.sorted_alpha_beta
    assert flags.flagged_mixed
    shifted = parse_mixed(pc.GGJDT_CBETA_PLUS)
    assert classify_mixed(shifted).totally_column_strict


def test_classify_single_cell_all_true():
    T = parse_mixed(".|a1")
    assert all(classify_mixed(T))


def test_named_predicates_match_brute_force_examples():
    for text in (pc.GGJDT_INPUT, pc.GGJDT_CBETA_PLUS, ".|a1"):
        T = parse_mixed(text)
        assert tuple(pred(T) for pred in PREDICATES) == brute_classify(T)


def test_sortedness_matches_pair_scan_on_every_kind_pattern():
    # the neighbour rule of _is_sorted against the row-by-row oracle, on
    # every alpha/beta pattern of every skew shape with |outer| <= 7
    cases = 0
    for outer, inner in skew_shapes(7):
        cells = sorted(skew_cells(outer, inner))
        for kinds in product((alpha(1), beta(1)), repeat=len(cells)):
            T = MixedTableau(outer, inner, dict(zip(cells, kinds)))
            got = (is_sorted_alpha_beta(T), is_sorted_beta_alpha(T))
            assert got == brute_classify(T)[5:7], T
            cases += 2
    assert cases == 14_726


def test_swapped_matches_validating_constructor():
    T = parse_mixed(pc.GGJDT_INPUT)
    cells = T.cells()
    for p, q in zip(cells, cells[1:]):
        S = T.swapped(p, q)
        built = MixedTableau(T.outer, T.inner, S.entries)
        assert S == built and hash(S) == hash(built)
        assert S.entries[p] == T.entries[q] and S.entries[q] == T.entries[p]


def test_equality_compares_shapes_and_entries():
    # equal entries inserted in another order: equal tableaux, equal hashes
    T = parse_mixed(pc.GGJDT_INPUT)
    U = MixedTableau(T.outer, T.inner, dict(reversed(T.entries.items())))
    assert list(U.entries) != list(T.entries)
    assert U == T and hash(U) == hash(T)
    # the same cells and entries on different shapes stay unequal
    for S, R in (
        (
            MixedTableau((2, 1), (1, 1), {(1, 2): alpha(1)}),
            MixedTableau((2,), (1,), {(1, 2): alpha(1)}),
        ),
        (MixedTableau((1,), (1,), {}), MixedTableau((), (), {})),
    ):
        assert S != R and R != S


def test_constructor_rejects_bad_fillings():
    with pytest.raises(ValueError):
        MixedTableau((2,), (), {(1, 1): alpha(1)})  # cell (1,2) missing
    with pytest.raises(ValueError):
        MixedTableau((1,), (), {(1, 1): alpha(1), (2, 1): beta(1)})  # extra cell
    for k in (0, -1):
        with pytest.raises(ValueError):
            MixedTableau((1,), (), {(1, 1): MixedEntry("a", k)})
        message = f"^alpha index must be positive, got {k}$"
        with pytest.raises(ValueError, match=message):
            alpha(k)


def test_c_beta_shift_pinned():
    E = parse_mixed(pc.GGJDT_RESULT)
    assert c_beta_shift(E, "+") == parse_mixed(pc.GGJDT_CBETA_PLUS)
    assert c_beta_shift(c_beta_shift(E, "+"), "-") == E
    # single beta_2 at (3,1), content -2, shifts to beta_0
    T = parse_mixed(". / . / b2")
    assert c_beta_shift(T, "+").entry(3, 1) == beta(0)


def test_is_exquisite_examples():
    for text in pc.EXQ_331_21:
        assert is_exquisite(parse_mixed(text))
    # no beta works at (2,3) of (3,3,1)/(2,1): k=1 breaks the shifted
    # strictness below alpha_2, k>=2 breaks the flag
    for k in (1, 2):
        T = parse_mixed(f".|.|a2 / .|a1|b{k} / b2")
        assert not is_exquisite(T)
    assert is_exquisite(parse_mixed(""))


def test_exquisite_rejects_unflagged():
    # beta_1 at (1,2) fails 0 < k < i
    assert not is_exquisite(parse_mixed(".|b1"))


def _build_mixed(widths, data):
    outer = tuple(sorted(widths, reverse=True))
    inner_parts = []
    for w in outer:
        prev = inner_parts[-1] if inner_parts else w
        inner_parts.append(data.draw(st.integers(0, min(prev, w))))
    # make inner weakly decreasing from the bottom
    for i in range(1, len(inner_parts)):
        inner_parts[i] = min(inner_parts[i], inner_parts[i - 1])
    inner = tuple(p for p in inner_parts if p)
    entries = {}
    for cell in skew_cells(outer, inner):
        if data.draw(st.booleans()):
            entries[cell] = alpha(data.draw(st.integers(1, 5)))
        else:
            entries[cell] = beta(data.draw(st.integers(-4, 5)))
    return MixedTableau(outer, inner, entries)


@given(st.data())
def test_c_beta_shift_round_trip(data):
    T = _build_mixed(data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)), data)
    assert c_beta_shift(c_beta_shift(T, "+"), "-") == T
    assert c_beta_shift(c_beta_shift(T, "-"), "+") == T
    plus = c_beta_shift(T, "+")
    for cell in T.cells():
        e = T.entries[cell]
        if e.kind == "a":
            assert plus.entries[cell] == e


@given(st.data())
def test_classify_matches_brute_force(data):
    T = _build_mixed(data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)), data)
    assert tuple(classify_mixed(T)) == brute_classify(T)


@given(st.data())
def test_named_predicates_match_brute_force(data):
    T = _build_mixed(data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)), data)
    assert tuple(pred(T) for pred in PREDICATES) == brute_classify(T)
