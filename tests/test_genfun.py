from collections import Counter
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

import paper_cases as pc
from oracles import (
    bialternant,
    det_by_permutations,
    det_entry,
    det_entry_by_series,
)
from hooktab.enumeration import EnumBounds, enum_hvt
from hooktab.genfun import (
    det_formula_check,
    determinant_side,
    extract_weight_counts,
    hvt_genfun,
    schur_expansion_genfun,
    schur_poly,
    vandermonde,
)
from hooktab.polynomials import (
    MAX_INDEX,
    CapMismatch,
    CapTooSmall,
    Monomial,
    TruncatedPolynomial,
    alpha_mono,
    beta_mono,
    determinant,
    exact_divide,
    poly_add,
    poly_mul,
    x_mono,
)
from hooktab.shapes import partitions_up_to
from hooktab.tableaux import weight_hvt


def P(terms, cap):
    return TruncatedPolynomial(terms, cap)


def test_monomial_basics():
    m = Monomial(x={1: 2, 3: 1}, a={1: 1})
    assert str(m) == "x1^2 x3 a1"
    assert m.x_degree == 3 and m.alpha_degree == 1 and m.beta_degree == 0
    assert m * Monomial(x={1: 1}) == Monomial(x={1: 3, 3: 1}, a={1: 1})
    assert str(Monomial()) == "1"
    with pytest.raises(ValueError):
        Monomial(x={0: 1})
    assert Monomial(b={MAX_INDEX: 1}).b == ((MAX_INDEX, 1),)
    with pytest.raises(ValueError, match="above the limit"):
        Monomial(b={MAX_INDEX + 1: 1})


def test_monomial_reports_the_first_bad_power():
    with pytest.raises(ValueError, match=r"^bad variable power \(0, 1\)$"):
        Monomial(x={0: 1})
    with pytest.raises(ValueError, match=r"^bad variable power \(2, -1\)$"):
        Monomial(a={1: 1, 2: -1})
    with pytest.raises(ValueError, match=f"^variable index {MAX_INDEX + 1} above the limit"):
        Monomial(b={MAX_INDEX + 1: 1})
    # powers of a repeated index add up before they are checked
    assert Monomial(x=((1, 2), (3, 1), (1, -2))) == Monomial(x={3: 1})
    assert Monomial(x=((2, -1), (2, 1)), a={0: 0}) == Monomial()
    with pytest.raises(ValueError, match=r"^bad variable power \(2, -2\)$"):
        Monomial(x=((2, -3), (2, 1)))
    # of two bad powers, the first is reported
    with pytest.raises(ValueError, match=r"^bad variable power \(0, 1\)$"):
        Monomial(x=((0, 1), (MAX_INDEX + 1, 1)))
    with pytest.raises(ValueError, match="above the limit"):
        Monomial(x=((MAX_INDEX + 1, 1), (0, 1)))
    with pytest.raises(ValueError, match=r"^bad variable power \(3, -1\)$"):
        Monomial(b={3: -1, -1: 2})
    with pytest.raises(ValueError, match=r"^bad variable power \(-1, 2\)$"):
        Monomial(b={-1: 2, 3: -1})
    # a cancelling pair sends the top index through the checked loop
    assert Monomial(x=((MAX_INDEX, 1), (1, -1), (1, 1))) == x_mono(MAX_INDEX)


def test_poly_add_mul_trivial():
    one = TruncatedPolynomial.const(1, 4)
    a = P({x_mono(1): 1}, 4)
    assert poly_add(a, TruncatedPolynomial.zero(4)) == a
    assert poly_add(a, a) == P({x_mono(1): 2}, 4)
    assert poly_mul(a, one) == a
    x1, x2 = P({x_mono(1): 1}, 4), P({x_mono(2): 1}, 4)
    assert poly_mul(x1 + x2, x1 - x2) == P({x_mono(1, 2): 1, x_mono(2, 2): -1}, 4)


def test_cap_mismatch_and_truncation():
    with pytest.raises(CapMismatch):
        poly_add(TruncatedPolynomial.zero(2), TruncatedPolynomial.zero(3))
    with pytest.raises(CapMismatch):
        poly_mul(TruncatedPolynomial.zero(2), TruncatedPolynomial.zero(3))
    # product terms above the cap vanish
    x1 = P({x_mono(1): 1}, 1)
    assert poly_mul(x1, x1) == TruncatedPolynomial.zero(1)


def test_geometric_series_inverse():
    cap = 5
    geo = P({Monomial(x={1: m}, a={1: m}): 1 for m in range(cap + 1)}, cap)
    one_minus = P({Monomial(): 1, x_mono(1) * alpha_mono(1): -1}, cap)
    assert poly_mul(one_minus, geo) == TruncatedPolynomial.const(1, cap)


exponent_dicts = st.dictionaries(st.integers(1, 4), st.integers(0, 2), max_size=2)
monomials = st.builds(Monomial, x=exponent_dicts, a=exponent_dicts, b=exponent_dicts)

small_polys = st.lists(st.tuples(monomials, st.integers(-3, 3)), max_size=5).map(
    lambda spec: TruncatedPolynomial({m: c for m, c in spec}, 4)
)


@settings(max_examples=60)
@given(small_polys, small_polys, small_polys)
def test_poly_ring_laws(a, b, c):
    assert poly_mul(a, b) == poly_mul(b, a)
    assert poly_mul(poly_mul(a, b), c) == poly_mul(a, poly_mul(b, c))
    assert poly_mul(a, poly_add(b, c)) == poly_add(poly_mul(a, b), poly_mul(a, c))


def _summed(d1, d2):
    return {i: d1.get(i, 0) + d2.get(i, 0) for i in d1.keys() | d2.keys()}


def _groups(m):
    return dict(m.x), dict(m.a), dict(m.b)


@settings(max_examples=100)
@given(
    exponent_dicts, exponent_dicts, exponent_dicts,
    exponent_dicts, exponent_dicts, exponent_dicts,
    small_polys, small_polys,
)
def test_products_match_public_constructor(x1, a1, b1, x2, a2, b2, p, q):
    assert Monomial(x={3: 1}) * Monomial(x={1: 1}) == Monomial(x={1: 1, 3: 1})
    m = Monomial(x=x1, a=a1, b=b1) * Monomial(x=x2, a=a2, b=b2)
    built = Monomial(x=_summed(x1, x2), a=_summed(a1, a2), b=_summed(b1, b2))
    assert m == built and hash(m) == hash(built)
    assert str(m) == str(built) and m.sort_key() == built.sort_key()
    expected = _term_product(p, q)
    assert (p * q).serialize() == expected.serialize()
    assert p * q == expected


def _term_product(p, q):
    """p * q term by term, every monomial through the public constructor."""
    terms = Counter()
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            x, a, b = map(_summed, _groups(m1), _groups(m2))
            terms[Monomial(x=x, a=a, b=b)] += c1 * c2
    return TruncatedPolynomial(terms, p.cap)


def test_packed_products_beyond_one_byte_fields():
    big = P({Monomial(x={1: 200}, a={1: 300}): 1, Monomial(x={2: 1}, b={3: 255}): -2}, 400)
    far = P({Monomial(b={MAX_INDEX: 1}): 1, x_mono(1): 2}, 2)
    # 128 + 128 passes one byte: at the width of either operand it would carry
    edge = P({Monomial(x={1: 128}, a={2: 127}): 1, x_mono(2): 1}, 400)
    for p, q in ((big, big), (far, far * far), (edge, edge), (edge, big.x_graded_piece(1))):
        got, expected = p * q, _term_product(p, q)
        assert got.serialize() == expected.serialize() and got == expected
    assert Monomial(x={1: 400}, a={1: 600}) in (big * big).terms
    assert Monomial(b={MAX_INDEX: 3}) in (far * far * far).terms
    assert exact_divide(big * vandermonde(2, 400), vandermonde(2, 400)) == big.terms


def test_determinant_small_matrices():
    cap = 401
    a = P({Monomial(x={1: 200}, a={1: 300}): 1, x_mono(2): 3}, cap)
    b = P({Monomial(b={MAX_INDEX: 1}): -1, x_mono(1, 2): 1}, cap)
    c = P({Monomial(x={2: 400}): 2, Monomial(): 1}, cap)
    d = P({Monomial(x={1: 200}, a={2: 255}): 1}, cap)
    assert determinant([], cap) == TruncatedPolynomial.const(1, cap)
    assert determinant([[a]], cap).serialize() == a.serialize()
    two = determinant([[a, b], [c, d]], cap)
    expected = _term_product(a, d) - _term_product(b, c)
    assert two.serialize() == expected.serialize() and two == expected
    # the x-degree 400 product of a and d is within the cap, b * c's 402 not
    assert Monomial(x={1: 400}, a={1: 300, 2: 255}) in two.terms
    assert Monomial(x={1: 2, 2: 400}) not in two.terms
    assert Monomial(x={2: 400}, b={MAX_INDEX: 1}) in two.terms
    with pytest.raises(ValueError, match="square"):
        determinant([[a, b]], cap)
    with pytest.raises(CapMismatch):
        determinant([[P({}, 2)]], cap)


def test_vandermonde_is_the_bialternant_of_the_empty_shape():
    for n in range(6):
        d = n * (n - 1) // 2
        for cap in sorted({max(d - 1, 0), d, d + 2}):
            assert vandermonde(n, cap) == bialternant((), n, cap)


def test_schur_trivial_cases():
    assert schur_poly((1,), 2, 2) == P({x_mono(1): 1, x_mono(2): 1}, 2)
    assert schur_poly((1, 1, 1), 2, 3) == TruncatedPolynomial.zero(3)
    with pytest.raises(CapTooSmall):
        schur_poly((2, 1), 3, 2)


def test_schur_matches_bialternant():
    for mu in partitions_up_to(4):
        if not mu:
            continue
        for n in (2, 3):
            if len(mu) > n:
                continue  # the bialternant needs at least len(mu) variables
            cap = sum(mu) + n * (n - 1) // 2
            s = schur_poly(mu, n, cap)
            assert s * vandermonde(n, cap) == bialternant(mu, n, cap)


def test_schur_symmetry():
    cap = 3
    s = schur_poly((2, 1), 3, cap)
    for i, j in ((1, 2), (2, 3)):
        swapped = {}
        for m, c in s.terms.items():
            xs = dict(m.x)
            xs[i], xs[j] = xs.get(j, 0), xs.get(i, 0)
            swapped[Monomial(x=xs)] = c
        assert TruncatedPolynomial(swapped, cap) == s


def test_hvt_genfun_single_cell_pinned():
    got = hvt_genfun((1,), EnumBounds(2, 1), 3)
    expected = P(
        {
            x_mono(1): 1,
            x_mono(2): 1,
            x_mono(1, 2) * alpha_mono(1): 1,
            x_mono(1) * x_mono(2) * alpha_mono(1): 1,
            x_mono(2, 2) * alpha_mono(1): 1,
            x_mono(1) * x_mono(2) * beta_mono(1): 1,
        },
        3,
    )
    assert got == expected


def test_hvt_genfun_matches_enumeration():
    # lambda longer than n at n = 1, the empty lambda, and excess 0 as schur_poly
    for n, excess in ((1, 2), (2, 3), (3, 2), (4, 2), (4, 3), (5, 1)):
        bounds = EnumBounds(n, excess)
        for lam in partitions_up_to(4):
            cap = sum(lam) + excess
            counts = Counter(weight_hvt(T) for T in enum_hvt(lam, bounds))
            assert hvt_genfun(lam, bounds, cap) == TruncatedPolynomial(counts, cap)
            ssyt = Counter(weight_hvt(T) for T in enum_hvt(lam, EnumBounds(n, 0)))
            assert schur_poly(lam, n, cap) == TruncatedPolynomial(ssyt, cap)


def test_genfuns_refuse_negative_bounds():
    for bounds, name, value in ((EnumBounds(2, -1), "excess", -1), ((-2, 1), "n", -2)):
        message = f"^{name} must be nonnegative, got {value}$"
        for lam in ((), (1,)):
            with pytest.raises(ValueError, match=message):
                hvt_genfun(lam, bounds, 3)
            with pytest.raises(ValueError, match=message):
                schur_expansion_genfun(lam, bounds, 3)


def test_hvt_genfun_trivials():
    assert hvt_genfun((), EnumBounds(3, 2), 2) == TruncatedPolynomial.const(1, 2)
    # zero-excess slice recovers the Schur polynomial
    g = hvt_genfun((2, 1), EnumBounds(3, 2), 5)
    zero_excess = TruncatedPolynomial(
        {m: c for m, c in g.terms.items() if not m.a and not m.b}, 5
    )
    s = schur_poly((2, 1), 3, 5)
    assert zero_excess == s


def test_schur_expansion_inner_term_golden():
    # the coefficient of s_(3,3,1) in the lambda=(2,1) expansion
    from hooktab.enumeration import enum_exquisite
    from hooktab.tableaux import weight_mixed

    weights = Counter(
        weight_mixed(E) for E in enum_exquisite((3, 3, 1), (2, 1))
    )
    expected = Counter(
        Monomial(a=a, b=b) for a, b in pc.EXQ_331_21_WEIGHTS
    )
    assert weights == expected


def test_schur_expansion_trivial():
    for model in ("EXQ", "BFT"):
        assert schur_expansion_genfun(
            (), EnumBounds(3, 2), 2, model
        ) == TruncatedPolynomial.const(1, 2)
    with pytest.raises(ValueError):
        schur_expansion_genfun((), EnumBounds(3, 2), 2, "XYZ")


def test_three_way_equality_small():
    for lam in ((), (1,), (2, 1)):
        bounds = EnumBounds(3, 2)
        cap = sum(lam) + 2
        h = hvt_genfun(lam, bounds, cap)
        assert h == schur_expansion_genfun(lam, bounds, cap, "EXQ")
        assert h == schur_expansion_genfun(lam, bounds, cap, "BFT")


def test_det_formula_trivial_empty():
    # empty shape: the determinant side is exactly the Vandermonde
    for n in (2, 3):
        cap = 2
        work = cap + n * (n - 1) // 2
        lhs, rhs = det_formula_check((), n, cap)
        assert lhs == rhs
        assert rhs == hvt_genfun((), EnumBounds(n, cap), work) * vandermonde(n, work)


def test_det_formula_sides_match_their_parts():
    # alpha_1..alpha_lam1, beta_1..beta_(n-1) and the rows of lambda number
    # 4, 3 and 2: a packing too narrow for one of them folds variables
    # together on both sides alike, which the identity alone cannot show
    for lam, n, cap in (((4, 1), 4, 6), ((3,), 3, 5)):
        work = cap + n * (n - 1) // 2
        lhs, rhs = det_formula_check(lam, n, cap)
        assert lhs == det_by_permutations(lam, n, work)
        genfun = hvt_genfun(lam, EnumBounds(n, cap - sum(lam)), work)
        assert rhs == genfun * vandermonde(n, work)


def test_det_formula_single_cell_hand_expansion():
    lhs, rhs = det_formula_check((1,), 2, 3)
    assert lhs == rhs
    # degree-by-degree hand expansion of the 2x2 determinant
    cap = lhs.cap
    hand = (
        TruncatedPolynomial(
            {
                x_mono(1, 2): 1,
                x_mono(1, 2) * x_mono(2) * beta_mono(1): 1,
                x_mono(1, 3) * alpha_mono(1): 1,
                x_mono(1, 4) * alpha_mono(1, 2): 1,
                x_mono(1, 3) * x_mono(2) * alpha_mono(1) * beta_mono(1): 1,
            },
            cap,
        )
        - TruncatedPolynomial(
            {
                x_mono(2, 2): 1,
                x_mono(2, 2) * x_mono(1) * beta_mono(1): 1,
                x_mono(2, 3) * alpha_mono(1): 1,
                x_mono(2, 4) * alpha_mono(1, 2): 1,
                x_mono(2, 3) * x_mono(1) * alpha_mono(1) * beta_mono(1): 1,
            },
            cap,
        )
    )
    assert lhs == hand


def test_det_entry_by_series_matches_term_by_term():
    # caps from below the entry's leading power, where it is 0, to past the
    # degree of its last beta, so truncation cuts every series on the way
    for n in range(1, 6):
        for lam in partitions_up_to(4):
            if len(lam) > n:
                continue
            for i in range(1, n + 1):
                power = (lam[i - 1] if i <= len(lam) else 0) + n - i
                for j in sorted({1, n}):
                    for cap in range(max(power - 1, 0), power + i + 2):
                        series = det_entry_by_series(lam, n, i, j, cap)
                        assert series == det_entry(lam, n, i, j, cap)


def test_determinant_side_matches_permutation_expansion():
    for n, max_size in ((4, 4), (5, 2)):
        for lam in partitions_up_to(max_size):
            cap = sum(lam) + 2 + n * (n - 1) // 2
            assert determinant_side(lam, n, cap) == det_by_permutations(lam, n, cap)


def test_det_formula_five_variables():
    # cap = |lambda| is the least cap the check takes
    for lam in partitions_up_to(3):
        for cap in (sum(lam), sum(lam) + 1):
            lhs, rhs = det_formula_check(lam, 5, cap)
            assert lhs == rhs


def test_det_formula_errors():
    with pytest.raises(CapTooSmall):
        det_formula_check((2, 1), 3, 2)
    with pytest.raises(ValueError):
        det_formula_check((1, 1, 1), 2, 4)


def test_extract_weight_counts_matches_enumeration():
    for lam, n, excess in (((1,), 2, 2), ((2, 1), 3, 1)):
        cap = sum(lam) + excess
        counts = extract_weight_counts(lam, n, cap)
        pruned = {m: c for m, c in counts.items() if m.x_degree <= cap}
        enum_counts = Counter(
            weight_hvt(T) for T in enum_hvt(lam, EnumBounds(n, excess))
        )
        assert pruned == dict(enum_counts)
        assert sum(pruned.values()) == len(enum_hvt(lam, EnumBounds(n, excess)))


def test_exact_divide_of_constants():
    one, three = TruncatedPolynomial.const(1, 0), TruncatedPolynomial.const(3, 0)
    assert exact_divide(three, one) == {Monomial(): 3}
    assert extract_weight_counts((), 1, 0) == {Monomial(): 1}


def test_exact_divide_recovers_a_large_quotient():
    # hvt_genfun has x-degrees 4..6 and the Vandermonde 6, so cap 12 keeps
    # every term of the product
    cap = 12
    q = hvt_genfun((3, 1), EnumBounds(4, 2), cap)
    v = vandermonde(4, cap)
    assert exact_divide(q * v, v) == q.terms


def test_exact_divide_fails_loudly():
    with pytest.raises(ArithmeticError, match="division is not exact"):
        exact_divide(TruncatedPolynomial({x_mono(1): 1}, 3), vandermonde(2, 3))
    with pytest.raises(ArithmeticError, match="divisor must be monic"):
        exact_divide(vandermonde(2, 3), vandermonde(2, 3) * 2)
    # each step leaves a remainder with a larger power of a1, past any field
    v = P({x_mono(1): 1, x_mono(2) * alpha_mono(1, 3): 1}, 90)
    with pytest.raises(ArithmeticError, match="division is not exact"):
        exact_divide(P({x_mono(1, 90): 1}, 90), v)
