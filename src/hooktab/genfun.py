"""Generating-function engines: Schur polynomials, the hook-valued tableau
sum, its Schur expansions, and the determinant formula check.

Division by the Vandermonde is avoided everywhere: the determinant identity
is checked as det = (tableau sum) * Vandermonde between truncated
polynomials, and coefficient extraction recovers the tableau-sum
coefficients from the determinant side by graded exact division.
"""

from __future__ import annotations

from .enumeration import EnumBounds, enum_biflagged, enum_exquisite, enum_hvt
from .polynomials import (
    CapTooSmall,
    Monomial,
    TruncatedPolynomial,
    beta_mono,
    exact_divide,
    x_mono,
)
from .shapes import check_partition, partitions_containing
from .tableaux import weight_hvt, weight_mixed


def schur_poly(mu, n: int, cap: int) -> TruncatedPolynomial:
    """The Schur polynomial s_mu(x_1..x_n) as the SSYT weight sum, that is
    the hook-valued sum at excess 0."""
    return hvt_genfun(mu, EnumBounds(n, 0), cap)


def hvt_genfun(lam, bounds: EnumBounds, cap: int) -> TruncatedPolynomial:
    """Weight sum over hook-valued tableaux of shape lam within bounds."""
    lam = check_partition(lam)
    if cap < sum(lam) + bounds.max_excess:
        raise CapTooSmall(
            f"cap {cap} cannot hold degree {sum(lam) + bounds.max_excess}"
        )
    return _weight_sum(enum_hvt(lam, bounds), weight_hvt, cap)


def _weight_sum(tableaux, weight, cap: int) -> TruncatedPolynomial:
    terms: dict[Monomial, int] = {}
    for T in tableaux:
        m = weight(T)
        terms[m] = terms.get(m, 0) + 1
    return TruncatedPolynomial(terms, cap)


def schur_expansion_genfun(
    lam, bounds: EnumBounds, cap: int, model: str = "EXQ"
) -> TruncatedPolynomial:
    """Sum over mu >= lam of s_mu times the weight sum of the chosen
    coefficient model (exquisite or biflagged tableaux of shape mu/lam)."""
    lam = check_partition(lam)
    if model not in ("EXQ", "BFT"):
        raise ValueError(f"model must be 'EXQ' or 'BFT', got {model!r}")
    n, emax = bounds
    total = TruncatedPolynomial.zero(cap)
    for mu in partitions_containing(lam, emax):
        if len(mu) > n:
            continue
        enum = enum_exquisite if model == "EXQ" else enum_biflagged
        coeff = _weight_sum(enum(mu, lam), weight_mixed, cap)
        if coeff:
            total = total + schur_poly(mu, n, cap) * coeff
    return total


def vandermonde(n: int, cap: int) -> TruncatedPolynomial:
    """The product of (x_i - x_j) over 1 <= i < j <= n."""
    out = TruncatedPolynomial.const(1, cap)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            factor = TruncatedPolynomial(
                {x_mono(i): 1, x_mono(j): -1}, cap
            )
            out = out * factor
    return out


def _geometric(alpha_index: int, x_index: int, cap: int) -> TruncatedPolynomial:
    """The truncated expansion of 1 / (1 - alpha_k x_j)."""
    terms = {
        Monomial(x=((x_index, m),) if m else (), a=((alpha_index, m),) if m else ()): 1
        for m in range(cap + 1)
    }
    return TruncatedPolynomial(terms, cap)


def _matrix_entry(lam, n, i, j, cap) -> TruncatedPolynomial:
    """x_j^(lam_i + n - i) * prod_{k<i} (1 + beta_k x_j)
    / prod_{k<=lam_i} (1 - alpha_k x_j), truncated."""
    lam_i = lam[i - 1] if i <= len(lam) else 0
    power = lam_i + n - i
    out = TruncatedPolynomial.monomial(x_mono(j, power) if power else Monomial(), cap)
    for k in range(1, i):
        factor = TruncatedPolynomial(
            {Monomial(): 1, x_mono(j) * beta_mono(k): 1}, cap
        )
        out = out * factor
    for k in range(1, lam_i + 1):
        out = out * _geometric(k, j, cap)
    return out


def determinant_side(lam, n: int, cap: int) -> TruncatedPolynomial:
    """The determinant in the closed formula, expanded by minors on rows.

    D(S), the minor on rows 1..|S| and the column set S, is the sum over j
    in S of (-1)^#{s in S : s > j} * D(S - {j}) * entry(|S|, j); each
    minor is built once from those of the row before, so the expansion
    takes n * 2^(n-1) products instead of the n * n! of the permutations.
    """
    lam = check_partition(lam)
    # minors on the rows so far, keyed by their column set as a bit mask
    minors = {0: TruncatedPolynomial.const(1, cap)}
    for i in range(1, n + 1):
        row = [_matrix_entry(lam, n, i, j, cap) for j in range(1, n + 1)]
        bigger = {}
        for cols, minor in minors.items():
            for j, entry in enumerate(row):
                if cols >> j & 1:
                    continue
                term = minor * entry
                # the columns of cols right of j, j itself not in cols
                if (cols >> j).bit_count() % 2:
                    term = -term
                key = cols | 1 << j
                bigger[key] = bigger[key] + term if key in bigger else term
        minors = bigger
    return minors[(1 << n) - 1]


def det_formula_check(lam, n: int, cap: int):
    """Both sides of the closed-formula identity as truncated polynomials:
    lhs the determinant, rhs the tableau generating function times the
    Vandermonde.

    cap bounds the x-degree of the generating function being verified; both
    sides are computed at cap + deg(Vandermonde) so the comparison covers
    every coefficient of the generating function up to x-degree cap.
    """
    lam = check_partition(lam)
    if cap < sum(lam):
        raise CapTooSmall(f"cap {cap} below |lambda| = {sum(lam)}")
    if n < len(lam):
        raise ValueError(f"need at least {len(lam)} variables for {lam}")
    work_cap = cap + n * (n - 1) // 2
    lhs = determinant_side(lam, n, work_cap)
    genfun = hvt_genfun(lam, EnumBounds(n, cap - sum(lam)), work_cap)
    rhs = genfun * vandermonde(n, work_cap)
    return lhs, rhs


# ---------------------------------------------------------------------------
# Coefficient extraction (independent counting oracle)


def extract_weight_counts(lam, n: int, cap: int) -> dict[Monomial, int]:
    """Recover the per-weight tableau counts from the determinant side alone.

    The determinant (computed at cap + deg(Vandermonde)) is split into
    x-degree graded pieces and each piece is exactly divided by the
    homogeneous Vandermonde, so no enumeration enters this side of the
    cross-check.  Counts are complete for weights of x-degree <= cap.
    """
    lam = check_partition(lam)
    d = n * (n - 1) // 2
    work_cap = cap + d
    det = determinant_side(lam, n, work_cap)
    vand = vandermonde(n, work_cap)
    counts: dict[Monomial, int] = {}
    for degree in range(d, work_cap + 1):
        piece = det.x_graded_piece(degree)
        if not piece:
            continue
        counts.update(exact_divide(piece, vand))
    return counts
