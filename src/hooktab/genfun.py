"""Generating-function engines: Schur polynomials, the hook-valued tableau
sum, its Schur expansions, and the determinant formula check.

Division by the Vandermonde is avoided everywhere: the determinant identity
is checked as det = (tableau sum) * Vandermonde between truncated
polynomials, and coefficient extraction recovers the tableau-sum
coefficients from the determinant side by graded exact division.
"""

from __future__ import annotations

from collections import Counter
from functools import cache

from .enumeration import (
    EnumBounds,
    check_bounds,
    enum_biflagged,
    enum_exquisite,
    hook_cells,
)
from .polynomials import (
    CapTooSmall,
    Monomial,
    Packing,
    TruncatedPolynomial,
    alpha_mono,
    beta_mono,
    determinant,
    exact_divide,
    x_mono,
)
from .shapes import check_partition, partitions_containing
from .tableaux import weight_mixed


def schur_poly(mu, n: int, cap: int) -> TruncatedPolynomial:
    """The Schur polynomial s_mu(x_1..x_n) as the SSYT weight sum, that is
    the hook-valued sum at excess 0."""
    return hvt_genfun(mu, EnumBounds(n, 0), cap)


def hvt_genfun(lam, bounds: EnumBounds, cap: int) -> TruncatedPolynomial:
    """Weight sum over hook-valued tableaux of shape lam within bounds.

    A transfer sum over the cells in row order, listing no tableaux.  As in
    enum_hvt, a hook entry is at least the largest entry of the left cell
    and above that of the lower cell.  A state is the largest entry of the
    latest cell in each column a later cell can lie on, with the excess
    left; it maps each weight, a Packing key, to its number of fillings."""
    lam = check_partition(lam)
    n, emax = check_bounds(bounds)
    if cap < sum(lam) + emax:
        raise CapTooSmall(f"cap {cap} cannot hold degree {sum(lam) + emax}")
    pack = Packing(n, lam[0] if lam else 0, len(lam), sum(lam) + emax, cap)
    xs = [pack.key(x_mono(v)) for v in range(1, n + 1)]

    @cache
    def cells(low: int, budget: int) -> list:
        """(largest entry, arms, legs, x key) per cell of hook entry >= low."""
        out = []
        for hook in range(low, n + 1):
            for cell in hook_cells(hook, n, budget):
                x_key = sum(xs[v - 1] for v in cell.entries())
                out.append((cell.max_entry, len(cell.arms), len(cell.legs), x_key))
        return out

    states = {((0,) * (lam[0] if lam else 0), emax): {0: 1}}
    for r, width in enumerate(lam):
        b_key = pack.key(beta_mono(r + 1))
        # columns the next row lacks constrain no cell after this row
        below = lam[r + 1] if r + 1 < len(lam) else 0
        for c in range(width):
            a_key = pack.key(alpha_mono(c + 1))
            cut = below if c == width - 1 else None
            nxt: dict[tuple, dict[int, int]] = {}
            for (front, budget), weights in states.items():
                low = max(front[c - 1] if c else 0, front[c] + 1)
                head, tail = front[:c], front[c + 1 :]
                for top, arms, legs, x_key in cells(low, budget):
                    state = ((head + (top,) + tail)[:cut], budget - arms - legs)
                    step = [(x_key + arms * a_key + legs * b_key, 1)]
                    pack.add_product(nxt.setdefault(state, {}), weights.items(), step)
            states = nxt
    return pack.polynomial(sum(map(Counter, states.values()), Counter()))


def schur_expansion_genfun(
    lam, bounds: EnumBounds, cap: int, model: str = "EXQ"
) -> TruncatedPolynomial:
    """Sum over mu >= lam of s_mu times the weight sum of the chosen
    coefficient model (exquisite or biflagged tableaux of shape mu/lam)."""
    lam = check_partition(lam)
    if model not in ("EXQ", "BFT"):
        raise ValueError(f"model must be 'EXQ' or 'BFT', got {model!r}")
    n, emax = check_bounds(bounds)
    total = TruncatedPolynomial.zero(cap)
    for mu in partitions_containing(lam, emax):
        if len(mu) > n:
            continue
        enum = enum_exquisite if model == "EXQ" else enum_biflagged
        coeff = TruncatedPolynomial(Counter(map(weight_mixed, enum(mu, lam))), cap)
        if coeff:
            total = total + schur_poly(mu, n, cap) * coeff
    return total


def vandermonde(n: int, cap: int) -> TruncatedPolynomial:
    """The product of (x_i - x_j) over 1 <= i < j <= n, as det(x_j^(n-i))."""
    rows = range(1, n + 1)
    xs = [[{x_mono(j, n - i): 1} for j in rows] for i in rows]
    return determinant([[TruncatedPolynomial(x, cap) for x in row] for row in xs], cap)


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
    """The determinant in the closed formula."""
    lam = check_partition(lam)
    rows = range(1, n + 1)
    entries = [[_matrix_entry(lam, n, i, j, cap) for j in rows] for i in rows]
    return determinant(entries, cap)


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
