"""Generating-function engines: Schur polynomials, the hook-valued tableau
sum, its Schur expansions, and the determinant formula check.

Division by the Vandermonde is avoided everywhere: the determinant identity
is checked as det = (tableau sum) * Vandermonde, both sides built as keys of
one Packing from the matrix entries in closed form, the transfer sum and the
Vandermonde's signed sum over permutations, and coefficient extraction
recovers the tableau-sum coefficients from the determinant side by graded
exact division.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from itertools import combinations, combinations_with_replacement, permutations

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
    """Weight sum over hook-valued tableaux of shape lam within bounds."""
    lam = check_partition(lam)
    n, emax = check_bounds(bounds)
    if cap < sum(lam) + emax:
        raise CapTooSmall(f"cap {cap} cannot hold degree {sum(lam) + emax}")
    pack = Packing(n, lam[0] if lam else 0, len(lam), sum(lam) + emax, cap)
    return pack.polynomial(_transfer_sum(lam, n, emax, pack))


def _transfer_sum(lam, n: int, emax: int, pack: Packing) -> dict[int, int]:
    """The weight sum over hook-valued tableaux of shape lam, entries <= n
    and excess <= emax, as packed counts; pack must hold x_1..x_n, alpha up
    to lam_1 and beta up to len(lam).

    A transfer sum over the cells in row order, listing no tableaux.  As in
    enum_hvt, a hook entry is at least the largest entry of the left cell
    and above that of the lower cell.  A state is the largest entry of the
    latest cell in each column a later cell can lie on, with the excess
    left; it maps each weight, a Packing key, to its number of fillings."""
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
    total: Counter = Counter()
    for weights in states.values():
        total.update(weights)
    return total


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
    """The product of (x_i - x_j) over 1 <= i < j <= n, as the signed sum
    over permutations w of sgn(w) * prod_i x_w(i)^(n-i)."""
    terms = {}
    for w in permutations(range(1, n + 1)):
        inversions = sum(a > b for a, b in combinations(w, 2))
        terms[Monomial(x=[(j, n - i) for i, j in enumerate(w, 1)])] = (-1) ** inversions
    return TruncatedPolynomial(terms, cap)


def _det_packing(lam, n: int, cap: int) -> Packing:
    """A packing for the closed formula's matrix, its minors and, with cap
    raised by deg(Vandermonde), both sides of the formula.

    Every exponent of a kept term is at most its x-degree, which is at most
    cap: an entry's term x_j^(p + s + t) carries s betas and t alphas, a
    hook-valued cell one x per entry and one alpha or beta per extra entry,
    and the Vandermonde no alpha or beta.  So no field of a kept key
    carries, and a key sum whose x-degree passes cap reaches limit."""
    return Packing(n, lam[0] if lam else 0, max(n - 1, len(lam)), cap, cap)


def _entries(lam, n: int, pack: Packing) -> list[list[list[tuple[int, int]]]]:
    """The closed formula's matrix up to x-degree pack.cap, in packed keys.

    Entry (i, j) is x_j^(lam_i + n - i) * prod_{k<i} (1 + beta_k x_j)
    / prod_{k<=lam_i} (1 - alpha_k x_j), that is the sum over s + t = d of
    x_j^(lam_i + n - i + d) * e_s(beta_1..beta_{i-1}) * h_t(alpha_1..alpha_lam_i)."""
    xs = [pack.key(x_mono(j)) for j in range(1, n + 1)]
    rows = []
    for i in range(1, n + 1):
        lam_i = lam[i - 1] if i <= len(lam) else 0
        power = lam_i + n - i
        alphas = [pack.key(alpha_mono(k)) for k in range(1, lam_i + 1)]
        betas = [pack.key(beta_mono(k)) for k in range(1, i)]
        # the alpha-beta keys of each degree d in key order; x_j^(power + d)
        # sets the leading fields, so entry (i, j) comes out in key order
        parts = [
            sorted(
                sum(S) + sum(M)
                for s in range(min(d, i - 1) + 1)
                for S in combinations(betas, s)
                for M in combinations_with_replacement(alphas, d - s)
            )
            for d in range(pack.cap - power + 1)
        ]
        rows.append(
            [[((power + d) * x + k, 1) for d, ks in enumerate(parts) for k in ks]
             for x in xs]
        )
    return rows


def determinant_side(lam, n: int, cap: int) -> TruncatedPolynomial:
    """The determinant in the closed formula."""
    lam = check_partition(lam)
    pack = _det_packing(lam, n, cap)
    return pack.polynomial(pack.determinant(_entries(lam, n, pack)))


def det_formula_check(lam, n: int, cap: int):
    """Both sides of the closed-formula identity as truncated polynomials:
    lhs the determinant, rhs the tableau generating function times the
    Vandermonde.

    cap bounds the x-degree of the generating function being verified; both
    sides are computed at cap + deg(Vandermonde) so the comparison covers
    every coefficient of the generating function up to x-degree cap.  Both
    are built in one packing and unpacked once.
    """
    lam = check_partition(lam)
    if cap < sum(lam):
        raise CapTooSmall(f"cap {cap} below |lambda| = {sum(lam)}")
    if n < len(lam):
        raise ValueError(f"need at least {len(lam)} variables for {lam}")
    work_cap = cap + n * (n - 1) // 2
    pack = _det_packing(lam, n, work_cap)
    lhs = pack.determinant(_entries(lam, n, pack))
    genfun = _transfer_sum(lam, n, cap - sum(lam), pack)
    rhs: dict[int, int] = {}
    pack.add_product(rhs, genfun.items(), pack.packed(vandermonde(n, work_cap)))
    return pack.polynomial(lhs), pack.polynomial(rhs)


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
