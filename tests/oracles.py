"""Independent oracle implementations used by the test suite.

Nothing here shares code paths with the library: classification is a
literal pair scan, counts come from the hook content formula, and Schur
polynomials from the bialternant determinant.  The exceptions are
det_by_permutations, which expands each matrix entry term by term but
multiplies them with the library's polynomial arithmetic;
det_entry_by_series, which multiplies an entry's series factors with that
arithmetic; and the mixed-family enumerators, which filter every product
of candidate entries with brute_classify but take the library's
partitions_between for the sorted strict inputs and its shuffle for the
second flag of a biflagged tableau.
"""

from fractions import Fraction
from itertools import (
    combinations,
    combinations_with_replacement,
    permutations,
    product,
)
from types import SimpleNamespace

from hooktab.polynomials import Monomial, TruncatedPolynomial, beta_mono, x_mono
from hooktab.shapes import conjugate, partitions_between
from hooktab.switching import shuffle
from hooktab.tableaux import MixedTableau, alpha, beta
from hooktab.textform import serialize_mixed


def brute_classify(T):
    """Pair-scan evaluation of every strictness/sortedness/flag predicate."""
    cells = sorted(T.entries)

    def strict(kind, axis):
        items = [(p, T.entries[p].index) for p in cells if T.entries[p].kind == kind]
        for p, i in items:
            for q, j in items:
                if p == q:
                    continue
                if p[0] <= q[0] and p[1] <= q[1] and i < j:
                    return False
                if p[axis] == q[axis] and i == j:
                    return False
        return True

    def totally():
        for (r, c) in cells:
            for (dr, dc, weak) in ((1, 0, False), (0, 1, True)):
                other = (r + dr, c + dc)
                if other in T.entries:
                    i, j = T.entries[(r, c)].index, T.entries[other].index
                    if weak and i < j:
                        return False
                    if not weak and i <= j:
                        return False
        return True

    def sorted_first(kind):
        first = {p for p in cells if T.entries[p].kind == kind}
        nu = []
        for r, width in enumerate(T.outer, 1):
            lo = T.inner[r - 1] if r <= len(T.inner) else 0
            row = [c for c in range(lo + 1, width + 1) if (r, c) in first]
            if row and row != list(range(lo + 1, lo + 1 + len(row))):
                return False
            nu.append(lo + len(row))
        return all(a >= b for a, b in zip(nu, nu[1:]))

    def flagged():
        return all(
            0 < e.index < (c if e.kind == "a" else r)
            for (r, c), e in T.entries.items()
        )

    return (
        strict("a", 1),
        strict("a", 0),
        strict("b", 1),
        strict("b", 0),
        totally(),
        sorted_first("a"),
        sorted_first("b"),
        flagged(),
    )


def ssyt_count(mu, n):
    """Hook content formula for the number of SSYT with entries <= n."""
    conj = conjugate(mu)
    total = Fraction(1)
    for i, width in enumerate(mu, 1):
        for j in range(1, width + 1):
            hook = (width - j) + (conj[j - 1] - i) + 1
            total *= Fraction(n + j - i, hook)
    assert total.denominator == 1
    return int(total)


def bialternant(mu, n, cap):
    """det(x_j^(mu_i + n - i)) by permutation expansion (needs n >= len(mu))."""
    total = TruncatedPolynomial.zero(cap)
    for perm in permutations(range(1, n + 1)):
        inv = sum(
            1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b]
        )
        m = Monomial()
        for i, j in enumerate(perm, 1):
            p = (mu[i - 1] if i <= len(mu) else 0) + n - i
            if p:
                m = m * x_mono(j, p)
        total = total + TruncatedPolynomial.monomial(m, cap, -1 if inv % 2 else 1)
    return total


def det_entry(lam, n, i, j, cap):
    """Entry (i, j) of the closed formula's matrix, term by term: for every
    subset S of {1..i-1} and multiset M over {1..lam_i}, the monomial
    x_j^(lam_i + n - i + |S| + |M|) times the betas of S and the alphas of
    M, each with coefficient 1, while its x-degree is within cap."""
    lam_i = lam[i - 1] if i <= len(lam) else 0
    power = lam_i + n - i
    terms = {}
    for s in range(i):
        for S in combinations(range(1, i), s):
            for m in range(cap - power - s + 1):
                for M in combinations_with_replacement(range(1, lam_i + 1), m):
                    x = ((j, power + s + m),)
                    a = [(k, 1) for k in M]
                    b = [(k, 1) for k in S]
                    terms[Monomial(x=x, a=a, b=b)] = 1
    return TruncatedPolynomial(terms, cap)


def _geometric(alpha_index, x_index, cap):
    """The truncated expansion of 1 / (1 - alpha_k x_j)."""
    terms = {
        Monomial(x=((x_index, m),) if m else (), a=((alpha_index, m),) if m else ()): 1
        for m in range(cap + 1)
    }
    return TruncatedPolynomial(terms, cap)


def det_entry_by_series(lam, n, i, j, cap):
    """Entry (i, j) of the closed formula's matrix as the product of its
    factors: x_j^(lam_i + n - i), each (1 + beta_k x_j) for k < i and each
    truncated geometric series 1 / (1 - alpha_k x_j) for k <= lam_i."""
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


def det_by_permutations(lam, n, cap):
    """The determinant of the closed formula by its n! permutation expansion
    over the entries det_entry expands."""
    entries = {
        (i, j): det_entry(lam, n, i, j, cap)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    }
    total = TruncatedPolynomial.zero(cap)
    for perm in permutations(range(1, n + 1)):
        inv = sum(
            1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b]
        )
        prod = TruncatedPolynomial.const(-1 if inv % 2 else 1, cap)
        for i, j in enumerate(perm, 1):
            prod = prod * entries[(i, j)]
        total = total + prod
    return total


def brute_gg_jdt(T):
    """GG-jdt by its literal rule on a plain dict.

    An alpha_i at (r, c) is out of order with the beta_j to its right when
    i < j + content, and with the beta_j above it when i <= j + content,
    the content c' - r' taken at the beta's cell (r', c').  After every
    slide all out-of-order alphas are found again; the rightmost one of
    smallest index swaps with its out-of-order beta, the upper one when
    both are and its index is larger.  Returns the final entries and the
    entries after each slide.
    """
    state = dict(T.entries)
    states = []
    while True:
        candidates = []
        for (r, c), e in state.items():
            if e.kind != "a":
                continue
            targets = []
            for (r2, c2), weak in (((r, c + 1), False), ((r + 1, c), True)):
                b = state.get((r2, c2))
                if b is not None and b.kind == "b":
                    shifted = b.index + c2 - r2
                    if e.index < shifted or (weak and e.index == shifted):
                        targets.append((r2, c2))
            if targets:
                candidates.append((e.index, -c, (r, c), targets))
        if not candidates:
            return state, states
        _, _, cell, targets = min(candidates)
        if len(targets) == 2:
            right, up = targets
            dest = up if state[up].index > state[right].index else right
        else:
            dest = targets[0]
        state = dict(state)
        state[cell], state[dest] = state[dest], state[cell]
        states.append(state)


def _skew_cells(outer, inner):
    return [
        (r, c)
        for r, width in enumerate(outer, 1)
        for c in range((inner[r - 1] if r <= len(inner) else 0) + 1, width + 1)
    ]


def _product_filter(outer, inner, cells, pools, keep):
    """Every filling of cells by one entry of each pool that keep accepts,
    sorted by serialization as the library's enumerators are.  keep sees a
    plain record with outer, inner and the entries dict."""
    out = []
    for combo in product(*pools):
        T = SimpleNamespace(outer=outer, inner=inner, entries=dict(zip(cells, combo)))
        if keep(T):
            out.append(MixedTableau(outer, inner, T.entries))
    return sorted(out, key=serialize_mixed)


def _flagged_products(outer, inner, keep):
    cells = _skew_cells(outer, inner)
    pools = [[alpha(k) for k in range(1, c)] + [beta(k) for k in range(1, r)]
             for r, c in cells]
    return _product_filter(outer, inner, cells, pools, keep)


def brute_is_exquisite(T):
    """Flagged, with indices, each beta's raised by the content c - r of its
    cell, decreasing weakly along rows and strictly up columns."""
    flagged = all(
        0 < e.index < (c if e.kind == "a" else r) for (r, c), e in T.entries.items()
    )
    shifted = {
        (r, c): e.index + (c - r if e.kind == "b" else 0)
        for (r, c), e in T.entries.items()
    }
    # a missing right or upper neighbour passes its comparison
    return flagged and all(
        shifted.get((r, c + 1), i) <= i and shifted.get((r + 1, c), i - 1) < i
        for (r, c), i in shifted.items()
    )


def brute_exquisite(outer, inner):
    """The flagged fillings that brute_is_exquisite accepts."""
    return _flagged_products(outer, inner, brute_is_exquisite)


def brute_biflagged(outer, inner):
    """Flagged fillings that brute_classify finds (alpha, beta)-sorted, alpha
    column strict and beta row strict, and whose shuffle it finds flagged."""

    def keep(T):
        flags = brute_classify(T)
        return (
            flags[0] and flags[3] and flags[5] and flags[7]
            and brute_classify(shuffle(MixedTableau(T.outer, T.inner, T.entries)))[7]
        )

    return _flagged_products(outer, inner, keep)


def brute_sorted_strict(outer, inner, max_index):
    """For every nu between inner and outer, alphas 1..max_index on nu/inner
    and betas 1..max_index on outer/nu, kept when brute_classify finds them
    alpha column strict and beta row strict."""

    def strict(T):
        flags = brute_classify(T)
        return flags[0] and flags[3]

    alphas = [alpha(k) for k in range(1, max_index + 1)]
    betas = [beta(k) for k in range(1, max_index + 1)]
    out = []
    for nu in partitions_between(inner, outer):
        a_cells, b_cells = _skew_cells(nu, inner), _skew_cells(outer, nu)
        pools = [alphas] * len(a_cells) + [betas] * len(b_cells)
        out += _product_filter(outer, inner, a_cells + b_cells, pools, strict)
    return sorted(out, key=serialize_mixed)
