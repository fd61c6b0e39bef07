"""Independent oracle implementations used by the test suite.

Nothing here shares code paths with the library: classification is a
literal pair scan, counts come from the hook content formula, and Schur
polynomials from the bialternant determinant.  The one exception is
det_by_permutations, which takes the library's matrix entries and
polynomial arithmetic but none of its determinant expansion.
"""

from fractions import Fraction
from itertools import permutations

from hooktab.genfun import _matrix_entry
from hooktab.polynomials import Monomial, TruncatedPolynomial, x_mono
from hooktab.shapes import conjugate


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


def det_by_permutations(lam, n, cap):
    """The determinant of the closed formula by its n! permutation expansion
    over the entries genfun._matrix_entry builds."""
    entries = {
        (i, j): _matrix_entry(lam, n, i, j, cap)
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
