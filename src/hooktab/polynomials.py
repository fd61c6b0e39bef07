"""Exact sparse polynomials in x_i, alpha_i, beta_i with x-degree truncation.

Coefficients are Python ints, so they are exact at any magnitude.  A
TruncatedPolynomial drops every monomial whose total degree in the x
variables exceeds its cap; addition and multiplication are only defined
between polynomials with equal caps.  Products, determinant and
exact_divide run on Packing keys, one int per monomial.

A monomial stores each of its three variable groups as an exponent vector:
position i - 1 holds the exponent of index i, and the vector has no
trailing zeros, so equal monomials have equal vectors and a product adds
them entrywise.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from operator import add
from typing import Mapping


MAX_INDEX = 1 << 16
"""The largest variable index a Monomial takes: exponent vectors are dense,
so an index costs memory in proportion to its size."""


class CapMismatch(ValueError):
    """Operands carry different truncation caps."""


class CapTooSmall(ValueError):
    """The requested truncation cannot hold the object being built."""


def _norm(group) -> tuple[int, ...]:
    """The exponent vector of an index -> exponent mapping or of (index,
    exponent) pairs; powers of a repeated index add up."""
    pairs = list(group.items() if hasattr(group, "items") else group)
    top = 0
    for idx, exp in pairs:
        if not (0 < idx <= MAX_INDEX and exp >= 0):
            break  # summed and checked below
        if idx > top:
            top = idx
    else:
        vec = [0] * top
        for idx, exp in pairs:
            vec[idx - 1] += exp
        return _trim(tuple(vec))
    acc: dict[int, int] = {}
    for idx, exp in pairs:
        if exp:
            acc[idx] = acc.get(idx, 0) + exp
    for idx, exp in acc.items():
        if idx < 1 or exp < 0:
            raise ValueError(f"bad variable power ({idx}, {exp})")
        if idx > MAX_INDEX:
            raise ValueError(f"variable index {idx} above the limit {MAX_INDEX}")
    return _norm(acc)


def _trim(vec: tuple[int, ...]) -> tuple[int, ...]:
    """vec without its trailing zeros."""
    if not vec or vec[-1]:
        return vec
    end = len(vec) - 1
    while end and not vec[end - 1]:
        end -= 1
    return vec[:end]


def _sparse(vec: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    return tuple((i, e) for i, e in enumerate(vec, 1) if e)


def _vadd(u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
    """Entrywise sum of two exponent vectors (no trailing zeros arise)."""
    if len(u) < len(v):
        u, v = v, u
    if not v:
        return u
    return tuple(map(add, u, v)) + u[len(v):]


class Monomial:
    """A product of powers of x_i, alpha_i, beta_i (all indices >= 1).

    xv, av and bv are the exponent vectors of the x, alpha and beta
    variables; x, a and b give the same exponents as sorted (index,
    exponent) pairs."""

    __slots__ = ("xv", "av", "bv", "x_degree", "_hash")

    def __init__(self, x=(), a=(), b=()):
        self._fill(_norm(x), _norm(a), _norm(b))

    def _fill(self, xv, av, bv) -> None:
        self.xv = xv
        self.av = av
        self.bv = bv
        self.x_degree = sum(xv)
        self._hash = hash((xv, av, bv))

    @property
    def x(self) -> tuple[tuple[int, int], ...]:
        return _sparse(self.xv)

    @property
    def a(self) -> tuple[tuple[int, int], ...]:
        return _sparse(self.av)

    @property
    def b(self) -> tuple[tuple[int, int], ...]:
        return _sparse(self.bv)

    @property
    def alpha_degree(self) -> int:
        return sum(self.av)

    @property
    def beta_degree(self) -> int:
        return sum(self.bv)

    def __mul__(self, other: "Monomial") -> "Monomial":
        return _monomial(
            _vadd(self.xv, other.xv), _vadd(self.av, other.av), _vadd(self.bv, other.bv)
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Monomial)
            and self._hash == other._hash
            and self.xv == other.xv
            and self.av == other.av
            and self.bv == other.bv
        )

    def __hash__(self) -> int:
        return self._hash

    def sort_key(self):
        return (self.x, self.a, self.b)

    def __str__(self) -> str:
        bits = []
        for sym, vec in (("x", self.xv), ("a", self.av), ("b", self.bv)):
            for idx, exp in enumerate(vec, 1):
                if exp:
                    bits.append(f"{sym}{idx}" + (f"^{exp}" if exp > 1 else ""))
        return " ".join(bits) if bits else "1"

    def __repr__(self) -> str:
        return f"Monomial({self})"


def _monomial(xv, av, bv) -> Monomial:
    """The Monomial of three exponent vectors already in normal form; skips
    the public constructor's validation."""
    m = object.__new__(Monomial)
    m._fill(xv, av, bv)
    return m


MONOMIAL_ONE = Monomial()


def x_mono(i: int, e: int = 1) -> Monomial:
    return Monomial(x=((i, e),))


def alpha_mono(i: int, e: int = 1) -> Monomial:
    return Monomial(a=((i, e),))


def beta_mono(i: int, e: int = 1) -> Monomial:
    return Monomial(b=((i, e),))


class Packing:
    """Monomials as ints, for arithmetic on many terms under the x-degree cap.

    A key has the fields x-degree | x_1..x_nx | a_1..a_na | b_1..b_nb, most
    significant first, each below the x-degree whole bytes wide and holding
    the exponent top.  Keys add as their monomials multiply while no field
    passes top, and order by x-degree, then lex, so that the keys of
    x-degree at most cap are those below limit."""

    __slots__ = ("nx", "na", "nb", "cap", "bits", "low", "limit")

    def __init__(self, nx: int, na: int, nb: int, top: int, cap: int):
        if cap < 0:
            raise CapTooSmall(f"cap must be nonnegative, got {cap}")
        self.nx, self.na, self.nb, self.cap = nx, na, nb, cap
        self.bits = -(-top.bit_length() // 8) * 8 or 8
        self.low = self.bits * (nx + na + nb)
        self.limit = cap + 1 << self.low

    def key(self, m: Monomial) -> int:
        """The key of m; ValueError when m has a variable the packing lacks."""
        xv, av, bv = m.xv, m.av, m.bv
        if len(xv) > self.nx or len(av) > self.na or len(bv) > self.nb:
            raise ValueError(
                f"{m} has more variables than the packing's "
                f"{self.nx} x, {self.na} alpha and {self.nb} beta"
            )
        flat = xv + (0,) * (self.nx - len(xv)) + av + (0,) * (self.na - len(av))
        flat += bv + (0,) * (self.nb - len(bv))
        if self.bits > 8:
            flat = b"".join(e.to_bytes(self.bits // 8, "big") for e in flat)
        return m.x_degree << self.low | int.from_bytes(bytes(flat), "big")

    def packed(self, p: "TruncatedPolynomial") -> list[tuple[int, int]]:
        """The (key, coefficient) pairs of p in key order."""
        return sorted((self.key(m), c) for m, c in p.terms.items())

    def add_product(self, acc: dict[int, int], left, right, sign: int = 1) -> None:
        """Add sign * left * right, up to x-degree cap, to acc; left and
        right are (key, coefficient) pairs, right in key order."""
        get, limit = acc.get, self.limit
        for k1, c1 in left:
            c1 *= sign
            for k2, c2 in right:
                k = k1 + k2
                if k >= limit:
                    break
                acc[k] = get(k, 0) + c1 * c2

    def determinant(self, rows) -> dict[int, int]:
        """The determinant of a square matrix whose entries are (key,
        coefficient) pairs in key order, as packed counts up to x-degree cap
        ({0: 1} for no rows), expanded by minors on rows.

        D(S), the minor on rows 1..|S| and the column set S, is the sum over j
        in S of (-1)^#{s in S : s > j} * D(S - {j}) * entry(|S|, j); each
        minor is built once from those of the row before, so the expansion
        takes n * 2^(n-1) products instead of the n * n! of the permutations."""
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("the matrix must be square")
        # minors on the rows so far, keyed by their column set as a bit mask
        minors = {0: {0: 1}}
        for row in rows:
            bigger: dict[int, dict[int, int]] = {}
            for cols, minor in minors.items():
                for j, entry in enumerate(row):
                    if not cols >> j & 1:
                        # the columns of cols right of j set the sign
                        sign = -1 if (cols >> j).bit_count() % 2 else 1
                        acc = bigger.setdefault(cols | 1 << j, {})
                        self.add_product(acc, minor.items(), entry, sign)
            minors = bigger
        return minors[(1 << n) - 1]

    def polynomial(self, counts: Mapping[int, int]) -> "TruncatedPolynomial":
        """The polynomial with coefficient c at the monomial of each key k
        of counts; no key may pass limit."""
        nx, ny, size, terms = self.nx, self.nx + self.na, self.bits // 8, {}
        for k, c in counts.items():
            if c:
                raw = (k & (1 << self.low) - 1).to_bytes(self.low // 8, "big")
                flat = tuple(raw) if size == 1 else tuple(
                    int.from_bytes(raw[i : i + size], "big")
                    for i in range(0, len(raw), size)
                )
                m = _monomial(_trim(flat[:nx]), _trim(flat[nx:ny]), _trim(flat[ny:]))
                terms[m] = c
        return _poly(terms, self.cap)


def _packing(groups, cap: int) -> Packing:
    """The packing of every product of one monomial from each group."""
    groups = [[(m.xv, m.av, m.bv) for m in g] for g in groups]
    every = [vs for g in groups for vs in g]
    widths = [max([len(vs[i]) for vs in every], default=0) for i in range(3)]
    top = sum(max([e for vs in g for v in vs for e in v], default=0) for g in groups)
    return Packing(*widths, top, cap)


def _poly(terms: dict[Monomial, int], cap: int) -> "TruncatedPolynomial":
    """The polynomial of terms whose coefficients are nonzero and whose
    x-degrees are within cap; skips the public constructor's filter."""
    p = object.__new__(TruncatedPolynomial)
    p.terms = terms
    p.cap = cap
    return p


class TruncatedPolynomial:
    """Integer combination of monomials, truncated at an x-degree cap."""

    __slots__ = ("terms", "cap")

    def __init__(self, terms: Mapping[Monomial, int], cap: int):
        if cap < 0:
            raise CapTooSmall(f"cap must be nonnegative, got {cap}")
        self.cap = cap
        self.terms = {
            m: c for m, c in terms.items() if c != 0 and m.x_degree <= cap
        }

    @classmethod
    def zero(cls, cap: int) -> "TruncatedPolynomial":
        return cls({}, cap)

    @classmethod
    def const(cls, value: int, cap: int) -> "TruncatedPolynomial":
        return cls({MONOMIAL_ONE: value}, cap)

    @classmethod
    def monomial(cls, m: Monomial, cap: int, coeff: int = 1) -> "TruncatedPolynomial":
        return cls({m: coeff}, cap)

    def _check_cap(self, other: "TruncatedPolynomial") -> None:
        if self.cap != other.cap:
            raise CapMismatch(f"caps differ: {self.cap} vs {other.cap}")

    def __add__(self, other: "TruncatedPolynomial") -> "TruncatedPolynomial":
        self._check_cap(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            c += terms.get(m, 0)
            if c:
                terms[m] = c
            else:
                del terms[m]
        return _poly(terms, self.cap)

    def __neg__(self) -> "TruncatedPolynomial":
        return _poly({m: -c for m, c in self.terms.items()}, self.cap)

    def __sub__(self, other: "TruncatedPolynomial") -> "TruncatedPolynomial":
        return self + (-other)

    def __mul__(self, other) -> "TruncatedPolynomial":
        if isinstance(other, int):
            terms = {m: c * other for m, c in self.terms.items()} if other else {}
            return _poly(terms, self.cap)
        self._check_cap(other)
        pack = _packing([self.terms, other.terms], self.cap)
        acc: dict[int, int] = {}
        pack.add_product(acc, pack.packed(self), pack.packed(other))
        return pack.polynomial(acc)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncatedPolynomial)
            and self.cap == other.cap
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.cap, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def coefficient(self, m: Monomial) -> int:
        return self.terms.get(m, 0)

    def x_graded_piece(self, degree: int) -> "TruncatedPolynomial":
        return _poly(
            {m: c for m, c in self.terms.items() if m.x_degree == degree}, self.cap
        )

    def serialize(self) -> str:
        lines = [
            f"{c} * {m}"
            for m, c in sorted(self.terms.items(), key=lambda mc: mc[0].sort_key())
        ]
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"TruncatedPolynomial(<{len(self.terms)} terms>, cap={self.cap})"


def poly_add(a: TruncatedPolynomial, b: TruncatedPolynomial) -> TruncatedPolynomial:
    return a + b


def poly_mul(a: TruncatedPolynomial, b: TruncatedPolynomial) -> TruncatedPolynomial:
    return a * b


def determinant(rows, cap: int) -> TruncatedPolynomial:
    """The determinant of a square matrix of polynomials of cap cap (1 for
    no rows), expanded by minors on rows through Packing.determinant."""
    if any(p.cap != cap for row in rows for p in row):
        raise CapMismatch(f"an entry's cap differs from {cap}")
    pack = _packing(([m for p in row for m in p.terms] for row in rows), cap)
    packed = [[pack.packed(p) for p in row] for row in rows]
    return pack.polynomial(pack.determinant(packed))


def exact_divide(
    p: TruncatedPolynomial, v: TruncatedPolynomial
) -> dict[Monomial, int]:
    """The terms of p / v for v monic in Packing key order; raises
    ArithmeticError if v is not monic or the division is not exact.

    Fields hold twice the exponents of p * v, which an exact division never
    passes: a leading term with a field's top bit set, or whose subtraction
    clears one, proves it inexact, and no other key sum can carry."""
    pack = _packing([p.terms, v.terms] * 2, p.cap)
    free = sum(1 << pack.bits * i - 1 for i in range(1, pack.low // pack.bits + 1))
    divisor = pack.packed(v)
    v_lead, v_coeff = divisor[-1]
    if v_coeff != 1:
        raise ArithmeticError("divisor must be monic in key order")
    quotient: dict[int, int] = {}
    rem = dict(pack.packed(p))
    # the keys of rem, negated, plus keys cancelled since they were pushed;
    # every key a step adds is below its lead, so the heap's top is the lead
    heap = [-k for k in rem]
    heapify(heap)
    while rem:
        lead = -heappop(heap)
        if lead not in rem:
            continue
        t = lead - v_lead
        if lead & free or (lead | free) - v_lead & free != free:
            raise ArithmeticError("division is not exact")
        coeff = quotient[t] = rem[lead]
        for vk, vc in divisor:
            k = t + vk
            c = rem.get(k, 0) - coeff * vc
            if c:
                if k not in rem:
                    heappush(heap, -k)
                rem[k] = c
            else:
                del rem[k]
    return pack.polynomial(quotient).terms
