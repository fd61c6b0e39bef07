"""Exact sparse polynomials in x_i, alpha_i, beta_i with x-degree truncation.

Coefficients are Python ints, so they are exact at any magnitude.  A
TruncatedPolynomial drops every monomial whose total degree in the x
variables exceeds its cap; addition and multiplication are only defined
between polynomials with equal caps.  exact_divide divides by a
polynomial monic in lex order, on the same exponent keys as the product.

A monomial stores each of its three variable groups as an exponent vector:
position i - 1 holds the exponent of index i, and the vector has no
trailing zeros, so equal monomials have equal vectors and a product adds
them entrywise.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import islice
from operator import add, sub
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
    pairs = group.items() if hasattr(group, "items") else group
    acc: dict[int, int] = {}
    for idx, exp in pairs:
        if exp:
            acc[idx] = acc.get(idx, 0) + exp
    for idx, exp in acc.items():
        if idx < 1 or exp < 0:
            raise ValueError(f"bad variable power ({idx}, {exp})")
        if idx > MAX_INDEX:
            raise ValueError(f"variable index {idx} above the limit {MAX_INDEX}")
    if not acc:
        return ()
    vec = [0] * max(acc)
    for idx, exp in acc.items():
        vec[idx - 1] = exp
    return _trim(tuple(vec))


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


def _layout(monomials) -> tuple[int, int, int]:
    """Widths (nx, na, nb) that hold every exponent vector of monomials."""
    return (
        max([len(m.xv) for m in monomials], default=0),
        max([len(m.av) for m in monomials], default=0),
        max([len(m.bv) for m in monomials], default=0),
    )


def _flat_key(m: Monomial, nx: int, na: int, nb: int) -> tuple[int, ...]:
    """The exponents of m in one tuple laid out x | a | b, each group padded
    to its width; keys of one layout add entrywise and compare in lex order."""
    xv, av, bv = m.xv, m.av, m.bv
    return (
        xv + (0,) * (nx - len(xv)) + av + (0,) * (na - len(av)) + bv + (0,) * (nb - len(bv))
    )


def _from_flat_key(k: tuple[int, ...], nx: int, na: int) -> Monomial:
    """The Monomial whose _flat_key with widths nx, na is k."""
    return _monomial(_trim(k[:nx]), _trim(k[nx : nx + na]), _trim(k[nx + na :]))


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
        cap = self.cap
        nx, na, nb = _layout([*self.terms, *other.terms])
        # the right operand in x-degree order, so each left term stops at
        # the first partner that would pass the cap
        right = sorted(
            (m.x_degree, _flat_key(m, nx, na, nb), c) for m, c in other.terms.items()
        )
        degrees = [d for d, _, _ in right]
        right = [(k, c) for _, k, c in right]
        acc: dict[tuple[int, ...], int] = {}
        get = acc.get
        for m1, c1 in self.terms.items():
            k1 = _flat_key(m1, nx, na, nb)
            for k2, c2 in islice(right, bisect_right(degrees, cap - m1.x_degree)):
                k = tuple(map(add, k1, k2))
                acc[k] = get(k, 0) + c1 * c2
        terms = {_from_flat_key(k, nx, na): c for k, c in acc.items() if c}
        return _poly(terms, cap)

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


def exact_divide(
    p: TruncatedPolynomial, v: TruncatedPolynomial
) -> dict[Monomial, int]:
    """The terms of p / v for v monic in lex order; raises ArithmeticError
    if v is not monic or the division is not exact.

    Every monomial is handled as its exponent key, so each key is built
    once and the leading term is the largest key of the remainder."""
    nx, na, nb = _layout([*p.terms, *v.terms])
    divisor = [(_flat_key(m, nx, na, nb), c) for m, c in v.terms.items()]
    v_lead, v_coeff = max(divisor)
    if v_coeff != 1:
        raise ArithmeticError("divisor must be monic in lex order")
    quotient: dict[Monomial, int] = {}
    rem = {_flat_key(m, nx, na, nb): c for m, c in p.terms.items()}
    while rem:
        lead = max(rem)
        t = tuple(map(sub, lead, v_lead))
        if min(t) < 0:
            raise ArithmeticError("division is not exact")
        coeff = rem[lead]
        quotient[_from_flat_key(t, nx, na)] = coeff
        for vk, vc in divisor:
            k = tuple(map(add, t, vk))
            c = rem.get(k, 0) - coeff * vc
            if c:
                rem[k] = c
            else:
                del rem[k]
    return quotient
