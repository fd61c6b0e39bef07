"""Hook-valued and mixed tableaux: validity, weights and classification.

A hook-valued tableau fills a partition shape with semistandard hooks
(hook entry h, weakly increasing arm h <= A1 <= ..., strictly increasing
leg h < L1 < ...), weakly increasing along rows and strictly increasing up
columns when comparing whole cells.  A mixed tableau fills a skew shape
with symbols alpha_k (k > 0) or beta_k (k any integer).
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .polynomials import Monomial
from .shapes import (
    Cell,
    Partition,
    check_skew,
    content,
    is_partition,
    skew_cells,
)


class NonpositiveBetaIndex(ValueError):
    """A beta entry with index <= 0 has no weight."""


class HookCell:
    """One cell of a hook-valued tableau."""

    __slots__ = ("hook", "arms", "legs")

    def __init__(self, hook: int, arms=(), legs=()):
        self.hook = hook
        self.arms = tuple(arms)
        self.legs = tuple(legs)

    def is_valid_hook(self) -> bool:
        vals = (self.hook,) + self.arms + self.legs
        if any(not isinstance(v, int) or v < 1 for v in vals):
            return False
        if any(a > b for a, b in zip(self.arms, self.arms[1:])):
            return False
        if any(a >= b for a, b in zip(self.legs, self.legs[1:])):
            return False
        if self.arms and self.arms[0] < self.hook:
            return False
        if self.legs and self.legs[0] <= self.hook:
            return False
        return True

    def entries(self) -> tuple[int, ...]:
        return (self.hook,) + self.arms + self.legs

    @property
    def max_entry(self) -> int:
        return max(self.entries())

    @property
    def min_entry(self) -> int:
        return min(self.entries())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HookCell)
            and self.hook == other.hook
            and self.arms == other.arms
            and self.legs == other.legs
        )

    def __hash__(self) -> int:
        return hash((self.hook, self.arms, self.legs))

    def __repr__(self) -> str:
        return f"HookCell({self.hook}, {self.arms}, {self.legs})"


class HookValuedTableau:
    """Immutable grid of hook cells, rows stored bottom-up."""

    __slots__ = ("rows",)

    def __init__(self, rows=()):
        self.rows = tuple(tuple(row) for row in rows)

    @property
    def shape(self) -> Partition:
        return tuple(len(row) for row in self.rows)

    def cell(self, r: int, c: int) -> HookCell:
        return self.rows[r - 1][c - 1]

    def cell_at(self, r: int, c: int) -> HookCell | None:
        if 1 <= r <= len(self.rows) and 1 <= c <= len(self.rows[r - 1]):
            return self.rows[r - 1][c - 1]
        return None

    def cells(self) -> Iterator[tuple[Cell, HookCell]]:
        for r, row in enumerate(self.rows, 1):
            for c, cell in enumerate(row, 1):
                yield (r, c), cell

    @property
    def num_cells(self) -> int:
        return sum(len(row) for row in self.rows)

    @property
    def arm_excess(self) -> int:
        return sum(len(cell.arms) for _, cell in self.cells())

    @property
    def leg_excess(self) -> int:
        return sum(len(cell.legs) for _, cell in self.cells())

    def entry_multiset(self) -> tuple[int, ...]:
        out = []
        for _, cell in self.cells():
            out.extend(cell.entries())
        return tuple(sorted(out))

    def replace(self, r: int, c: int, cell: HookCell) -> "HookValuedTableau":
        rows = [list(row) for row in self.rows]
        rows[r - 1][c - 1] = cell
        return HookValuedTableau(rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, HookValuedTableau) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        from .textform import serialize_hvt

        return f"HookValuedTableau({serialize_hvt(self)!r})"


def hvt_violations(T: HookValuedTableau) -> list[tuple]:
    """Every violated hook-valued-tableau condition with its witnesses.

    Violations are tuples: ("HookShapeViolation", cell),
    ("RowViolation", cell, right_cell), ("ColumnViolation", cell, upper_cell)
    and ("DomainMismatch", shape) when the row lengths fail to be a partition.
    """
    out: list[tuple] = []
    if not is_partition(T.shape):
        out.append(("DomainMismatch", T.shape))
    for (r, c), cell in T.cells():
        if not cell.is_valid_hook():
            out.append(("HookShapeViolation", (r, c)))
    for (r, c), cell in T.cells():
        right = T.cell_at(r, c + 1)
        if right is not None and cell.max_entry > right.min_entry:
            out.append(("RowViolation", (r, c), (r, c + 1)))
        above = T.cell_at(r + 1, c)
        if above is not None and cell.max_entry >= above.min_entry:
            out.append(("ColumnViolation", (r, c), (r + 1, c)))
    return out


def validate_hvt(shape, raw_cells) -> tuple[HookValuedTableau | None, list[tuple]]:
    """Assemble a tableau from a cell map, reporting all violations.

    Returns (tableau, []) when valid, else (None, violations).  The cell map
    must cover exactly the cells of shape, otherwise a single DomainMismatch
    is reported.
    """
    shape = tuple(shape)
    if not is_partition(shape) and shape != ():
        return None, [("DomainMismatch", shape)]
    wanted = {(r, c) for r, width in enumerate(shape, 1) for c in range(1, width + 1)}
    if set(raw_cells) != wanted:
        return None, [("DomainMismatch", shape)]
    rows = [
        [raw_cells[(r, c)] for c in range(1, width + 1)]
        for r, width in enumerate(shape, 1)
    ]
    T = HookValuedTableau(rows)
    bad = hvt_violations(T)
    return (T, []) if not bad else (None, bad)


def is_valid_hvt(T: HookValuedTableau) -> bool:
    return not hvt_violations(T)


def weight_hvt(T: HookValuedTableau) -> Monomial:
    """alpha_i per arm entry in column i, beta_i per leg entry in row i,
    x_i per occurrence of the value i."""
    a: dict[int, int] = {}
    b: dict[int, int] = {}
    x: dict[int, int] = {}
    for r, row in enumerate(T.rows, 1):
        for c, cell in enumerate(row, 1):
            if cell.arms:
                a[c] = a.get(c, 0) + len(cell.arms)
            if cell.legs:
                b[r] = b.get(r, 0) + len(cell.legs)
            for v in (cell.hook, *cell.arms, *cell.legs):
                x[v] = x.get(v, 0) + 1
    return Monomial(x=x, a=a, b=b)


# ---------------------------------------------------------------------------
# Mixed tableaux


class MixedEntry(NamedTuple):
    kind: str  # "a" or "b"
    index: int


def alpha(k: int) -> MixedEntry:
    if k <= 0:
        raise ValueError(f"alpha index must be positive, got {k}")
    return MixedEntry("a", k)


def beta(k: int) -> MixedEntry:
    return MixedEntry("b", k)


class MixedTableau:
    """Skew-shaped filling by alpha/beta symbols; immutable."""

    __slots__ = ("outer", "inner", "entries")

    def __init__(self, outer, inner, entries):
        outer, inner = check_skew(outer, inner)
        wanted = set(skew_cells(outer, inner))
        entries = dict(entries)
        if set(entries) != wanted:
            raise ValueError("entries must fill the skew shape exactly")
        for e in entries.values():
            if e.kind not in ("a", "b") or (e.kind == "a" and e.index <= 0):
                raise ValueError(f"bad mixed entry {e}")
        self.outer, self.inner, self.entries = outer, inner, entries

    def entry(self, r: int, c: int) -> MixedEntry | None:
        """The entry at (r, c); None for inner cells and cells outside outer."""
        return self.entries.get((r, c))

    def cells(self) -> list[Cell]:
        return sorted(self.entries)

    @property
    def num_cells(self) -> int:
        return len(self.entries)

    def swapped(self, p: Cell, q: Cell) -> "MixedTableau":
        """The tableau with the entries of cells p and q exchanged.

        Exchanging two cells of a valid tableau keeps the shape and the
        entries, so the result skips the constructor's validation."""
        entries = dict(self.entries)
        entries[p], entries[q] = entries[q], entries[p]
        out = object.__new__(MixedTableau)
        out.outer, out.inner, out.entries = self.outer, self.inner, entries
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MixedTableau)
            and self.outer == other.outer
            and self.inner == other.inner
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.outer, self.inner, frozenset(self.entries.items())))

    def __repr__(self) -> str:
        from .textform import serialize_mixed

        return f"MixedTableau({serialize_mixed(self)!r})"


def weight_mixed(T: MixedTableau) -> Monomial:
    """Product of the entry symbols; defined only when all beta indices are
    positive (flagged-mixed tableaux always qualify)."""
    a: dict[int, int] = {}
    b: dict[int, int] = {}
    for e in T.entries.values():
        if e.kind == "a":
            a[e.index] = a.get(e.index, 0) + 1
        else:
            if e.index <= 0:
                raise NonpositiveBetaIndex(f"beta_{e.index} has no weight")
            b[e.index] = b.get(e.index, 0) + 1
    return Monomial(a=a, b=b)


class StrictnessFlags(NamedTuple):
    alpha_column_strict: bool
    alpha_row_strict: bool
    beta_column_strict: bool
    beta_row_strict: bool
    totally_column_strict: bool
    sorted_alpha_beta: bool
    sorted_beta_alpha: bool
    flagged_mixed: bool


def _indexed(T: MixedTableau, kind: str) -> list[tuple[Cell, int]]:
    return [(p, e.index) for p, e in T.entries.items() if e.kind == kind]


def _gamma_strict(items: list[tuple[Cell, int]], same_axis: int) -> bool:
    # (1) an index weakly southwest of another must be at least as large;
    # (2) no repeated index in one column (axis 1) resp. row (axis 0)
    for ((r, c), i) in items:
        for (q, j) in items:
            if i < j and r <= q[0] and c <= q[1]:
                return False
    seen = set()
    for ((r, c), i) in items:
        key = (c if same_axis == 1 else r, i)
        if key in seen:
            return False
        seen.add(key)
    return True


def is_alpha_column_strict(T: MixedTableau) -> bool:
    """Alpha indices weakly decrease northeast, none twice in a column."""
    return _gamma_strict(_indexed(T, "a"), 1)


def is_alpha_row_strict(T: MixedTableau) -> bool:
    """Alpha indices weakly decrease northeast, none twice in a row."""
    return _gamma_strict(_indexed(T, "a"), 0)


def is_beta_column_strict(T: MixedTableau) -> bool:
    """Beta indices weakly decrease northeast, none twice in a column."""
    return _gamma_strict(_indexed(T, "b"), 1)


def is_beta_row_strict(T: MixedTableau) -> bool:
    """Beta indices weakly decrease northeast, none twice in a row."""
    return _gamma_strict(_indexed(T, "b"), 0)


def _all_fit(T: MixedTableau, fits) -> bool:
    """Whether fits(e, p, n, q) holds for every entry e at a cell p and the
    entry n at each left or lower neighbour q of p."""
    # from q looking right and up: a random filling fails sooner than from p
    entries = T.entries
    for q, n in entries.items():
        r, c = q
        for p in ((r, c + 1), (r + 1, c)):
            e = entries.get(p)
            if e is not None and not fits(e, p, n, q):
                return False
    return True


def _column_strict_fits(e, p, n, q) -> bool:
    return n.index > e.index if q[0] < p[0] else n.index >= e.index


def _exquisite_fits(e, p, n, q) -> bool:
    """Total column strictness of the positive beta shift."""
    i, j = (x.index + content(at) * (x.kind == "b") for x, at in ((e, p), (n, q)))
    return j > i if q[0] < p[0] else j >= i


def _sorted_strict(e, p, n, q) -> bool:
    """Alphas have only alphas left of and below them and decrease weakly along
    rows, strictly up columns; betas strictly along rows, weakly up columns.
    That is exactly sortedness and alpha column and beta row strictness: cells
    p <= q of a skew shape are joined through (p_row, q_col) by adjacent cells
    that lie in nu/inner when both do and in outer/nu when both do."""
    if n.kind != e.kind:
        return n.kind == "a"
    return n.index > e.index if (q[0] < p[0]) == (e.kind == "a") else n.index >= e.index


def is_totally_column_strict(T: MixedTableau) -> bool:
    """Indices strictly decrease up columns and weakly along rows,
    whatever the kinds."""
    return _all_fit(T, _column_strict_fits)


def _is_sorted(T: MixedTableau, first_kind: str) -> bool:
    """True iff the first_kind cells form nu/inner and the others outer/nu,
    i.e. iff no first_kind cell has another kind left of or below it: were
    nu_{r+1} > nu_r, cell (r, nu_{r+1}) would be of another kind below one."""
    return _all_fit(T, lambda e, p, n, q: e.kind != first_kind or n.kind == first_kind)


def is_sorted_alpha_beta(T: MixedTableau) -> bool:
    """The alphas fill nu/inner and the betas outer/nu for a partition nu."""
    return _is_sorted(T, "a")


def is_sorted_beta_alpha(T: MixedTableau) -> bool:
    """The betas fill nu/inner and the alphas outer/nu for a partition nu."""
    return _is_sorted(T, "b")


def is_flagged_mixed(T: MixedTableau) -> bool:
    """Each alpha_k in column c has 0 < k < c, each beta_k in row r 0 < k < r."""
    for (r, c), e in T.entries.items():
        bound = c if e.kind == "a" else r
        if not 0 < e.index < bound:
            return False
    return True


def classify_mixed(T: MixedTableau) -> StrictnessFlags:
    """Evaluate all strictness/sortedness/flag predicates on a mixed tableau."""
    # the four strictness predicates, sharing one scan per kind
    alphas = _indexed(T, "a")
    betas = _indexed(T, "b")
    return StrictnessFlags(
        alpha_column_strict=_gamma_strict(alphas, 1),
        alpha_row_strict=_gamma_strict(alphas, 0),
        beta_column_strict=_gamma_strict(betas, 1),
        beta_row_strict=_gamma_strict(betas, 0),
        totally_column_strict=is_totally_column_strict(T),
        sorted_alpha_beta=is_sorted_alpha_beta(T),
        sorted_beta_alpha=is_sorted_beta_alpha(T),
        flagged_mixed=is_flagged_mixed(T),
    )


def c_beta_shift(T: MixedTableau, sign: str) -> MixedTableau:
    """Replace each beta_r in a cell of content c by beta_{r+c} ("+") or
    beta_{r-c} ("-"); alpha entries are untouched."""
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    k = 1 if sign == "+" else -1
    entries = {
        cell: beta(e.index + k * content(cell)) if e.kind == "b" else e
        for cell, e in T.entries.items()
    }
    return MixedTableau(T.outer, T.inner, entries)


def is_exquisite(T: MixedTableau) -> bool:
    """Flagged-mixed with totally column-strict positive beta shift."""
    return is_flagged_mixed(T) and _all_fit(T, _exquisite_fits)
