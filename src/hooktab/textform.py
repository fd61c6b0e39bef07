"""Plain-text tableau format shared by the CLI, tests and golden files.

Rows are written bottom to top separated by " / ", cells separated by "|".
A hook cell is "h[+a1,a2,...][^l1,l2,...]"; a mixed cell is "aK" or "bK"
(K a possibly negative integer) and inner cells are ".".  Parsers round-trip
bit-exactly with the serializers on canonical output.
"""

from __future__ import annotations

from .tableaux import HookCell, HookValuedTableau, MixedEntry, MixedTableau, alpha, beta


class TableauSyntaxError(ValueError):
    def __init__(self, text: str, pos: int, expected: str):
        self.line = text.count("\n", 0, pos) + 1
        last_nl = text.rfind("\n", 0, pos)
        self.column = pos - last_nl
        self.expected = expected
        super().__init__(f"line {self.line}, column {self.column}: expected {expected}")


def serialize_hook_cell(cell: HookCell) -> str:
    out = str(cell.hook)
    if cell.arms:
        out += "+" + ",".join(str(a) for a in cell.arms)
    if cell.legs:
        out += "^" + ",".join(str(l) for l in cell.legs)
    return out


def serialize_hvt(T: HookValuedTableau) -> str:
    return " / ".join(
        "|".join(serialize_hook_cell(cell) for cell in row) for row in T.rows
    )


def serialize_mixed(T: MixedTableau) -> str:
    rows = []
    for r, width in enumerate(T.outer, 1):
        inner = T.inner[r - 1] if r <= len(T.inner) else 0
        toks = ["."] * inner
        for c in range(inner + 1, width + 1):
            e = T.entries[(r, c)]
            toks.append(f"{e.kind}{e.index}")
        rows.append("|".join(toks))
    return " / ".join(rows)


class _Cursor:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def fail(self, expected: str):
        raise TableauSyntaxError(self.text, self.pos, expected)

    def skip_ws(self) -> None:
        while self.peek() in (" ", "\t"):
            self.pos += 1

    def int_token(self, what: str, allow_negative: bool = False) -> int:
        start = self.pos
        if allow_negative and self.peek() == "-":
            self.take()
        # ASCII digits only (str.isdigit accepts "²"); "" at the end fails too
        if not "0" <= self.peek() <= "9":
            self.fail(what)
        while "0" <= self.peek() <= "9":
            self.take()
        return int(self.text[start : self.pos])

    def positive_int(self, what: str) -> int:
        at = self.pos
        v = self.int_token(what)
        if v < 1:
            self.pos = at
            self.fail(what)
        return v


def _split_tableau(cur: _Cursor, parse_cell) -> tuple[list[list], list[int]]:
    """Parse rows of cells; parse_cell consumes one cell at the cursor.

    Returns the rows and the text offset where each row starts, so shape
    errors found after parsing can point at their row."""
    rows = []
    row_starts = []
    cur.skip_ws()
    if cur.pos == len(cur.text):
        return rows, row_starts
    while True:
        row_starts.append(cur.pos)
        row = [parse_cell(cur)]
        while True:
            cur.skip_ws()
            ch = cur.peek()
            if ch == "|":
                cur.take()
                cur.skip_ws()
                row.append(parse_cell(cur))
            else:
                break
        rows.append(row)
        cur.skip_ws()
        if cur.pos == len(cur.text):
            return rows, row_starts
        if cur.peek() == "/":
            cur.take()
            cur.skip_ws()
        else:
            cur.fail("'|', '/' or end of input")


def _entry_list(cur: _Cursor, marker: str, what: str) -> list[int]:
    """The comma-separated positive integers after marker; [] if the cursor
    is not at marker."""
    out: list[int] = []
    sep = marker
    while cur.peek() == sep:
        cur.take()
        out.append(cur.positive_int(what))
        sep = ","
    return out


def _parse_hook_cell(cur: _Cursor) -> HookCell:
    hook = cur.positive_int("positive integer hook entry")
    arms = _entry_list(cur, "+", "positive integer arm entry")
    legs = _entry_list(cur, "^", "positive integer leg entry")
    return HookCell(hook, arms, legs)


def parse_hvt(text: str) -> HookValuedTableau:
    """Parse the hook-valued tableau format (syntax only; run hvt_violations
    for the semistandardness conditions)."""
    cur = _Cursor(text.strip("\n"))
    rows, _ = _split_tableau(cur, _parse_hook_cell)
    return HookValuedTableau(rows)


def _parse_mixed_cell(cur: _Cursor):
    ch = cur.peek()
    if ch == ".":
        cur.take()
        return None
    if ch == "a":
        cur.take()
        at = cur.pos
        k = cur.int_token("positive alpha index", allow_negative=True)
        if k < 1:
            cur.pos = at
            cur.fail("positive alpha index")
        return alpha(k)
    if ch == "b":
        cur.take()
        return beta(cur.int_token("integer beta index", allow_negative=True))
    cur.fail("'.', 'aK' or 'bK'")


def parse_mixed(text: str) -> MixedTableau:
    """Parse the mixed tableau format, building the skew shape from the row
    lengths (outer) and the leading dots (inner)."""
    stripped = text.strip("\n")
    rows, row_starts = _split_tableau(_Cursor(stripped), _parse_mixed_cell)

    outer = []
    inner = []
    entries: dict[tuple[int, int], MixedEntry] = {}
    for r, row in enumerate(rows, 1):
        outer.append(len(row))
        dots = 0
        for tok in row:
            if tok is None:
                dots += 1
            else:
                break
        for c, tok in enumerate(row, 1):
            if c <= dots:
                continue
            if tok is None:
                raise TableauSyntaxError(
                    stripped, row_starts[r - 1], "inner dots only at the start of a row"
                )
            entries[(r, c)] = tok
        inner.append(dots)
    while inner and inner[-1] == 0:
        inner.pop()
    try:
        return MixedTableau(tuple(outer), tuple(inner), entries)
    except ValueError as exc:
        raise TableauSyntaxError(stripped, 0, f"a skew shape ({exc})") from exc


def parse_tableau(text: str, family: str):
    if family == "hvt":
        return parse_hvt(text)
    if family == "mixed":
        return parse_mixed(text)
    raise ValueError(f"unknown tableau family {family!r}")
