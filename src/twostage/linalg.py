"""Exact integer matrices, Smith normal form, and lattice utilities.

Everything downstream (abelian group normal forms, cohomology, moduli
reports) reduces to linear algebra over Z.  Entries are Python ints, so
intermediate values grow as needed and nothing here ever touches floating
point.  All matrices are immutable once constructed; algorithms work on
private copies and freeze their results.  The public constructors
(``IntMatrix(...)``, ``from_rows``, ``from_columns``) check every entry;
a matrix built from entries that are already checked ints (a transpose,
a Smith form's outputs, a stacking of matrices, the bar differentials)
skips the check through the private ``IntMatrix._of``.

Conventions:

* ``smith_normal_form(m)`` gives ``u @ m @ v == s``, ``u`` and ``v``
  unimodular, ``s`` diagonal with non-negative entries in a divisibility
  chain ``d1 | d2 | ...`` and zeros trailing.  It is one general reduction
  with no special case for any shape of input; a sum of copies of one
  group never reaches it, since ``abelian.direct_sum`` assembles the sum's
  Smith data from the summands'.  Its pivot rule (smallest |entry|, ties
  to the lowest row and then column) and its sequence of row and column
  operations fix s, u, v and u^-1 entry for entry.  Only the working
  matrix is eliminated, and each operation is logged: u, u^-1 and v are
  products of the logged operations, so a row of u or a column of u^-1
  is the row log replayed last to first on a unit vector, O(1) per
  operation while the vector stays sparse.  A group reads all its
  coordinate slots in one replay per direction; whole transforms are
  replayed only when read.  Rows are sparse, and three shortcuts leave
  the sequence as it is: the pivot search stops at an entry of absolute
  value 1, since only a strictly smaller entry displaces the one found; a
  unit pivot divides everything, so its "pivot divides the submatrix"
  sweep is skipped; and a column operation touches only the rows with a
  nonzero in its source column, the others being unchanged.
* ``column_hermite(m)``, ``integer_kernel(m)`` and
  ``congruence_kernel(columns, moduli)`` return the column Hermite basis
  of a lattice (positive pivots in strictly increasing rows, entries left
  of each pivot in [0, pivot)).  A lattice has one Hermite basis, so every
  route to it gives the same bytes, kept as sparse columns and dense only
  when read (``_SparseMatrix``).  Over Z, a sparse lower echelon of
  the generating columns (``_echelon``) is reduced by ``_hermite``.  A
  congruence lattice contains E * Z^n, E the lcm of its moduli, so no
  entry need grow past E: it is lifted one prime factor of E at a time,
  each step a sparse row reduction mod p (``_kernel_mod_p``, with the
  rows over F_2 held as ints and added by XOR), and no identity block is
  adjoined; the pivots of that reduction alone count an F_p rank.  Smith
  stays a separate eliminator because a Hermite basis only names a
  lattice; class coordinates come from Smith's u.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Iterable, Sequence

__all__ = [
    "IntMatrix",
    "SnfDecomposition",
    "smith_normal_form",
    "integer_kernel",
    "congruence_kernel",
    "column_hermite",
    "block_diag",
]


def _as_int(x) -> int:
    # bools are ints in Python; normalize them, refuse anything else inexact.
    if isinstance(x, bool):
        return int(x)
    if isinstance(x, int):
        return x
    raise TypeError(f"matrix entries must be exact integers, got {type(x).__name__}: {x!r}")


class IntMatrix:
    """An immutable rows x cols matrix over Z, stored row-major."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, entries: Iterable[int]):
        entries = [_as_int(x) for x in entries]
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries for a {rows}x{cols} matrix, got {len(entries)}")
        self.rows = rows
        self.cols = cols
        self.data = tuple(tuple(entries[i * cols : (i + 1) * cols]) for i in range(rows))

    @classmethod
    def _of(cls, rows: int, cols: int, data: tuple) -> "IntMatrix":
        """Wrap ``rows`` row tuples of exact ints, already checked, as they are."""
        m = cls.__new__(cls)
        m.rows = rows
        m.cols = cols
        m.data = data
        return m

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rows(cls, rows_list: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        rows_list = [list(r) for r in rows_list]
        if rows_list:
            width = len(rows_list[0])
            if any(len(r) != width for r in rows_list):
                raise ValueError("ragged rows")
        else:
            width = 0 if cols is None else cols
        if cols is not None and rows_list and width != cols:
            raise ValueError(f"rows have width {width}, expected {cols}")
        flat = [x for r in rows_list for x in r]
        return cls(len(rows_list), width, flat)

    @classmethod
    def from_columns(cls, cols_list: Sequence[Sequence[int]], rows: int | None = None) -> "IntMatrix":
        cols_list = [list(c) for c in cols_list]
        if cols_list:
            height = len(cols_list[0])
            if any(len(c) != height for c in cols_list):
                raise ValueError("ragged columns")
        else:
            height = 0 if rows is None else rows
        if rows is not None and cols_list and height != rows:
            raise ValueError(f"columns have height {height}, expected {rows}")
        flat = [cols_list[j][i] for i in range(height) for j in range(len(cols_list))]
        return cls(height, len(cols_list), flat)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, [0] * (rows * cols))

    # -- basic queries -----------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        return self.data[i][j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.data[i]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(self.data[i][j] for i in range(self.rows))

    def to_rows(self) -> list[list[int]]:
        return [list(r) for r in self.data]

    def nonzero_rows(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Each row as its ``(column, entry)`` pairs with nonzero entry."""
        return _nonzero(self.data, self.cols)

    def nonzero_columns(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Each column as its ``(row, entry)`` pairs with nonzero entry, top first."""
        return _nonzero(zip(*self.data), self.rows) if self.rows else ((),) * self.cols

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in r) for r in self.data)
        return f"IntMatrix({self.rows}x{self.cols}: [{body}])"

    # -- arithmetic --------------------------------------------------------

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, [-x for r in self.data for x in r])

    def scale(self, c: int) -> "IntMatrix":
        c = _as_int(c)
        return IntMatrix(self.rows, self.cols, [c * x for r in self.data for x in r])

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        ot = other.transpose().data
        flat = []
        for ra in self.data:
            for cb in ot:
                flat.append(sum(a * b for a, b in zip(ra, cb)))
        return IntMatrix(self.rows, other.cols, flat)

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Matrix-vector product over Z."""
        if len(vec) != self.cols:
            raise ValueError(f"vector of length {len(vec)} does not match {self.shape}")
        return tuple(sum(a * x for a, x in zip(r, vec)) for r in self.data)

    def transpose(self) -> "IntMatrix":
        return IntMatrix._of(self.cols, self.rows, tuple(zip(*self.data)) if self.rows else ((),) * self.cols)


class _SparseMatrix(IntMatrix):
    """An ``IntMatrix`` kept as its nonzero rows, or columns if ``by_columns``,
    as ``(index, entry)`` pairs in order; dense ``data`` is built when read."""

    __slots__ = ("_lines", "_by_columns", "_data")

    def __init__(self, rows: int, cols: int, lines: tuple, by_columns: bool = False):
        self.rows, self.cols, self._lines, self._by_columns, self._data = rows, cols, lines, by_columns, None

    @property
    def data(self) -> tuple:
        if self._data is None:
            dense = _dense(map(dict, self._lines), self.rows if self._by_columns else self.cols)
            self._data = IntMatrix._of(self.cols, self.rows, dense).transpose().data if self._by_columns else dense
        return self._data

    def nonzero_rows(self) -> tuple:
        return IntMatrix.nonzero_rows(self) if self._by_columns else self._lines

    def nonzero_columns(self) -> tuple:
        return self._lines if self._by_columns else IntMatrix.nonzero_columns(self)


def _nonzero(lines, width: int) -> tuple:
    """Each line (a row or a column) as its ``(index, entry)`` pairs with nonzero entry."""
    span = range(width)
    return tuple([tuple([(j, r[j]) for j in itertools.compress(span, r)]) for r in lines])


def hstack(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a.rows != b.rows:
        raise ValueError(f"row count mismatch: {a.shape} vs {b.shape}")
    return IntMatrix._of(a.rows, a.cols + b.cols, tuple(ra + rb for ra, rb in zip(a.data, b.data)))


def block_diag(blocks: Sequence[IntMatrix]) -> IntMatrix:
    rows = sum(b.rows for b in blocks)
    cols = sum(b.cols for b in blocks)
    out = [[0] * cols for _ in range(rows)]
    r0 = c0 = 0
    for b in blocks:
        for i in range(b.rows):
            out[r0 + i][c0 : c0 + b.cols] = list(b.data[i])
        r0 += b.rows
        c0 += b.cols
    return IntMatrix._of(rows, cols, tuple(map(tuple, out)))


class SnfDecomposition:
    """Smith normal form ``u @ m @ v == s``, as ``smith_normal_form`` finds it.

    It keeps the log of its row and column operations, not u, u^-1 and v:
    ``slot_transforms`` replays the row log once for the rows of u and
    once for the columns of u^-1 at a set of slots, and ``s``, ``u``,
    ``v`` and ``u_inv`` are built by replay on first read.
    """

    def __init__(self, shape, diagonal, row_log, col_log, negated):
        self.shape, self.diagonal, self.rank = shape, diagonal, sum(1 for d in diagonal if d != 0)
        self._row_log, self._col_log, self._negated = row_log, col_log, negated

    def _replay_rows(self, starts, inverse: bool) -> list[dict]:
        # Negating row i last negates row i of u and column i of u^-1.
        signs = {i: -1 if i in self._negated else 1 for i in starts}
        return _replay(self._row_log, self.shape[0], signs, inverse)

    def slot_transforms(self, slots) -> tuple[list[dict], list[dict]]:
        """The rows of u and the columns of u^-1 at ``slots``, one replay of
        the row log each, by position: entry p of the first is {i: u[i][p]}
        and of the second {c: u^-1[p][c]}, zeros left out."""
        return self._replay_rows(slots, False), self._replay_rows(slots, True)

    @functools.cached_property
    def s(self) -> IntMatrix:
        rows, cols = self.shape
        diagonal = [{i: d} for i, d in enumerate(self.diagonal)] + [{}] * (rows - len(self.diagonal))
        return IntMatrix._of(rows, cols, _dense(diagonal, cols))

    @functools.cached_property
    def u(self) -> IntMatrix:
        # Position p of the replay holds column p of u (and row p of u^-1).
        rows = self.shape[0]
        return IntMatrix._of(rows, rows, _dense(self._replay_rows(range(rows), False), rows)).transpose()

    @functools.cached_property
    def u_inv(self) -> IntMatrix:
        rows = self.shape[0]
        return IntMatrix._of(rows, rows, _dense(self._replay_rows(range(rows), True), rows))

    @functools.cached_property
    def v(self) -> IntMatrix:
        cols = self.shape[1]
        v_rows = _replay(self._col_log, cols, dict.fromkeys(range(cols), 1), False)
        return IntMatrix._of(cols, cols, _dense(v_rows, cols))

    def solve(self, b: Sequence[int]) -> tuple[int, ...] | None:
        """One integer solution x of m @ x = b, or None if there is none."""
        rows, cols = self.shape
        if len(b) != rows:
            raise ValueError(f"rhs length {len(b)} does not match {rows} rows")
        w = self.u.apply(b)
        z = [0] * cols
        for i, wi in enumerate(w):
            d = self.diagonal[i] if i < len(self.diagonal) else 0
            if d == 0:
                if wi != 0:
                    return None
            else:
                q, r = divmod(wi, d)
                if r != 0:
                    return None
                z[i] = q
        return self.v.apply(z)


def smith_normal_form(m: IntMatrix) -> SnfDecomposition:
    """Diagonalize ``m`` over Z by unimodular row and column operations.

    Pivot selection is the nonzero entry of smallest absolute value in the
    remaining submatrix, ties broken by lowest (row, column), which makes
    the output reproducible run to run.  Before a pivot is accepted, every
    entry of the remaining submatrix is forced to be divisible by it (by
    folding an offending row into the pivot row), so the diagonal comes out
    in a divisibility chain without a separate fix-up pass.

    Rows of the working matrix are dicts of their nonzero entries, so every
    update is one sparse row operation (see the module docstring for why
    the shortcuts are exact).  Each operation is logged for ``_replay``;
    the final sign fixes are kept as the set of negated rows.
    """
    rows, cols = m.rows, m.cols
    a = [dict(r) for r in m.nonzero_rows()]
    row_log, col_log = [], []

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        row_log.append((i, j, 0))

    def col_swap(t, j):
        # Rows above t are zero from column t on, so they keep both entries.
        for r in a[t:]:
            if t in r or j in r:
                x, y = r.pop(t, 0), r.pop(j, 0)
                if y:
                    r[t] = y
                if x:
                    r[j] = x
        col_log.append((t, j, 0))

    def row_addmul(i, j, q):
        # row i += q * row j
        if q:
            _addmul(a[i], q, a[j])
            row_log.append((i, j, q))

    def col_addmul(j, k, q, holders):
        # col j += q * col k; ``holders`` are the rows with a nonzero in column k.
        if q == 0:
            return
        for r in holders:
            x = r.get(j, 0) + q * r[k]
            if x:
                r[j] = x
            else:
                del r[j]
        col_log.append((j, k, q))

    def pivot(t):
        # Rows from t on hold entries only from column t on.  Row by row,
        # the minimal |entry|; a strictly smaller one replaces it, so
        # nothing after an entry of absolute value 1 can.  In the row found,
        # the pivot is the lowest column holding that minimum.
        best = None
        for i in range(t, rows):
            if a[i]:
                x = min(map(abs, a[i].values()))
                if best is None or x < best[0]:
                    best = (x, i)
                    if x == 1:
                        break
        if best is not None:
            x, i = best
            if i != t:
                row_swap(t, i)
            j = min(j for j, y in a[t].items() if abs(y) == x)
            if j != t:
                col_swap(t, j)
        return best

    t = 0
    limit = min(rows, cols)
    while t < limit and pivot(t) is not None:
        while True:
            p = a[t][t]
            dirty = False
            for i in range(t + 1, rows):
                x = a[i].get(t)
                if x:
                    row_addmul(i, t, -(x // p))
                    if t in a[i]:
                        dirty = True
            pivot_row = a[t]
            holders = [r for r in a[t:] if t in r]
            for j in [j for j in pivot_row if j != t]:
                col_addmul(j, t, -(pivot_row[j] // p), holders)
                if j in pivot_row:
                    dirty = True
            if dirty:
                # Some remainder survived; it is smaller than the pivot, so
                # re-picking the pivot strictly shrinks |pivot| and terminates.
                pivot(t)
                continue
            # Column and row at t are clear; force pivot | submatrix, which
            # a unit pivot divides already.
            if p in (1, -1):
                break
            offender = next((i for i in range(t + 1, rows) if any(x % p for x in a[i].values())), None)
            if offender is None:
                break
            row_addmul(t, offender, 1)
        t += 1

    diagonal = tuple(a[i].get(i, 0) for i in range(limit))
    negated = frozenset(i for i, d in enumerate(diagonal) if d < 0)
    return SnfDecomposition((rows, cols), tuple(map(abs, diagonal)), row_log, col_log, negated)


def _replay(log: Sequence[tuple[int, int, int]], n: int, starts: dict, inverse: bool) -> list[dict]:
    """The vectors x * e_s, for ``starts`` = {s: x}, with the operations of
    ``log`` applied last to first (Cohen, GTM 138, section 2.4.3), by
    position: entry p of the result is {s: entry p of the vector from s}.

    A log entry (i, j, q) is "line i += q * line j", or the swap of lines i
    and j when q == 0.  Transposed (a row of u, a column of v) the addition
    adds q * x_i to x_j; inverted (a column of u^-1) it subtracts q * x_j
    from x_i; a swap is its own transpose and inverse.
    """
    out = [{} for _ in range(n)]
    for s, x in starts.items():
        out[s][s] = x
    for i, j, q in reversed(log):
        if not q:
            out[i], out[j] = out[j], out[i]
        elif inverse:
            if out[j]:
                _addmul(out[i], -q, out[j])
        elif out[i]:
            _addmul(out[j], q, out[i])
    return out


def _addmul(target: dict, q: int, source: dict) -> None:
    """target += q * source on sparse rows, zeros dropped (q != 0)."""
    for k, y in source.items():
        x = target.get(k, 0) + q * y
        if x:
            target[k] = x
        else:
            del target[k]


def _dense(sparse_rows: Sequence[dict], width: int) -> tuple:
    out = []
    for r in sparse_rows:
        row = [0] * width
        for k, x in r.items():
            row[k] = x
        out.append(tuple(row))
    return tuple(out)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """g, x, y with x*a + y*b == g == gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


# -- lattice bases: one sparse Hermite core ----------------------------------


def column_hermite(m: IntMatrix) -> IntMatrix:
    """Canonical (Hermite) basis of the column lattice of ``m``, as columns."""
    basis = _echelon([dict(col) for col in m.nonzero_columns()], m.rows)
    return _matrix_of_columns(_hermite(basis, 0), m.rows)


def integer_kernel(m: IntMatrix) -> IntMatrix:
    """Lattice basis of {x : m @ x = 0}, columns in Hermite form.

    x lies in the kernel exactly when (m x, x), a vector of the lattice
    spanned by the columns of [m; I], vanishes on the first m.rows rows.
    Those vectors are spanned by the echelon columns pivoting below row
    m.rows, so these, cut to the last m.cols rows and reduced, are the
    kernel's Hermite basis: equal kernels compare equal entrywise.
    """
    columns = [dict(col) for col in m.nonzero_columns()]
    for j, g in enumerate(columns):
        g[m.rows + j] = 1
    echelon = _echelon(columns, m.rows + m.cols)
    basis = [{i - m.rows: x for i, x in col.items()} for col in echelon if min(col) >= m.rows]
    return _matrix_of_columns(_hermite(basis, 0), m.cols)


def congruence_kernel(columns: Sequence[Sequence[tuple[int, int]]], moduli: Sequence[int], pivots=None) -> IntMatrix:
    """Column Hermite basis of {x in Z^n : sum_j x_j c_j = 0 mod d_i in every row i}.

    ``columns`` holds c_1, ..., c_n, one sparse column per unknown as its
    ``(row, entry)`` pairs; C is their matrix, each row scaled to modulus
    E, the lcm of the d_i.  If B spans the lattice mod M (B = I for M = 1)
    and p is a prime with M p | E, then C B = 0 mod M, and B y lies in it
    mod M p exactly when (C B / M) y = 0 mod p.  ``_kernel_mod_p`` gives
    that kernel as a lower triangular K pivoting in every row, so B K,
    again lower triangular, spans the lattice mod M p (Dixon 1982).  A
    pivot reaching E becomes E * e_k, and C B mod E follows B through the
    same column operations.  Most kernels are mod 2, where a row is an int
    with a bit per unknown and one XOR adds two.  For composite E one
    ``_hermite`` pass mod E ends it; for prime E the one step's basis is
    already reduced.  The one Hermite basis is returned as sparse columns.
    ``pivots``, for a prime E, is that step's ``_kernel_mod_p`` if known,
    and then no row is built.
    """
    for d in moduli:
        if d < 1:
            raise ValueError(f"congruence modulus must be positive, got {d}")
    exponent, top, n = math.lcm(*moduli), len(moduli), len(columns)
    rows = [{} for _ in moduli]
    for j, col in enumerate(columns if pivots is None else ()):
        for i, x in col:
            if not 0 <= i < top:
                raise ValueError(f"congruence row {i} outside the {top} moduli")
            rows[i][j] = rows[i].get(j, 0) + x * (exponent // moduli[i])
    basis = [{k: 1} for k in range(n)]
    images = [{} for _ in range(n)]
    system, level, rest, p = rows, 1, exponent, 1
    while rest > 1:
        p = next(p for p in range(2, rest + 1) if rest % p == 0)
        if level == 1 and p < rest:
            for i, r in enumerate(rows):
                for j, x in r.items():
                    images[j][i] = x % exponent
        # In place: a pivot's column is read before it is replaced.  Row b
        # says x_b = -sum x * x_f over free unknowns f < b, so the e_f - sum
        # x e_b and the p e_b are a lower triangular basis of its kernel.
        for b, row in (_kernel_mod_p(system, p) if pivots is None else pivots).items():
            column, image = basis[b], images[b]
            if p == 2:
                row = {f: 1 for f, c in enumerate(reversed(bin(row))) if c == "1"}
            for f, x in row.items():
                if f != b:
                    _axpy(basis[f], p - x, column, exponent)
                    _axpy(images[f], p - x, image, exponent)
            if p * column[b] == exponent:
                basis[b], images[b] = {b: exponent}, {}
            else:
                basis[b], images[b] = _scaled(column, p, exponent), _scaled(image, p, exponent)
        level, rest = level * p, rest // p
        system = {}
        for k, image in enumerate(images):
            for i, x in image.items():
                system.setdefault(i, {})[k] = x // level
        system = system.values()
    if level == p:
        # One step (E prime, or E = 1) is already in Hermite form: the free
        # column e_f - sum x e_b has entries in [0, p) at its pivot rows
        # b > f and none at other free rows, and a pivot column is p e_b.
        return _matrix_of_columns(basis, n)
    return _matrix_of_columns(_hermite(basis, exponent), n)


def _kernel_mod_p(rows: Iterable[dict], p: int) -> dict:
    """The reduced row echelon form of ``rows`` mod the prime p, as
    {pivot unknown b: row}, each row monic at its largest unknown b and
    zero at every other pivot; its length is the rank mod p.  Shortest row
    first, a row is cleared at the pivots so far, pivots at its largest
    unknown, and is cleared from the other pivot rows (LaMacchia and
    Odlyzko 1990); over F_2 the rows go to ``_kernel_mod_2`` as ints.
    """
    if p == 2:
        return _kernel_mod_2(sum(1 << k for k, x in r.items() if x & 1) for r in rows)
    pivots = {}
    for r in sorted(({k: x % p for k, x in r.items() if x % p} for r in rows), key=len):
        for u in [u for u in r if u in pivots]:
            _axpy(r, -r[u], pivots[u], p)
        if r:
            b = max(r)
            r = _scaled(r, pow(r[b], -1, p), p)
            for s in pivots.values():
                if b in s:
                    _axpy(s, -s[b], r, p)
            pivots[b] = r
    return pivots


def _kernel_mod_2(rows: Iterable[int]) -> dict:
    """``_kernel_mod_p`` over F_2, each row an int with a bit per unknown,
    added by XOR; the pivot rows are ints too."""
    pivots, mask = {}, 0
    for r in sorted(rows, key=int.bit_count):
        while r & mask:
            r ^= pivots[(r & mask).bit_length() - 1]
        if r:
            b = r.bit_length() - 1
            for u, s in pivots.items():
                if s >> b & 1:
                    pivots[u] = s ^ r
            pivots[b], mask = r, mask | 1 << b
    return pivots


def _echelon(generators: list[dict], m: int) -> list[dict]:
    """Lower echelon basis over Z of the lattice spanned by ``generators``,
    sparse columns of height m: positive pivots (first nonzero entries) in
    strictly increasing rows.  Row i folds the columns whose first nonzero
    entry is in row i into one by gcd steps."""
    pending = [[] for _ in range(m)]
    for g in generators:
        g = _scaled(g, 1, 0)
        if g:
            pending[min(g)].append(g)
    basis = []
    for i in range(m):
        hits = pending[i]
        if not hits:
            continue
        w = hits[0]
        for x in hits[1:]:
            a, b = w[i], x[i]
            if b % a == 0:
                _axpy(x, -(b // a), w, 0)
            else:
                g, s, t = _xgcd(a, b)
                w, x, y = _scaled(w, s, 0), _scaled(w, -(b // g), 0), x
                _axpy(w, t, y, 0)
                _axpy(x, a // g, y, 0)
            if x:
                pending[min(x)].append(x)
        if w[i] < 0:
            w = _scaled(w, -1, 0)
        basis.append(w)
    return basis


def _hermite(basis: list[dict], e: int) -> list[dict]:
    """Reduce, in place, each entry left of a pivot of the lower echelon
    ``basis`` into [0, pivot), top pivot first, mod e if e > 0.
    A pivot's column is zero above it, so a reduction at one pivot leaves
    the entries at the pivots above it as they are."""
    for i, bi in enumerate(basis):
        p = min(bi)
        d = bi[p]
        for bj in basis[:i]:
            q = bj.get(p, 0) // d
            if q:
                _axpy(bj, -q, bi, e)
    return basis


def _matrix_of_columns(columns: list[dict], rows: int) -> IntMatrix:
    return _SparseMatrix(rows, len(columns), tuple(tuple(sorted(col.items())) for col in columns), True)


def _axpy(target: dict, f: int, source: dict, e: int) -> None:
    """target += f * source, entries mod e (over Z for e = 0), zeros dropped."""
    for i, y in source.items():
        z = target.get(i, 0) + f * y
        if e:
            z %= e
        if z:
            target[i] = z
        else:
            target.pop(i, None)


def _scaled(a: dict, s: int, e: int) -> dict:
    """s * a, entries mod e (over Z for e = 0), zeros dropped."""
    if e:
        return {i: s * x % e for i, x in a.items() if s * x % e}
    return {i: s * x for i, x in a.items() if s * x}
