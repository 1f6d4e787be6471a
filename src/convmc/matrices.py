"""Exact linear algebra over Fraction: one sparse echelon kernel, and
dense row reduction kept as the tests' reference.

Echelon holds an echelon basis of sparse vectors, dicts {key: Fraction},
offered one at a time: it accepts the ones independent of those before
them and gives coordinates in the accepted ones.  FreeLie keeps one per
degree.  column_split runs one over a list of columns; chain complexes
(contractions and Betti numbers) and the gauge decision (through Coset
and Span, which factor a list of vectors once for many right-hand
sides) run on it.

A normal form is defined by the leading columns of a span, the columns
independent of the columns before them, which column_split finds
whatever pivot Echelon picks inside.  So every result here is fixed by
linear algebra alone and equals the dense reduced-row-echelon answer.

Nothing in the package calls the dense functions (rref, rank, nullspace,
solve, solve_matrix, in_span), which work on lists of rows; the tests
use them as the reference.  No floating point enters anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

ZERO = Fraction(0)
ONE = Fraction(1)

Matrix = list  # list[list[Fraction]]
Vector = list  # list[Fraction]


def shape(a: Matrix) -> tuple[int, int]:
    return (len(a), len(a[0]) if a else 0)


def rref(a: Matrix) -> tuple[Matrix, list[tuple[int, int]]]:
    """Reduced row echelon form.

    Returns (R, pivots) where pivots is the list of (row, column) positions
    in the order found.  Pivot rule: leftmost nonzero column first, and
    within a column the smallest untouched row index.
    """
    r = [row[:] for row in a]
    m, n = shape(r)
    pivots: list[tuple[int, int]] = []
    prow = 0
    for col in range(n):
        sel = None
        for row in range(prow, m):
            if r[row][col] != 0:
                sel = row
                break
        if sel is None:
            continue
        if sel != prow:
            r[sel], r[prow] = r[prow], r[sel]
        inv = ONE / r[prow][col]
        if inv != 1:
            r[prow] = [x * inv for x in r[prow]]
        for row in range(m):
            if row != prow and r[row][col]:
                c = r[row][col]
                r[row] = [x - c * y for x, y in zip(r[row], r[prow])]
        pivots.append((prow, col))
        prow += 1
        if prow == m:
            break
    return r, pivots


def rank(a: Matrix) -> int:
    return len(rref(a)[1])


def nullspace(a: Matrix) -> list[Vector]:
    """Deterministic kernel basis: one vector per free column, in increasing
    column order, with a 1 at the free column."""
    r, pivots = rref(a)
    _, n = shape(a)
    pivot_cols = [c for _, c in pivots]
    pivot_of_col = {c: row for row, c in pivots}
    free = [c for c in range(n) if c not in pivot_of_col]
    basis = []
    for fc in free:
        v = [ZERO] * n
        v[fc] = ONE
        for c in pivot_cols:
            v[c] = -r[pivot_of_col[c]][fc]
        basis.append(v)
    return basis


def solve(a: Matrix, b: Vector) -> Vector | None:
    """One exact solution of a x = b, or None.  Free variables are set to 0,
    so the solution is the canonical one for the fixed pivot rule."""
    m, n = shape(a)
    if len(b) != m:
        raise ValueError("rhs length mismatch")
    aug = [a[i][:] + [b[i]] for i in range(m)]
    r, pivots = rref(aug)
    for row, col in pivots:
        if col == n:
            return None  # pivot in the augmented column: inconsistent
    x = [ZERO] * n
    for row, col in pivots:
        x[col] = r[row][n]
    return x


def solve_matrix(a: Matrix, b: Matrix) -> Matrix | None:
    """Solve a X = b columnwise; None if any column is inconsistent."""
    m, n = shape(a)
    mb, k = shape(b)
    if mb != m:
        raise ValueError("shape mismatch in solve_matrix")
    cols = []
    for j in range(k):
        x = solve(a, [b[i][j] for i in range(m)])
        if x is None:
            return None
        cols.append(x)
    return [[cols[j][i] for j in range(k)] for i in range(n)]


def in_span(vectors: Sequence[Vector], v: Vector) -> Vector | None:
    """Coordinates of v in the given spanning vectors (columns), or None."""
    if not vectors:
        return [] if all(x == 0 for x in v) else None
    n = len(v)
    a = [[vec[i] for vec in vectors] for i in range(n)]
    return solve(a, list(v))


def add_term(out: dict, key, c) -> None:
    """out[key] += c, dropping the key when the sum is zero."""
    nc = out.get(key, ZERO) + c
    if nc:
        out[key] = nc
    else:
        out.pop(key, None)


class Echelon:
    """Echelon basis of the span of the sparse vectors accepted so far.

    Row j is accepted vector j reduced against rows 0..j-1 and scaled to 1
    at its pivot, so it vanishes at every earlier pivot, and it carries
    its combination of the accepted vectors.  One forward pass over the
    rows therefore reduces a vector and yields its coordinates.
    """

    def __init__(self):
        self._rows: list[tuple] = []   # (pivot, row, combination)

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _reduce(self, v: dict) -> tuple[dict, dict]:
        """(residual, comb) with v = residual + sum comb[j] accepted_j."""
        res = {k: x for k, x in v.items() if x}
        comb: dict = {}
        for pivot, row, rc in self._rows:
            c = res.get(pivot)
            if c:
                for k, x in row.items():
                    add_term(res, k, -c * x)
                for j, x in rc.items():
                    add_term(comb, j, c * x)
        return res, comb

    def add(self, v: dict) -> bool:
        """Accept v if it grows the span; return whether it did."""
        res, comb = self._reduce(v)
        if not res:
            return False
        pivot = next(iter(res))
        inv = ONE / res[pivot]
        combination = {j: -inv * x for j, x in comb.items()}
        combination[self.rank] = inv
        self._rows.append((pivot, {k: inv * x for k, x in res.items()},
                           combination))
        return True

    def coords(self, v: dict) -> list | None:
        """Coordinates of v in the accepted vectors, or None when v is
        outside their span."""
        res, comb = self._reduce(v)
        if res:
            return None
        return [comb.get(j, ZERO) for j in range(self.rank)]


def column_split(columns: Sequence[dict], labels: Sequence
                 ) -> tuple[list[int], list[dict]]:
    """The pivot positions, the columns independent of the columns before
    them, and the kernel basis: for every other column j in order,
    e_j - sum_t c_t e_{pivot_t} keyed by labels, with c the coordinates
    of column j in the pivot columns before it.  These are the rref pivot
    columns and nullspace of the dense matrix, by one echelon pass."""
    ech = Echelon()
    pivots: list[int] = []
    kernel: list[dict] = []
    for j, col in enumerate(columns):
        if ech.add(col):
            pivots.append(j)
            continue
        z = {labels[p]: -c for p, c in zip(pivots, ech.coords(col)) if c}
        z[labels[j]] = ONE
        kernel.append(z)
    return pivots, kernel


class Coset:
    """The cosets of span(directions) read at keys, factored once:
    reduce(v) is the canonical representative of v + span(directions),
    the unique coset member that vanishes at the leading keys of the
    span.  At every other key it is v paired with that key's kernel
    vector from column_split, v_j - sum_t c_jt v_{pivot_t}, which is what
    reducing by the rref rows of the directions leaves."""

    def __init__(self, directions: Sequence[dict], keys: Sequence):
        columns = [{i: d[k] for i, d in enumerate(directions) if d.get(k)}
                   for k in keys]
        pivots, kernel = column_split(columns, keys)
        free = [k for j, k in enumerate(keys) if j not in pivots]
        self._kernel = list(zip(free, kernel))

    def reduce(self, v: dict) -> dict:
        out: dict = {}
        for key, z in self._kernel:
            c = sum((x * v[k] for k, x in z.items() if k in v), ZERO)
            if c:
                out[key] = c
        return out


class Span:
    """The span of a fixed list of vectors, factored once: coords(v) is
    the coordinates of v in the vectors, 0 on each vector that depends on
    those before it (the solution with free variables 0), or None when v
    is outside their span."""

    def __init__(self, vectors: Sequence[dict]):
        self._echelon = Echelon()
        self._accepted = [self._echelon.add(u) for u in vectors]

    def coords(self, v: dict) -> list | None:
        coords = self._echelon.coords(v)
        if coords is None:
            return None
        rest = iter(coords)
        return [next(rest) if a else ZERO for a in self._accepted]
