"""Exact linear algebra over Fraction: one incremental sparse echelon
basis and dense row reduction.

Echelon is the kernel for sparse vectors, dicts {key: Fraction}, offered
one at a time: it accepts the ones independent of those before them and
gives coordinates in the accepted ones.  FreeLie keeps one per degree
for its basis scan and for express, and every chain-complex computation
runs on it through graded.column_split: contractions onto homology,
Betti numbers and the counit check of cobar(bar(L)).

The dense rref family (rref, rank, nullspace, solve, solve_matrix,
in_span, coset_reduce) works on lists of rows of Fraction and returns
fresh objects.  Its pivot rule is fixed: scan columns left to right, take
the first row with a nonzero entry.  The gauge normal forms depend on that
leftmost-pivot rule, which Echelon's first-key pivot does not reproduce,
and the tests use these functions as the reference for Echelon.  No
floating point enters anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

ZERO = Fraction(0)
ONE = Fraction(1)

Matrix = list  # list[list[Fraction]]
Vector = list  # list[Fraction]


def copy(a: Matrix) -> Matrix:
    return [row[:] for row in a]


def shape(a: Matrix) -> tuple[int, int]:
    return (len(a), len(a[0]) if a else 0)


def rref(a: Matrix) -> tuple[Matrix, list[tuple[int, int]]]:
    """Reduced row echelon form.

    Returns (R, pivots) where pivots is the list of (row, column) positions
    in the order found.  The pivot rule is the one fixed for the whole
    package: leftmost nonzero column first, and within a column the smallest
    untouched row index.
    """
    r = copy(a)
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


def coset_reduce(v: Vector, directions: Sequence[Vector]) -> Vector:
    """Canonical representative of v + span(directions).

    Row-reduce the directions and subtract multiples so that v becomes zero
    in every pivot coordinate.  Deterministic and idempotent; the output is
    the unique coset member supported away from the pivot columns.
    """
    if not directions:
        return list(v)
    r, pivots = rref([list(d) for d in directions])
    out = list(v)
    for row, col in pivots:
        c = out[col]
        if c:
            out = [x - c * y for x, y in zip(out, r[row])]
    return out


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
