"""Exact scalars, and exact linear algebra over them: one sparse echelon
kernel, and dense row reduction kept as the tests' reference.

An exact scalar is a rational number held as an int when it is integral
and as a Fraction otherwise.  scalar(c) brings any exact rational to that
form and refuses a float with TypeError, and inverse(c) is the one
division in the package.  Koszul signs, coproduct coefficients and free
Lie structure constants are integers, so most arithmetic stays on ints;
add_term turns a sum that comes out integral back into an int.

Echelon holds an echelon basis of sparse vectors, dicts {key: scalar},
offered one at a time: it accepts the ones independent of those before
them and gives coordinates in the accepted ones.  It is fraction-free
(Bareiss, Math. Comp. 22, 1968): its rows are primitive integer vectors,
a combination is built only for an accepted vector or in coords, and
coords divides once.  FreeLie keeps one per letter content.
column_split runs one over a list of columns; chain complexes
(contractions and Betti numbers) and the gauge decision (through Coset
and Span, which factor a list of vectors once for many right-hand
sides) run on it.

A normal form is defined by the leading columns of a span, the columns
independent of the columns before them, which column_split finds
whatever pivot Echelon picks inside.  So every result here is fixed by
linear algebra alone and equals the dense reduced-row-echelon answer.

Nothing in the package calls the dense functions (rref, rank, nullspace,
solve, solve_matrix, in_span), which work on lists of rows; the tests
use them as the reference.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

ZERO = 0
ONE = 1

Matrix = list  # list[list[scalar]]
Vector = list  # list[scalar]


def scalar(c):
    """c as an exact scalar: an int when it is integral, else a Fraction.
    An int comes back unchanged; a float is refused."""
    if type(c) is int:
        return c
    if isinstance(c, float):
        raise TypeError(f"a float is not an exact scalar: {c!r}")
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def inverse(c):
    """1/c as an exact scalar; ZeroDivisionError when c is 0.  The one
    division in the package."""
    c = scalar(c)
    if c == 1 or c == -1:
        return c
    return scalar(Fraction(1) / c)


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
        inv = inverse(r[prow][col])
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
    """out[key] += c, dropping the key when the sum is zero and keeping
    it an int when the sum is integral."""
    nc = out.get(key, ZERO) + c
    if nc:
        out[key] = nc if nc.denominator != 1 else nc.numerator
    else:
        out.pop(key, None)


class Echelon:
    """Echelon basis of the span of the sparse vectors accepted so far.

    An offered vector v is cleared to the integer vector L v, L the least
    common denominator of its entries.  Row j is accepted vector j so
    cleared, reduced against rows 0..j-1 and divided by its content: a
    primitive integer vector, positive at its pivot and zero at every
    earlier pivot.  It carries an integer combination of the accepted
    vectors over an integer denominator: d_j row_j = sum_i C_j[i] v_i.
    Reducing res by row j, of pivot value a where res holds c, takes
    m res - k row_j with m = a/g, k = c/g and g = gcd(a, c), and records
    (j, m, k); one forward pass over the rows reduces a vector, with no
    division.  The combination is built from the steps only when a vector
    is accepted or its coordinates are asked, and coords divides once.
    """

    def __init__(self):
        self._rows: list[tuple] = []   # (pivot, value, row, d, C)

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _reduce(self, v: dict) -> tuple[dict, int, list]:
        """(res, L, steps): L v reduced against every row, and the steps
        (j, m, k) that reduced it."""
        clear = 1
        for x in v.values():
            clear *= x.denominator // gcd(clear, x.denominator)
        res = {k: x.numerator * (clear // x.denominator)
               for k, x in v.items() if x}
        steps = []
        for j, (pivot, a, row, _, _) in enumerate(self._rows):
            c = res.get(pivot)
            if c:
                g = gcd(a, c)
                m, k = a // g, c // g
                if m != 1:
                    res = {key: m * x for key, x in res.items()}
                for key, x in row.items():
                    y = res.get(key, 0) - k * x
                    if y:
                        res[key] = y
                    else:
                        del res[key]
                steps.append((j, m, k))
        return res, clear, steps

    def _combination(self, steps: list) -> tuple[int, int, dict]:
        """(S, E, X) with S L v = E res + sum_i X_i v_i, for the res that
        steps leave of L v: each step multiplies through by m d_j/g with
        g = gcd(d_j, E k), which keeps every term integral."""
        scale, extra, comb = 1, 1, {}
        for j, m, k in steps:
            d, cj = self._rows[j][3:]
            g = gcd(d, extra * k)
            t, f = extra * k // g, d // g
            if m * f != 1:
                comb = {i: m * f * x for i, x in comb.items()}
                scale, extra = scale * m * f, extra * f
            for i, x in cj.items():
                comb[i] = comb.get(i, 0) + t * x
        return scale, extra, comb

    def add(self, v: dict) -> bool:
        """Accept v if it grows the span; return whether it did.  A
        rejected v builds no combination."""
        res, clear, steps = self._reduce(v)
        if not res:
            return False
        pivot = next(iter(res))
        g = gcd(*res.values()) * (1 if res[pivot] > 0 else -1)
        scale, extra, comb = self._combination(steps)
        comb = {i: -x for i, x in comb.items() if x}
        comb[self.rank] = scale * clear
        h = gcd(extra * g, *comb.values())
        self._rows.append((pivot, res[pivot] // g,
                           {k: x // g for k, x in res.items()}, extra * g // h,
                           {i: x // h for i, x in comb.items()}))
        return True

    def coords(self, v: dict) -> list | None:
        """Coordinates of v in the accepted vectors, or None when v is
        outside their span: X_i / (S L), by one inverse."""
        res, clear, steps = self._reduce(v)
        if res:
            return None
        scale, _, comb = self._combination(steps)
        inv = inverse(scale * clear)
        return [scalar(comb.get(j, ZERO) * inv) for j in range(self.rank)]


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
