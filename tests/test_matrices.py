from __future__ import annotations

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from convmc import matrices as mx

F = Fraction


def identity(n):
    return [[F(int(i == j)) for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), F(0))
             for col in zip(*b)] for row in a]


def mat_vec(a, v):
    return [sum((x * y for x, y in zip(row, v)), F(0)) for row in a]


def test_rref_pivot_rule_is_leftmost_then_first_row():
    a = [[F(0), F(2), F(4)],
         [F(0), F(1), F(3)],
         [F(0), F(0), F(5)]]
    r, pivots = mx.rref(a)
    assert pivots == [(0, 1), (1, 2)]
    assert r == [[F(0), F(1), F(0)],
                 [F(0), F(0), F(1)],
                 [F(0), F(0), F(0)]]


def test_rref_known_matrix():
    a = [[F(1), F(2), F(3)],
         [F(2), F(4), F(7)]]
    r, pivots = mx.rref(a)
    assert [c for _, c in pivots] == [0, 2]
    assert r == [[F(1), F(2), F(0)], [F(0), F(0), F(1)]]


def test_nullspace_unit_at_free_column():
    a = [[F(1), F(2), F(3)],
         [F(2), F(4), F(7)]]
    ns = mx.nullspace(a)
    assert ns == [[F(-2), F(1), F(0)]]
    assert mat_vec(a, ns[0]) == [F(0), F(0)]


def test_solve_canonical_particular_solution():
    a = [[F(1), F(1), F(0)]]
    x = mx.solve(a, [F(5)])
    # free variables are zeroed, pivot column carries the value
    assert x == [F(5), F(0), F(0)]


def test_solve_inconsistent_returns_none():
    a = [[F(1), F(0)], [F(1), F(0)]]
    assert mx.solve(a, [F(1), F(2)]) is None


def test_solve_matrix_inverse():
    a = [[F(2), F(1)], [F(1), F(1)]]
    inv = mx.solve_matrix(a, identity(2))
    assert mat_mul(a, inv) == identity(2)


def test_coset_reduce_idempotent_and_in_coset():
    keys = [0, 1, 2]
    v = _sparse([F(3), F(5), F(7)])
    dirs = [[F(1), F(1), F(0)], [F(0), F(2), F(2)]]
    coset = mx.Coset([_sparse(d) for d in dirs], keys)
    red = coset.reduce(v)
    assert coset.reduce(red) == red
    # difference lies in the span
    diff = [v.get(k, F(0)) - red.get(k, F(0)) for k in keys]
    assert mx.in_span(dirs, diff) is not None
    # pivot coordinates are cleared
    _, pivots = mx.rref([list(d) for d in dirs])
    for _, c in pivots:
        assert keys[c] not in red


small_fraction = st.fractions(
    min_value=-4, max_value=4, max_denominator=3)


@st.composite
def matrix_and_vector(draw):
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4))
    a = [[draw(small_fraction) for _ in range(n)] for _ in range(m)]
    x = [draw(small_fraction) for _ in range(n)]
    return a, x


@given(matrix_and_vector())
@settings(max_examples=60, deadline=None)
def test_solve_recovers_consistent_systems(data):
    a, x = data
    b = mat_vec(a, x)
    sol = mx.solve(a, b)
    assert sol is not None
    assert mat_vec(a, sol) == b


@given(matrix_and_vector())
@settings(max_examples=60, deadline=None)
def test_nullspace_vectors_are_killed(data):
    a, _ = data
    m, n = mx.shape(a)
    ns = mx.nullspace(a)
    assert len(ns) == n - mx.rank(a)
    for v in ns:
        assert mat_vec(a, v) == [F(0)] * m


@given(matrix_and_vector())
@settings(max_examples=40, deadline=None)
def test_rref_involution(data):
    a, _ = data
    r, _ = mx.rref(a)
    r2, _ = mx.rref(r)
    assert r == r2


def test_rank_of_rank_one_product():
    u = [[F(1)], [F(2)], [F(3)]]
    v = [[F(4), F(5)]]
    assert mx.rank(mat_mul(u, v)) == 1


def _sparse(v):
    return {i: x for i, x in enumerate(v) if x}


@st.composite
def vectors_and_coefficients(draw):
    n = draw(st.integers(1, 4))
    k = draw(st.integers(0, 5))
    vectors = [[draw(small_fraction) for _ in range(n)] for _ in range(k)]
    coefficients = [draw(small_fraction) for _ in range(k)]
    return vectors, coefficients


@given(vectors_and_coefficients())
@settings(max_examples=60, deadline=None)
def test_echelon_agrees_with_dense_rank_and_in_span(data):
    vectors, coefficients = data
    n = len(vectors[0]) if vectors else 0
    ech = mx.Echelon()
    accepted = []
    for v in vectors:
        grows = mx.rank(accepted + [v]) > len(accepted)
        assert ech.add(_sparse(v)) is grows
        if grows:
            accepted.append(v)
    assert ech.rank == len(accepted)
    # in the span: every vector offered and a combination of them
    combination = [sum((c * v[i] for c, v in zip(coefficients, vectors)),
                       F(0)) for i in range(n)]
    for v in vectors + [combination]:
        got = ech.coords(_sparse(v))
        assert got is not None and got == mx.in_span(accepted, v)
    # outside the span: the unit vectors the span misses
    units = [[F(int(i == j)) for i in range(n)] for j in range(n)]
    missed = [u for u in units if mx.in_span(accepted, u) is None]
    assert len(missed) >= n - len(accepted)
    for u in missed:
        assert ech.coords(_sparse(u)) is None


def test_echelon_empty_and_zero_vectors():
    ech = mx.Echelon()
    assert ech.rank == 0
    assert ech.coords({}) == []
    assert ech.coords({0: F(1)}) is None
    # a zero vector, with or without explicit zero entries, never grows it
    assert ech.add({}) is False
    assert ech.add({0: F(0), 1: F(0)}) is False
    assert ech.add({1: F(2)}) is True
    assert ech.coords({0: F(0)}) == [F(0)]
    assert ech.coords({1: F(3)}) == [F(3, 2)]
    assert ech.add({1: F(-1)}) is False
    assert ech.rank == 1


def _reference_rref(rows):
    """The nonzero rows of the reduced row echelon form and their pivot
    columns, leftmost nonzero column first."""
    r = [list(row) for row in rows]
    pivots = []
    for col in range(len(r[0]) if r else 0):
        top = len(pivots)
        sel = next((i for i in range(top, len(r)) if r[i][col]), None)
        if sel is None:
            continue
        r[top], r[sel] = r[sel], r[top]
        r[top] = [x / r[top][col] for x in r[top]]
        for i in range(len(r)):
            if i != top and r[i][col]:
                c = r[i][col]
                r[i] = [x - c * y for x, y in zip(r[i], r[top])]
        pivots.append(col)
    return r[:len(pivots)], pivots


def _reference_coset_reduce(v, rows):
    """v minus multiples of the rref rows of rows, zero at every pivot."""
    out = list(v)
    for row, col in zip(*_reference_rref(rows)):
        c = out[col]
        out = [x - c * y for x, y in zip(out, row)]
    return out


def _reference_coords(vectors, v):
    """The solution of sum x_i vectors_i = v with every free x_i = 0, or
    None when there is none."""
    k = len(vectors)
    aug = [[u[i] for u in vectors] + [v[i]] for i in range(len(v))]
    rows, pivots = _reference_rref(aug)
    if k in pivots:
        return None
    x = [F(0)] * k
    for row, col in zip(rows, pivots):
        x[col] = row[k]
    return x


@st.composite
def cosets(draw):
    """Keys in a drawn order, directions that may be zero or depend on
    those before them, and a vector; the sparse vectors list their keys
    in a drawn order too."""
    n = draw(st.integers(0, 4))
    keys = draw(st.permutations([f"k{i}" for i in range(n)]))
    # zeros often: the leftmost pivot and an echelon's first-key pivot
    # part only where a reduction empties a key and fills a later one
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, -3]).map(F)
    dirs = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["free", "zero", "dependent"]))
        if kind == "zero" or (kind == "dependent" and not dirs):
            dirs.append([F(0)] * n)
        elif kind == "dependent":
            cs = [draw(entry) for _ in dirs]
            dirs.append([sum((c * d[i] for c, d in zip(cs, dirs)), F(0))
                         for i in range(n)])
        else:
            dirs.append([draw(entry) for _ in range(n)])
    v = [draw(entry) for _ in range(n)]

    def sparse(dense):
        order = draw(st.permutations(range(n)))
        return {keys[i]: dense[i] for i in order if dense[i]}

    return keys, dirs, v, [sparse(d) for d in dirs], sparse(v)


# reducing the second direction by the first empties k0 and leaves k2
# ahead of k1: an echelon pivots on k2, the leftmost rule on k1
LEADING_KEY_CASE = (["k0", "k1", "k2"],
                    [[F(1), F(1), F(0)], [F(1), F(0), F(1)]],
                    [F(0), F(0), F(1)],
                    [{"k0": F(1), "k1": F(1)}, {"k0": F(1), "k2": F(1)}],
                    {"k2": F(1)})


@given(cosets())
@example(LEADING_KEY_CASE)
@settings(max_examples=200, deadline=None)
def test_coset_reduce_and_coords_match_dense_reference(data):
    keys, dirs, v, sparse_dirs, sparse_v = data

    def dense(u):
        return [u.get(k, F(0)) for k in keys]

    coset = mx.Coset(sparse_dirs, keys)
    red = coset.reduce(sparse_v)
    assert dense(red) == _reference_coset_reduce(v, dirs)
    assert set(red) <= set(keys) and all(red.values())
    # the factored coset reduces a second vector like a fresh one
    assert coset.reduce(red) == red
    # a coordinate outside keys is not read
    assert mx.Coset(sparse_dirs + [{"out": F(1)}], keys).reduce(
        {**sparse_v, "out": F(1)}) == red
    diff = [x - y for x, y in zip(v, dense(red))]
    span = mx.Span(sparse_dirs)
    coords = span.coords(_sparse_keys(keys, diff))
    assert coords is not None and coords == _reference_coords(dirs, diff)
    # one factored span answers every right-hand side
    assert span.coords(sparse_v) == _reference_coords(dirs, v)


def _sparse_keys(keys, v):
    return {k: x for k, x in zip(keys, v) if x}
