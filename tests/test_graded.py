from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from convmc import matrices as mx
from convmc.barcobar import cobar
from convmc.graded import (
    ChainComplex, GradedMap, GradedSpace, TensorSpace,
    add_term, basis_vec, contraction_from_complex, fingerprint,
    tensor_terms, vec_add, vec_eq, vec_is_zero, vec_scale, vec_sub,
)
from convmc.library import builtin_model
from convmc.models import IntervalForms, TruncatedPolynomials
from convmc.transfer import homology_contraction

F = Fraction


def two_sphere_space():
    return GradedSpace({2: ["x"], 3: ["y"]}, name="pi(S2)")


def test_space_basics():
    sp = two_sphere_space()
    assert sp.degrees() == [2, 3]
    assert sp.dim(2) == 1 and sp.dim(3) == 1 and sp.dim(4) == 0
    assert sp.degree_of["y"] == 3
    assert "x" in sp and "z" not in sp


def test_vector_helpers():
    a = {"x": F(2)}
    b = {"x": F(-2), "y": F(1)}
    assert vec_add(a, b) == {"y": F(1)}
    assert vec_sub(a, a) == {}
    assert vec_scale(F(1, 2), a) == {"x": F(1)}
    assert vec_eq({"x": F(0), "y": F(1)}, {"y": F(1)})
    out = {"x": F(1)}
    add_term(out, "x", F(-1))
    assert out == {}
    add_term(out, "y", F(2))
    add_term(out, "y", F(1, 2))
    add_term(out, "z", F(0))
    assert out == {"y": F(5, 2)}


def test_tensor_terms_match_the_product_of_supports():
    u = {"a": F(2), "b": F(-1)}
    v = {"x": F(3), "z": F(0), "y": F(1, 2)}  # z is not in the support
    w = {"p": F(5)}
    for vecs, c in [([u, v, w], F(7)), ([v, u], F(1)), ([u], F(-1)),
                    ([], F(3)), ([u, {}, w], F(1)), ([{}], F(1))]:
        supports = [[(k, x) for k, x in vec.items() if x] for vec in vecs]
        want = []
        for combo in product(*supports):
            coeff = c
            for _, x in combo:
                coeff *= x
            want.append((tuple(k for k, _ in combo), coeff))
        assert tensor_terms(vecs, c) == want
    assert tensor_terms([u, v]) == tensor_terms([u, v], F(1))

    def factors():
        yield u
        yield {}
        raise AssertionError("a factor after an empty one was read")

    assert tensor_terms(factors()) == []


def test_map_degree_check():
    sp = two_sphere_space()
    f = GradedMap(sp, sp, 1)
    f.set_column("x", {"y": F(1)})
    with pytest.raises(ValueError):
        f.set_column("y", {"x": F(1)})


def test_compose():
    sp = GradedSpace({0: ["a", "b"], 1: ["c"]}, name="V")
    d = GradedMap(sp, sp, -1, {"c": {"a": F(1), "b": F(-1)}})
    assert d.compose(d).is_zero()


def test_d_squared_validation():
    sp = GradedSpace({0: ["a"], 1: ["b"], 2: ["c"]}, name="V")
    d = GradedMap(sp, sp, -1, {"c": {"b": F(1)}, "b": {"a": F(1)}})
    cx = ChainComplex(sp, d)
    with pytest.raises(ValueError):
        cx.validate()


def test_homology_of_two_step_complex():
    # basis e0, e1 in degrees 0 and 1 with d(e1) = e0: acyclic
    sp = GradedSpace({0: ["e0"], 1: ["e1"]}, name="V")
    d = GradedMap(sp, sp, -1, {"e1": {"e0": F(1)}})
    cx = ChainComplex(sp, d)
    cx.validate()
    assert contraction_from_complex(cx).small.space.total_dim() == 0


def test_homology_matrix_example():
    # two generators in each of degrees 0 and 1, d = [[0,0],[1,0]] acting
    # from degree 1 to degree 0: kills one class on each side, H = (1, 1)
    sp = GradedSpace({0: ["a0", "a1"], 1: ["b0", "b1"]}, name="V")
    d = GradedMap(sp, sp, -1, {"b0": {"a1": F(1)}})
    cx = ChainComplex(sp, d)
    cx.validate()
    k = contraction_from_complex(cx)
    H, rep = k.small.space, k.i
    assert [H.dim(0), H.dim(1)] == [1, 1]
    assert rep.apply(basis_vec("H0_0")) == {"a0": F(1)}
    assert rep.apply(basis_vec("H1_0")) == {"b1": F(1)}
    assert cx.betti() == {0: 1, 1: 1}


def test_contraction_identities_exact():
    sp = GradedSpace({0: ["a0", "a1"], 1: ["b0", "b1", "b2"], 2: ["c0"]},
                     name="V")
    d = GradedMap(sp, sp, -1, {
        "b0": {"a1": F(2)},
        "b1": {"a0": F(1), "a1": F(3)},
        "c0": {"b2": F(5)},
    })
    cx = ChainComplex(sp, d)
    cx.validate()
    con = contraction_from_complex(cx)
    con.validate()  # raises on any failed identity
    assert con.fingerprint
    # proj annihilates boundaries
    assert proj_kills_boundaries(cx, con)


def proj_kills_boundaries(cx, con):
    comp = con.p.compose(cx.d)
    return comp.is_zero()


def test_contraction_fingerprint_stable():
    sp = GradedSpace({0: ["a"], 1: ["b"]}, name="V")
    d = GradedMap(sp, sp, -1, {"b": {"a": F(1)}})
    f1 = contraction_from_complex(ChainComplex(sp, d)).fingerprint
    f2 = contraction_from_complex(ChainComplex(sp, d)).fingerprint
    assert f1 == f2
    sp2 = GradedSpace({0: ["a"], 1: ["bb"]}, name="V")
    d2 = GradedMap(sp2, sp2, -1, {"bb": {"a": F(1)}})
    f3 = contraction_from_complex(ChainComplex(sp2, d2)).fingerprint
    assert f3 != f1


# payloads shaped like contraction_from_complex's: basis names per degree
# and the pivot columns of each d_n
fingerprint_payloads = st.fixed_dictionaries({
    "space": st.dictionaries(
        st.integers(-3, 12).map(str),
        st.lists(st.text(max_size=6), max_size=4), max_size=4),
    "pivots": st.lists(st.tuples(st.integers(-3, 12),
                                 st.lists(st.integers(0, 9), max_size=4))
                       .map(list), max_size=4)})


@given(fingerprint_payloads)
@settings(max_examples=200, deadline=1000)
def test_fingerprint_is_hashlib_sha256(payload):
    text = json.dumps(payload, sort_keys=True)
    assert fingerprint(payload) == \
        hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("name, window, want", [
    ("s2", 3, "5afdae614c7df766"), ("s2vs3", 6, "72089c78b47a5f1c")])
def test_transfer_fingerprints_keep_their_bytes(name, window, want):
    # the contractions of `transfer s2 --window 3` and
    # `transfer s2vs3 --window 6`
    om = cobar(builtin_model(name), degree_max=window)
    assert homology_contraction(om.as_linfty()).fingerprint == want


# sparse vectors on a few keys; zero coefficients stay as explicit entries
sparse_vectors = st.dictionaries(
    st.sampled_from(["x", "y", ("x", "y"), 3]),
    st.fractions(min_value=-2, max_value=2, max_denominator=3)
    | st.just(F(0)), max_size=4)


@given(sparse_vectors, sparse_vectors)
def test_vec_eq_agrees_with_a_zero_difference(a, b):
    assert vec_eq(a, b) == vec_is_zero(vec_sub(a, b))
    # the same entries up to explicit zeros are always equal
    padded = {**{k: F(0) for k in b if k not in a}, **a}
    assert vec_eq(a, padded) and vec_eq(padded, a)


def test_tensor_space_reads_degrees_and_order_off_its_factors():
    v = two_sphere_space()
    t = TensorSpace(IntervalForms(1), v)
    assert t.degree_of[(("q", 0), "y")] == 2
    assert (("p", 1), "x") in t
    assert (("p", 2), "x") not in t and (("p", 0), "z") not in t
    # listed on request: by degree, then form key, then letter
    assert t.by_degree == {
        1: ((("q", 0), "x"), (("q", 1), "x")),
        2: ((("p", 0), "x"), (("p", 1), "x"), (("q", 0), "y"),
            (("q", 1), "y")),
        3: ((("p", 0), "y"), (("p", 1), "y"))}
    assert sorted(t.all_keys(), key=t.sort_key) == t.all_keys()
    assert t.total_dim() == 8


def test_tensor_space_over_polynomials_is_never_listed():
    t = TensorSpace(TruncatedPolynomials(3, 2), two_sphere_space())
    key = ((0, 2, 1), "y")
    assert key in t and t.degree_of[key] == 3
    assert t.sort_key(((1, 0, 0), "x")) > t.sort_key(((0, 1, 0), "x"))
    with pytest.raises(AttributeError):
        t.all_keys()


def _dense_block(columns, row_keys, col_keys):
    return [[columns.get(c, {}).get(r, F(0)) for c in col_keys]
            for r in row_keys]


def _dense_kernel(a, ncols):
    """nullspace(a); a block with no rows has every unit vector."""
    if not a:
        return [[F(int(i == j)) for i in range(ncols)] for j in range(ncols)]
    return mx.nullspace(a)


@st.composite
def chain_complexes(draw):
    """Chain complexes in degrees 0..3 with d^2 = 0: every column of d_n
    is a random combination of the dense kernel basis of d_{n-1}."""
    dims = draw(st.lists(st.integers(0, 4), min_size=4, max_size=4))
    keys = {n: [f"e{n}_{j}" for j in range(dim)] for n, dim in enumerate(dims)}
    entry = st.integers(-2, 2).map(F)
    cols = {}
    kernel = _dense_kernel([], dims[0])
    for n in range(1, 4):
        for key in keys[n]:
            comb = [draw(entry) for _ in kernel]
            col = [sum((c * z[i] for c, z in zip(comb, kernel)), F(0))
                   for i in range(dims[n - 1])]
            cols[key] = {keys[n - 1][i]: x for i, x in enumerate(col) if x}
        kernel = _dense_kernel(_dense_block(cols, keys[n - 1], keys[n]),
                               dims[n])
    sp = GradedSpace(keys, name="C")
    cx = ChainComplex(sp, GradedMap(sp, sp, -1, cols))
    cx.validate()
    return cx, keys


@given(chain_complexes())
@settings(max_examples=80, deadline=None)
def test_column_split_matches_dense_rref(data):
    """The echelon split reproduces the dense pivot columns and nullspace
    that fix the contraction's choices and fingerprint."""
    cx, keys = data
    rank = {}
    for n, cols in keys.items():
        a = _dense_block(cx.d.entries, keys.get(n - 1, []), cols)
        pivots, kernel = mx.column_split(
            [cx.d.entries.get(k, {}) for k in cols], cols)
        assert pivots == [c for _, c in mx.rref(a)[1]]
        want = [{cols[i]: x for i, x in enumerate(v) if x}
                for v in _dense_kernel(a, len(cols))]
        assert [list(z.items()) for z in kernel] == \
            [list(w.items()) for w in want]
        rank[n] = mx.rank(a)
    assert cx.betti() == {n: len(cols) - rank[n] - rank.get(n + 1, 0)
                          for n, cols in keys.items() if cols}
    con = contraction_from_complex(cx)
    con.validate()
    assert con.small.space.total_dim() == sum(cx.betti().values())


@given(chain_complexes())
@settings(max_examples=60, deadline=None)
def test_betti_ranks_are_the_column_split_pivot_counts(data):
    """betti reads the rank of each d_n off an Echelon, which builds no
    kernel vectors; those ranks are the pivot counts of column_split."""
    cx, keys = data
    rank = {n: len(mx.column_split([cx.d.entries.get(k, {}) for k in cols],
                                   cols)[0])
            for n, cols in keys.items()}
    want = {n: len(cols) - rank[n] - rank.get(n + 1, 0)
            for n, cols in keys.items() if cols}

    def split(*args):
        raise AssertionError("betti built kernel vectors")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mx, "column_split", split)
        assert cx.betti() == want
