"""Model containers and the bundled example models.

Expected values fixed here by hand:
  * the projective-plane coproduct is a single symmetric pair,
  * the shifted bracket of a free Lie model is (-1)^{shifted degree of
    the first argument} times the classical bracket,
  * interval forms: d(t^k) = k t^{k-1} dt, integral of t^k from 0 is
    t^{k+1}/(k+1),
  * extension of scalars: l2(1(x)x, t(x)x) = t(x)l2(x, x).
"""

from fractions import Fraction
from functools import partial

import pytest
from hypothesis import example, given, settings, strategies as st

from convmc import library as lib
from convmc import modelio
from convmc import words as wd
from convmc.convolution import ConvolutionAlgebra
from convmc.freelie import FreeLie, br, is_bracket
from convmc.gauge import _integrate
from convmc.graded import GradedMap, GradedSpace, exact_repr
from convmc.matrices import ONE, ZERO
from convmc.models import (CdgCoalgebra, IntervalForms, JacobiError,
                           LInfinityAlgebra, QuillenModel,
                           TruncatedPolynomials, extension_of_scalars)

F = Fraction


# ---------------------------------------------------------------------------
# models the tests use outside the CLI registry

def cp3_coalgebra() -> CdgCoalgebra:
    """Reduced homology of CP^3: divided-power coproduct, so the top class
    splits as c (x) a + a (x) c.  The only source here whose iterated
    coproduct reaches depth three."""
    sp = GradedSpace({2: ["a"], 4: ["b"], 6: ["c"]}, name="CP3")
    delta = {"b": {("a", "a"): F(1)},
             "c": {("a", "b"): F(1), ("b", "a"): F(1)}}
    return CdgCoalgebra(sp, GradedMap.zero(sp, sp, -1), delta, name="CP3")


def quillen_s2(deg_max: int = 4) -> QuillenModel:
    """Free Lie model of the 2-sphere: one generator in classical degree 1,
    zero differential."""
    letters = GradedSpace({1: ["a"]}, name="S2gen")
    fl = FreeLie(letters, deg_max=deg_max)
    return QuillenModel(fl, GradedMap.zero(fl.space, fl.space, -1),
                        name="quillen(S2)")


def hopf_tau(k=1) -> GradedMap:
    """The degree-0 map from the 3-sphere coalgebra to pi(S2) sending the
    fundamental class to k times the Whitehead square."""
    C = lib.sphere_coalgebra(3)
    return GradedMap(C.space, lib.pi_s2().space, 0, {"a": {"y": F(k)}},
                     name=f"tau{k}")


def evaluate(key, t) -> Fraction:
    """An interval form at t, dt going to zero."""
    kind, k = key
    if kind == "q":
        return ZERO
    return F(t) ** k if k else ONE


# ---------------------------------------------------------------------------
# coalgebras

def test_bundled_coalgebras_validate():
    for name in ("s2", "s3", "s4", "s2vs3", "cp2", "s2xs2"):
        lib.builtin_model(name).validate()


def test_cp3_coproduct_reaches_depth_three():
    C = cp3_coalgebra()
    C.validate()
    assert C.iterated_coproduct("c", 3) == {("a", "a", "a"): F(1)}
    assert C.iterated_coproduct("c", 4) == {}


def test_cp2_coproduct_values():
    C = lib.cp2_coalgebra()
    assert C.delta["b"] == {("a", "a"): F(1)}
    assert C.iterated_coproduct("b", 2) == {("a", "a"): F(1)}
    assert C.iterated_coproduct("b", 3) == {}
    assert C.is_one_reduced()


def test_s2xs2_coproduct_symmetric():
    C = lib.s2xs2_coalgebra()
    assert C.delta["t"] == {("a", "b"): F(1), ("b", "a"): F(1)}
    C.validate()


def test_cocommutativity_failure_detected():
    sp = GradedSpace({2: ["a", "b"], 4: ["t"]})
    delta = {"t": {("a", "b"): F(1), ("b", "a"): F(-1)}}
    C = CdgCoalgebra(sp, GradedMap.zero(sp, sp, -1), delta)
    with pytest.raises(ValueError, match="cocommutative"):
        C.validate()


def test_coassociativity_failure_detected():
    sp = GradedSpace({2: ["a", "b"], 4: ["t"], 6: ["u"]})
    delta = {"t": {("a", "a"): F(1)},
             "u": {("b", "t"): F(1), ("t", "b"): F(1)}}
    C = CdgCoalgebra(sp, GradedMap.zero(sp, sp, -1), delta)
    with pytest.raises(ValueError, match="coassociative"):
        C.validate()


def test_coproduct_degree_failure_detected():
    sp = GradedSpace({2: ["a"], 4: ["b"]})
    C = CdgCoalgebra(sp, GradedMap.zero(sp, sp, -1),
                     {"b": {("a", "b"): F(1)}})
    with pytest.raises(ValueError, match="degree"):
        C.validate()


def test_coderivation_failure_detected():
    sp = GradedSpace({2: ["a"], 4: ["t"], 5: ["w"]})
    d = GradedMap(sp, sp, -1, {"w": {"t": F(1)}})
    C = CdgCoalgebra(sp, d, {"t": {("a", "a"): F(1)}})
    with pytest.raises(ValueError, match="coderivation"):
        C.validate()


# ---------------------------------------------------------------------------
# L-infinity algebras

def test_pi_s2_validates():
    L = lib.pi_s2()
    L.validate()
    assert L.bracket(2, ("x", "x")) == {"y": F(1)}
    assert L.bracket(2, ("x", "y")) == {}
    assert L.arities == [1, 2]


def test_pi_s3_abelian():
    L = lib.pi_s3()
    L.validate()
    assert all(n == 1 for n in L.arities)
    assert L.bracket(1, ("z",)) == {}


def test_abelian_pair_differential():
    L = lib.abelian_pair_with_d()
    L.validate()
    assert L.bracket(1, ("v",)) == {"u": F(1)}
    assert all(b == 0 for b in L.as_chain_complex().betti().values())


def test_jacobi_failure_detected():
    sp = GradedSpace({2: ["x"], 3: ["y"], 4: ["z"]})
    L = LInfinityAlgebra(sp, {2: {("x", "x"): {"y": F(1)},
                                  ("x", "y"): {"z": F(1)}}})
    with pytest.raises(ValueError, match="Jacobi"):
        L.validate(3)


@st.composite
def bracket_tables(draw, low):
    """Up to five letters in degrees low..4 and a few random values of l_2,
    and sometimes of l_1 and of l_3, each in the degree |w| - 1: some
    tables satisfy every Jacobi identity and some do not."""
    degrees = draw(st.lists(st.integers(low, 4), min_size=1, max_size=5))
    by_deg: dict[int, list] = {}
    for i, d in enumerate(degrees):
        by_deg.setdefault(d, []).append(f"e{i}")
    sp = GradedSpace(by_deg, name="L")
    arities = [2, 3] if draw(st.booleans()) else [2]
    if draw(st.booleans()):
        arities.insert(0, 1)
    brackets: dict[int, dict] = {}
    for n in arities:
        words = [w for w in wd.canonical_words(sp, n)
                 if sp.basis(wd.word_degree(sp, w) - 1)]
        for _ in range(draw(st.integers(0, 4)) if words else 0):
            w = draw(st.sampled_from(words))
            k = draw(st.sampled_from(sp.basis(wd.word_degree(sp, w) - 1)))
            brackets.setdefault(n, {}).setdefault(w, {})[k] = F(
                draw(st.integers(-2, 2)))
    return LInfinityAlgebra(sp, brackets, arities=arities)


def first_jacobi_failure(L):
    """The Jacobi pass over every word validate() visits, without its
    degree cut: all words up to twice the top arity, lowest degree first,
    then shortest, then in canonical order."""
    arity = max(2 * n for n in L.arities)
    words = sorted((w for m in range(1, arity + 1)
                    for w in wd.canonical_words(L.space, m)),
                   key=lambda w: (wd.word_degree(L.space, w), len(w),
                                  [L.space.sort_key(x) for x in w]))
    for w in words:
        jac = L.jacobiator(w)
        if jac:
            return f"Jacobi fails on {w!r}: residue {exact_repr(jac)}"
    return None


def lowest_failure_below_degree_one():
    """l1(x) = y and l1(y) = z, with l2(u, z) = u for a letter u in degree
    -1: l1 does not square to zero on the word (x,) of degree 3, and the
    longer word (u, y) of degree 1 fails too, through l2(u, l1 y) = u.
    The lowest degree comes first, so validate() names (u, y)."""
    sp = GradedSpace({-1: ["u"], 1: ["z"], 2: ["y"], 3: ["x"]})
    return LInfinityAlgebra(sp, {1: {("x",): {"y": F(1)},
                                     ("y",): {"z": F(1)}},
                                 2: {("u", "z"): {"u": F(1)}}},
                            arities=[1, 2])


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([1, -1]).flatmap(bracket_tables))
# the residue l2(l2(x, x), x) lands in z, the top degree, from a word of
# degree deg_max + 2: the highest word the cut still visits
@example(LInfinityAlgebra(GradedSpace({2: ["x"], 3: ["y"], 4: ["z"]}),
                          {2: {("x", "x"): {"y": F(1)},
                               ("x", "y"): {"z": F(1)}}}))
@example(lowest_failure_below_degree_one())
def test_validate_fails_exactly_where_the_full_degree_pass_does(L):
    want = first_jacobi_failure(L)
    if want is None:
        L.validate()
    else:
        with pytest.raises(JacobiError) as exc:
            L.validate()
        assert str(exc.value) == want


def test_validate_reports_the_lowest_degree_failure_first():
    L = lowest_failure_below_degree_one()
    with pytest.raises(JacobiError) as exc:
        L.validate()
    assert str(exc.value) == ("Jacobi fails on ('u', 'y'): "
                              "residue {'u': Fraction(-1, 1)}")


def test_validate_refuses_an_arity_below_one():
    with pytest.raises(ValueError, match="arity_max must be at least 1"):
        lib.pi_s2().validate(0)


@settings(max_examples=150, deadline=None)
@given(bracket_tables(1))
@example(LInfinityAlgebra(GradedSpace({2: ["x"], 3: ["y"], 4: ["z"]}),
                          {2: {("x", "x"): {"y": F(1)},
                               ("x", "y"): {"z": F(1)}}}))
def test_jacobiator_is_the_letter_part_of_the_bar_differential_squared(L):
    """The bar differential d built by words.coderivation from the brackets
    squares, on each word, to the Jacobi sum in its one-letter part: both
    read the one coderivation sum of words."""
    W = wd.word_space(L.space, L.space.deg_max + 2, 2 * L.max_arity())
    d = wd.coderivation({n: partial(L.bracket, n) for n in L.arities},
                        W, L.space, -1)
    dd = d.compose(d)
    for w in W.all_keys():
        letters = {k[0]: c for k, c in dd.column(w).items() if len(k) == 1}
        assert letters == L.jacobiator(w), w


def test_bracket_word_must_be_sorted():
    sp = GradedSpace({2: ["x"], 3: ["y"]})
    with pytest.raises(ValueError, match="sorted"):
        LInfinityAlgebra(sp, {2: {("y", "x"): {"x": F(1)}}})


def test_bracket_on_vanishing_word_rejected():
    sp = GradedSpace({3: ["y"], 5: ["w"]})
    with pytest.raises(ValueError, match="vanishing"):
        LInfinityAlgebra(sp, {2: {("y", "y"): {"w": F(1)}}})


def test_bracket_sort_sign():
    # two odd letters: evaluating in the swapped order flips the sign
    sp = GradedSpace({3: ["p", "q"], 5: ["r"]})
    L = LInfinityAlgebra(sp, {2: {("p", "q"): {"r": F(1)}}})
    assert L.bracket(2, ("q", "p")) == {"r": F(-1)}


# ---------------------------------------------------------------------------
# free Lie models and the shift dictionary

def _cp2_model(deg_max=4):
    letters = GradedSpace({1: ["a"], 3: ["b"]}, name="gen")
    fl = FreeLie(letters, deg_max=deg_max)
    delta = fl.derivation({"b": {br("a", "a"): F(-1)}}, -1)
    return QuillenModel(fl, delta, name="cobarCP2")


def test_quillen_model_validates():
    M = _cp2_model()
    M.validate()
    assert M.delta.column("b") == {br("a", "a"): F(-1)}
    assert M.delta.column(br("a", "b")) == {}


def test_as_linfty_shift_dictionary():
    M = _cp2_model()
    L = M.as_linfty()
    # shifted degrees are classical plus one
    assert L.space.degree_of["a"] == 2
    assert L.space.degree_of["b"] == 4
    assert L.space.degree_of[br("a", "a")] == 3
    # l1 is the untouched differential
    assert L.bracket(1, ("b",)) == {br("a", "a"): F(-1)}
    # first argument has even shifted degree: plus sign
    assert L.bracket(2, ("a", "a")) == {br("a", "a"): F(1)}
    L.validate(3)
    # one presentation per model, with one bracket cache
    assert M.as_linfty() is L


def test_as_linfty_odd_first_argument_sign():
    # classically even generators have odd shifted degree; their classical
    # self-bracket vanishes, so use two letters
    letters = GradedSpace({2: ["c", "e"]}, name="gen")
    fl = FreeLie(letters, deg_max=4)
    M = QuillenModel(fl, GradedMap.zero(fl.space, fl.space, -1))
    L = M.as_linfty()
    assert L.space.degree_of["c"] == 3
    assert fl.dim(4) == 1
    # shifted first argument degree 3 is odd: minus sign
    assert L.bracket(2, ("c", "e")) == {br("c", "e"): F(-1)}
    # swapped odd arguments flip the sign, matching classical antisymmetry
    assert L.bracket(2, ("e", "c")) == {br("c", "e"): F(1)}
    L.validate(3)


def test_quillen_s2():
    M = quillen_s2()
    M.validate()
    L = M.as_linfty()
    assert L.space.degree_of["a"] == 2
    assert L.bracket(2, ("a", "a")) == {br("a", "a"): F(1)}


# ---------------------------------------------------------------------------
# interval forms

def test_interval_forms_product_and_d():
    om = IntervalForms(4)
    assert om.product(("p", 1), ("q", 1)) == (("q", 2), F(1))
    assert om.product(("q", 0), ("q", 3)) is None
    assert om.d(("p", 3)) == {("q", 2): F(3)}
    assert om.d(("p", 0)) == {}
    assert om.d(("q", 2)) == {}
    with pytest.raises(ValueError, match="bound"):
        om.product(("p", 3), ("p", 2))


def test_interval_forms_evaluate_and_integrate():
    om = IntervalForms(4)
    assert evaluate(("p", 0), F(0)) == 1
    assert evaluate(("p", 2), F(0)) == 0
    assert evaluate(("p", 2), F(1)) == 1
    assert evaluate(("q", 1), F(1)) == 0
    # the one integration rule: t^k integrates to t^(k+1)/(k+1)
    conv = ConvolutionAlgebra(lib.sphere_coalgebra(2), lib.pi_s2())
    ext = extension_of_scalars(conv.L, om)
    rate = GradedMap(conv.C.space, ext.space, 0,
                     {"a": {(("p", 2), "x"): F(1)}})
    assert _integrate(conv, ext, rate, 4).entries == \
        {"a": {(("p", 3), "x"): F(1, 3)}}
    with pytest.raises(ValueError, match="integration needs polynomial "
                                         "degree 3, bound is 2"):
        _integrate(conv, ext, rate, 2)


def test_truncated_polynomials_raise_above_their_bound():
    qc = TruncatedPolynomials(3, 3)
    assert qc.product((1, 0, 1), (0, 1, 0)) == ((1, 1, 1), F(1))
    assert qc.degree((2, 0, 1)) == 0 and qc.d((2, 0, 1)) == {}
    with pytest.raises(ValueError, match="polynomial degree 4 exceeds "
                                         "bound 3"):
        qc.product((1, 0, 1), (0, 2, 0))
    # the bound cuts products only: a key is any exponent tuple
    assert (0, 5, 0) in qc and (0, 1) not in qc and (0, -1, 0) not in qc


# ---------------------------------------------------------------------------
# extension of scalars

def test_extension_bracket_values():
    ext = extension_of_scalars(lib.pi_s2(), IntervalForms(3))
    one_x = (("p", 0), "x")
    t_x = (("p", 1), "x")
    assert ext.bracket(2, (one_x, t_x)) == {(("p", 1), "y"): F(1)}
    # the odd operation l2 passes the odd form dt: minus sign
    dt_x = (("q", 0), "x")
    assert ext.bracket(2, (dt_x, t_x)) == {(("q", 1), "y"): F(-1)}
    # two one-form factors die
    assert ext.bracket(2, (dt_x, (("q", 1), "x"))) == {}


def test_extension_jacobi_within_polynomial_window():
    # products of three forms of polynomial degree <= 2 need bound 6
    from itertools import combinations_with_replacement
    ext = extension_of_scalars(lib.pi_s2(), IntervalForms(6))
    keys = [k for k in ext.space.all_keys() if k[0][1] <= 2]
    keys.sort(key=ext.space.sort_key)
    degf = ext.space.degree_of
    for m in (2, 3):
        for word in combinations_with_replacement(keys, m):
            if any(a == b and degf[a] % 2
                   for a, b in zip(word, word[1:])):
                continue
            assert ext.jacobiator(word) == {}, word


def test_extension_l1_square_zero():
    ext = extension_of_scalars(lib.abelian_pair_with_d(), IntervalForms(2))
    ext.as_chain_complex().validate()
    # d(t (x) v) = dt (x) v + t (x) u
    t_v = (("p", 1), "v")
    assert ext.bracket(1, (t_v,)) == {(("q", 0), "v"): F(1),
                                      (("p", 1), "u"): F(1)}
    # d(dt (x) v) = -dt (x) u
    assert ext.bracket(1, ((("q", 0), "v"),)) == {(("q", 0), "u"): F(-1)}


def evaluation(ext, target, t) -> GradedMap:
    """Evaluation of the form part at t, from evaluate."""
    cols = {}
    for fk, let in ext.space.all_keys():
        c = evaluate(fk, t)
        if c:
            cols[(fk, let)] = {let: c}
    return GradedMap(ext.space, target.space, 0, cols, name=f"ev{t}")


def test_evaluation_maps_are_strict_morphisms():
    for target in (lib.pi_s2(), lib.abelian_pair_with_d()):
        ext = extension_of_scalars(target, IntervalForms(4))
        l1_ext = ext.l1()
        l1 = target.l1()
        keys = [k for k in ext.space.all_keys() if k[0][1] <= 2]
        for t in (F(0), F(1)):
            ev = evaluation(ext, target, t)
            assert ev.compose(l1_ext).equals(l1.compose(ev))
            for i, u in enumerate(keys):
                for v in keys[i:]:
                    lhs = ev.apply(ext.bracket(2, (u, v)))
                    rhs = target.bracket_multi(
                        2, [ev.apply({u: F(1)}), ev.apply({v: F(1)})])
                    assert lhs == rhs, (t, u, v)


def test_evaluation_endpoints():
    ext = extension_of_scalars(lib.pi_s2(), IntervalForms(2))
    ev0 = evaluation(ext, lib.pi_s2(), F(0))
    ev1 = evaluation(ext, lib.pi_s2(), F(1))
    assert ev0.apply({(("p", 0), "x"): F(1)}) == {"x": F(1)}
    assert ev0.apply({(("p", 1), "x"): F(1)}) == {}
    assert ev1.apply({(("p", 1), "x"): F(1)}) == {"x": F(1)}
    assert ev1.apply({(("q", 0), "x"): F(1)}) == {}


# ---------------------------------------------------------------------------
# fixtures and registry

def test_hopf_tau_fixture():
    tau = hopf_tau(3)
    assert tau.degree == 0
    assert tau.column("a") == {"y": F(3)}


def test_builtin_registry():
    assert lib.builtin_model("pi_s2").name == "pi(S2)"
    with pytest.raises(KeyError, match="unknown builtin"):
        lib.builtin_model("nope")


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_a_quillen_record_is_read_as_a_derivation(data):
    # a random derivation of a free Lie algebra on one or two letters in
    # each of degrees 1..3 loads with its values on every word, or on
    # the letters alone, when it squares to zero, and is refused at
    # delta when it does not; one bracket column changed is refused there
    per_degree = data.draw(st.dictionaries(st.integers(1, 3),
                                           st.integers(1, 2), min_size=1))
    deg_max = data.draw(st.integers(max(per_degree), 6))
    letters = GradedSpace({d: [f"x{d}_{i}" for i in range(m)]
                           for d, m in per_degree.items()}, name="V")
    fl = FreeLie(letters, deg_max)
    coefficient = st.sampled_from([F(1), F(-2), F(1, 3)])
    values = {}
    for k in letters.all_keys():
        targets = fl.space.basis(letters.degree_of[k] - 1)
        for e in data.draw(st.lists(st.sampled_from(targets), max_size=2)
                           if targets else st.just([])):
            values.setdefault(k, {})[e] = data.draw(coefficient)
    delta = fl.derivation(values, -1)

    def record(entries):
        return {"format_version": 1, "kind": "quillen", "name": "D",
                "letters": modelio.space_to_json(letters),
                "deg_max": deg_max,
                "delta": modelio.entries_to_json(entries)}

    on_letters = {k: v for k, v in delta.entries.items() if k in letters}
    for entries in (delta.entries, on_letters):
        if not delta.compose(delta).is_zero():
            with pytest.raises(modelio.ModelFileError, match="d\\^2 != 0") \
                    as exc:
                modelio.quillen_from_record(record(entries))
            assert exc.value.where == "delta"
            continue
        Q = modelio.quillen_from_record(record(entries))
        assert Q.delta.entries == delta.entries
        assert Q.leibniz_defect() is None

    brackets = [e for e in fl.space.all_keys() if is_bracket(e)
                and fl.space.basis(fl.space.degree_of[e] - 1)]
    if not brackets:
        return
    e = data.draw(st.sampled_from(brackets))
    t = data.draw(st.sampled_from(fl.space.basis(fl.space.degree_of[e] - 1)))
    col = dict(delta.entries.get(e, {}))
    col[t] = 2 * col[t] if t in col else F(1)
    changed = {**delta.entries, e: col}
    with pytest.raises(modelio.ModelFileError) as exc:
        modelio.quillen_from_record(record(changed))
    assert exc.value.where == "delta"
    assert str(exc.value).endswith(f"first at {e!r}")
    with pytest.raises(ValueError, match="is not a derivation"):
        QuillenModel(fl, GradedMap(fl.space, fl.space, -1, changed)
                     ).validate()
