"""Convolution algebras Hom(C, L): bracket values, Maurer-Cartan
residuals, twisting, and naturality under (co)algebra morphisms.

The depth of the iterated coproduct bounds the arity where anything can
happen: a primitively generated source makes every n >= 2 bracket vanish,
the projective plane reaches arity two, and CP^3 is the first source deep
enough to give the generalized Jacobi identity at arity three actual
content.  The broken-target test below fails through CP^3 and is provably
invisible through CP^2, which is why both are checked.
"""

from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convmc import words as wd
from convmc.barcobar import bar, twisting_residual
from convmc.convolution import ConvolutionAlgebra, check_coalgebra_morphism
from convmc.gauge import NotMaurerCartan, PointRecord
from convmc.graded import GradedMap, GradedSpace, add_term
from convmc.library import (abelian_pair_with_d, abelian_two, cp2_coalgebra,
                            pi_s2, pi_s3, s2xs2_coalgebra, sphere_coalgebra,
                            wedge_s2_s3_coalgebra)
from convmc.mapping import pi_of_component
from convmc.models import CdgCoalgebra, LInfinityAlgebra
from test_barcobar import check_strict_morphism
from test_gauge import acyclic_pair_target, pair_mc, two_step_target
from test_models import cp3_coalgebra

F = Fraction


@pytest.fixture(scope="module")
def conv_cp2():
    return ConvolutionAlgebra(cp2_coalgebra(), pi_s2())


@pytest.fixture(scope="module")
def conv_prod():
    return ConvolutionAlgebra(s2xs2_coalgebra(), pi_s2())


def chain_source():
    """A one-reduced source with nonzero differential, d(q) = p; none of
    the bundled coalgebras exercise the f o d_C part of l_1."""
    sp = GradedSpace({2: ["p"], 3: ["q"]}, name="PQ")
    d = GradedMap(sp, sp, -1, {"q": {"p": F(1)}})
    return CdgCoalgebra(sp, d, {}, name="PQ")


def broken_target():
    """Not an L-infinity algebra: the extra entry l2(x, y) = z makes the
    arity-three Jacobi identity fail, jacobiator(x, x, x) = 3z."""
    sp = GradedSpace({2: ["x"], 3: ["y"], 4: ["z"]}, name="broken")
    return LInfinityAlgebra(sp, {2: {("x", "x"): {"y": F(1)},
                                     ("x", "y"): {"z": F(1)}}},
                            name="broken", arities=[1, 2])


def test_carrier_and_elementaries(conv_cp2):
    dims = {n: len(conv_cp2.carrier.basis(n))
            for n in conv_cp2.carrier.degrees()}
    assert dims == {-2: 1, -1: 1, 0: 1, 1: 1}
    f = conv_cp2.elementary("b", "y")
    assert f.degree == -1
    assert f.apply({"b": F(1)}) == {"y": F(1)}
    v = conv_cp2.to_vec(f)
    assert v == {("b", "y"): F(1)}
    g = conv_cp2.to_map(v)
    assert (g - f).is_zero() and g.degree == -1


def test_rejects_sources_with_low_degree_classes():
    sp = GradedSpace({1: ["a"]}, name="circle")
    C = CdgCoalgebra(sp, GradedMap.zero(sp, sp, -1), {}, name="circle")
    with pytest.raises(ValueError):
        ConvolutionAlgebra(C, pi_s2())


def test_coproduct_windows():
    pairs = [(sphere_coalgebra(2), 1), (wedge_s2_s3_coalgebra(), 1),
             (cp2_coalgebra(), 2), (s2xs2_coalgebra(), 2),
             (cp3_coalgebra(), 3)]
    for C, depth in pairs:
        assert ConvolutionAlgebra(C, pi_s2()).coproduct_window() == depth
    # the target arity caps the window: pi(S2) stops at binary brackets
    assert ConvolutionAlgebra(cp3_coalgebra(), pi_s2()).arity_window() == 2
    assert ConvolutionAlgebra(cp3_coalgebra(), pi_s3()).arity_window() == 1


def test_hom_differential_signs():
    cv = ConvolutionAlgebra(chain_source(), pi_s2())
    even = cv.differential_of(cv.elementary("p", "x"))
    assert even.entries == {"q": {"x": F(-1)}}
    odd = cv.differential_of(cv.elementary("p", "y"))
    assert odd.entries == {"q": {"y": F(1)}}


def test_hom_differential_squares_to_zero():
    cv = ConvolutionAlgebra(chain_source(), abelian_pair_with_d())
    for key in cv.carrier.all_keys():
        f = cv.elementary(*key)
        assert cv.differential_of(cv.differential_of(f)).is_zero()


def test_binary_bracket_on_projective_plane(conv_cp2):
    f = conv_cp2.elementary("a", "x")
    val = conv_cp2.bracket(2, [f, f])
    assert val.degree == -1
    assert val.entries == {"b": {"y": F(2)}}


def test_bracket_graded_symmetry(conv_prod):
    keys = conv_prod.carrier.all_keys()
    deg = conv_prod.carrier.degree_of
    for a in keys:
        for b in keys:
            f, g = conv_prod.elementary(*a), conv_prod.elementary(*b)
            lhs = conv_prod.bracket(2, [f, g])
            rhs = conv_prod.bracket(2, [g, f])
            if deg[a] % 2 and deg[b] % 2:
                rhs = rhs.scale(F(-1))
            assert (lhs - rhs).is_zero()
    odd = conv_prod.elementary("t", "y")
    assert conv_prod.bracket(2, [odd, odd]).is_zero()


def test_bracket_arity_mismatch(conv_cp2):
    f = conv_cp2.elementary("a", "x")
    with pytest.raises(ValueError):
        conv_cp2.bracket(2, [f])


def test_mc_residual_on_projective_plane(conv_cp2):
    f = conv_cp2.elementary("a", "x")
    res = conv_cp2.mc_check(f.scale(F(3)))
    assert res.entries == {"b": {"y": F(9)}}
    assert conv_cp2.mc_check(conv_cp2.zero_map()).is_zero()
    assert not conv_cp2.mc_check(f).is_zero()


small_fraction = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@given(small_fraction, small_fraction)
@settings(max_examples=40, deadline=None)
def test_mc_residual_closed_form_on_product(alpha, beta):
    # residual(alpha a->x + beta b->x) on the top class: the coproduct has
    # two summands a(x)b and b(x)a, the symmetric sum doubles them, and
    # 1/2! halves the total, leaving 2 alpha beta l2(x, x).
    conv = ConvolutionAlgebra(s2xs2_coalgebra(), pi_s2())
    tau = (conv.elementary("a", "x").scale(alpha)
           + conv.elementary("b", "x").scale(beta))
    res = conv.mc_check(tau)
    expected = {"t": {"y": 2 * alpha * beta}} if alpha * beta else {}
    assert res.entries == expected
    assert res.is_zero() == (alpha * beta == 0)


def test_mc_check_requires_degree_zero(conv_cp2):
    with pytest.raises(ValueError):
        conv_cp2.mc_check(conv_cp2.elementary("a", "y"))


def test_sphere_sources_are_unobstructed():
    for C in (sphere_coalgebra(2), sphere_coalgebra(3)):
        cv = ConvolutionAlgebra(C, pi_s2())
        for key in cv.carrier.basis(0):
            assert cv.mc_check(cv.elementary(*key).scale(F(5))).is_zero()
    cv = ConvolutionAlgebra(sphere_coalgebra(3), pi_s2())
    assert cv.mc_check(cv.elementary("a", "y").scale(F(-2, 3))).is_zero()


def materialize(conv: ConvolutionAlgebra,
                arity_max: int = 4) -> LInfinityAlgebra:
    """The carrier of conv with bracket tables materialized through the
    given arity, suitable for the generic Jacobi validation."""
    brackets: dict[int, dict[tuple, dict]] = {1: {}}
    for k in sorted(conv.carrier.all_keys(), key=conv.carrier.sort_key):
        v = conv.to_vec(conv.differential_of(conv.elementary(*k)))
        if v:
            brackets[1][(k,)] = v
    top = min(arity_max, conv.coproduct_window())
    arities = [1]
    for n in range(2, top + 1):
        if n > conv.L.max_arity():
            break
        table: dict[tuple, dict] = {}
        for word in wd.canonical_words(conv.carrier, n):
            val = conv.bracket(n, [conv.elementary(*k) for k in word])
            v = conv.to_vec(val)
            if v:
                table[word] = v
        if table:
            brackets[n] = table
        arities.append(n)
    return LInfinityAlgebra(conv.carrier, brackets, name=conv.name,
                            arities=arities)


def validate_convolution(conv: ConvolutionAlgebra, arity_max: int = 4):
    """Generalized Jacobi on the materialized brackets, exact."""
    materialize(conv, arity_max).validate(arity_max)


def test_validate_bundled_pairs():
    pairs = [(cp2_coalgebra(), pi_s2()), (s2xs2_coalgebra(), pi_s2()),
             (cp2_coalgebra(), abelian_pair_with_d()),
             (cp3_coalgebra(), pi_s2())]
    for C, L in pairs:
        validate_convolution(ConvolutionAlgebra(C, L))


def test_validate_detects_broken_target_through_depth_three():
    bad = broken_target()
    assert bad.jacobiator(("x", "x", "x")) == {"z": F(3)}
    # through CP^2 the composite l2(l2(f, g), h) dies on the coproduct,
    # so the defect is invisible there
    validate_convolution(ConvolutionAlgebra(cp2_coalgebra(), bad))
    with pytest.raises(ValueError, match="Jacobi"):
        validate_convolution(ConvolutionAlgebra(cp3_coalgebra(), bad))


def test_as_linfty_materializes(conv_cp2):
    alg = materialize(conv_cp2)
    assert alg.arities == [1, 2]
    word = (("a", "x"), ("a", "x"))
    assert alg.bracket(2, word) == {("b", "y"): F(2)}
    assert alg.l1().is_zero()


def test_twist_by_zero_is_the_plain_differential():
    cv = ConvolutionAlgebra(chain_source(), abelian_pair_with_d())
    tw = cv.twist(PointRecord(cv, cv.zero_map()))
    for key in cv.carrier.all_keys():
        f = cv.elementary(*key)
        assert tw.d.apply(cv.to_vec(f)) == cv.to_vec(cv.differential_of(f))


def test_twist_frozen_on_product_of_spheres(conv_prod):
    tau = conv_prod.elementary("a", "x").scale(F(3))
    tw = conv_prod.twist(PointRecord(conv_prod, tau))
    assert tw.d.entries == {("b", "x"): {("t", "y"): F(6)}}
    assert tw.betti() == {-2: 1, -1: 0, 0: 1, 1: 2}
    plain = conv_prod.twist(PointRecord(conv_prod, conv_prod.zero_map()))
    assert plain.betti() == {-2: 1, -1: 1, 0: 2, 1: 2}


def test_twist_rejects_non_mc(conv_cp2):
    # twist takes a record, which a non-MC point has not, and only one of
    # its own algebra
    with pytest.raises(NotMaurerCartan):
        conv_cp2.twist(PointRecord(conv_cp2, conv_cp2.elementary("a", "x")))
    twin = ConvolutionAlgebra(conv_cp2.C, conv_cp2.L)
    with pytest.raises(ValueError, match="cannot twist"):
        conv_cp2.twist(PointRecord(twin, twin.zero_map()))


def test_twisted_homology_of_sphere_sources():
    cv3 = ConvolutionAlgebra(sphere_coalgebra(3), pi_s2())
    tau = cv3.elementary("a", "y").scale(F(5))
    betti = cv3.twist(PointRecord(cv3, tau)).betti()
    assert all(betti.get(k, 0) == 0 for k in range(1, 4))
    cv2 = ConvolutionAlgebra(sphere_coalgebra(2), pi_s2())
    assert len(pi_of_component(PointRecord(cv2, cv2.zero_map()), 1)) == 1


# -- naturality: the reference maps Hom(C, L) -> Hom(C, L') and
# Hom(C, L) -> Hom(C', L) that composition with a morphism induces; no
# command needs them, so they are built here next to their tests.

class ConvolutionMorphism:
    """Strict map of convolution algebras given by composition with a
    fixed morphism on one side."""

    def __init__(self, source: ConvolutionAlgebra, target: ConvolutionAlgebra,
                 transport):
        self.source = source
        self.target = target
        self.apply = transport


def pushforward(conv: ConvolutionAlgebra, g: GradedMap,
                Lp: LInfinityAlgebra) -> ConvolutionMorphism:
    """f |-> g o f, for a strict morphism g: L -> Lp (checked)."""
    check_strict_morphism(conv.L, Lp, g)
    return ConvolutionMorphism(conv, ConvolutionAlgebra(conv.C, Lp),
                               g.compose)


def pullback(conv: ConvolutionAlgebra, h: GradedMap,
             Cp: CdgCoalgebra) -> ConvolutionMorphism:
    """f |-> f o h, for a coalgebra morphism h: Cp -> C (checked)."""
    check_coalgebra_morphism(Cp, conv.C, h)
    return ConvolutionMorphism(conv, ConvolutionAlgebra(Cp, conv.L),
                               lambda f: f.compose(h))


def test_pushforward_preserves_mc(conv_prod):
    A = abelian_two()
    g = GradedMap(conv_prod.L.space, A.space, 0, {"x": {"u": F(1)}})
    mor = pushforward(conv_prod, g, A)
    tau = conv_prod.elementary("a", "x").scale(F(3))
    assert conv_prod.mc_check(tau).is_zero()
    assert mor.target.mc_check(mor.apply(tau)).is_zero()
    f = conv_prod.elementary("b", "x")
    lhs = mor.apply(conv_prod.bracket(2, [f, tau]))
    rhs = mor.target.bracket(2, [mor.apply(f), mor.apply(tau)])
    assert (lhs - rhs).is_zero()


def test_pushforward_rejects_non_morphisms(conv_cp2):
    L = conv_cp2.L
    doubler = GradedMap(L.space, L.space, 0,
                        {"x": {"x": F(1)}, "y": {"y": F(2)}})
    with pytest.raises(ValueError, match="l_2"):
        pushforward(conv_cp2, doubler, pi_s2())


def test_pullback_residual_naturality():
    c3 = ConvolutionAlgebra(cp3_coalgebra(), pi_s2())
    Cp = cp2_coalgebra()
    h = GradedMap(Cp.space, c3.C.space, 0,
                  {"a": {"a": F(1)}, "b": {"b": F(1)}})
    mor = pullback(c3, h, Cp)
    tau = c3.elementary("a", "x").scale(F(5))
    lhs = mor.apply(c3.mc_check(tau))
    rhs = mor.target.mc_check(mor.apply(tau))
    assert lhs.entries == {"b": {"y": F(25)}}
    assert (lhs - rhs).is_zero()
    f = c3.elementary("a", "x")
    gl = mor.apply(c3.bracket(2, [f, f]))
    gr = mor.target.bracket(2, [mor.apply(f)] * 2)
    assert (gl - gr).is_zero() and gl.entries == {"b": {"y": F(2)}}


def test_pullback_rejects_non_coalgebra_maps(conv_cp2):
    Cp = cp2_coalgebra()
    h = GradedMap(Cp.space, conv_cp2.C.space, 0,
                  {"a": {"a": F(1)}, "b": {"b": F(2)}})
    with pytest.raises(ValueError, match="coproduct"):
        pullback(conv_cp2, h, Cp)


# -- the one-pass formula against the n!-ordering formula ------------------

def ordering_bracket(conv, n, fs):
    """l_n(f_1, ..., f_n) summed over all n! orderings of the maps, with
    the Koszul sign of the reordering and of each map passing the letters
    in front of it: the formula convolve collapses, kept as its
    reference."""
    if n == 1:
        return conv.differential_of(fs[0])
    fdegs = [f.degree for f in fs]
    cdeg = conv.C.space.degree_of
    cols = {}
    for ck in conv.C.space.all_keys():
        acc = {}
        for sigma in permutations(range(n)):
            s1 = wd.blocks_sign(fdegs, [sigma])
            for word, gamma in conv.C.iterated_coproduct(ck, n).items():
                sgn = s1
                before = 0
                vecs = []
                for slot in range(n):
                    f = fs[sigma[slot]]
                    if f.degree % 2 and before % 2:
                        sgn = -sgn
                    before += cdeg[word[slot]]
                    vecs.append(f.apply({word[slot]: F(1)}))
                for lk, c in conv.L.bracket_multi(n, vecs).items():
                    add_term(acc, lk, sgn * gamma * c)
        if acc:
            cols[ck] = acc
    return GradedMap(conv.C.space, conv.L.space, sum(fdegs) - 1, cols)


def symmetric_sum(conv, first, tau, weight):
    """l_1(first) + sum over n >= 2 of weight(n) l_n(first, tau, ..., tau),
    each l_n summed over all n! orderings."""
    out = ordering_bracket(conv, 1, [first])
    for n in range(2, conv.arity_window() + 1):
        term = ordering_bracket(conv, n, [first] + [tau] * (n - 1))
        out = out + term.scale(weight(n))
    return out


def old_mc_check(conv, tau):
    return symmetric_sum(conv, tau, tau, lambda n: F(1, factorial(n)))


def old_twisting_residual(conv, tau):
    return symmetric_sum(conv, tau, tau, lambda n: F(1, factorial(n) ** 2))


def old_twisted(conv, tau, f):
    return symmetric_sum(conv, f, tau, lambda n: F(1, factorial(n - 1)))


def s2xs3_source():
    """a2, b3, t5 with t -> a (x) b + b (x) a: an odd class in front of a
    slot, so the Koszul sign of placing an odd f after b is -1."""
    sp = GradedSpace({2: ["a"], 3: ["b"], 5: ["t"]}, name="S2xS3")
    delta = {"t": {("a", "b"): F(1), ("b", "a"): F(1)}}
    return CdgCoalgebra(sp, GradedMap.zero(sp, sp, -1), delta, name="S2xS3")


def odd_pair_target():
    """y1, y2 in degree 3 with l2(y1, y2) = z as the only operation, so
    Jacobi holds and the bracket pairs two odd letters."""
    sp = GradedSpace({3: ["y1", "y2"], 5: ["z"]}, name="odd")
    return LInfinityAlgebra(sp, {2: {("y1", "y2"): {"z": F(1)}}},
                            name="odd", arities=[1, 2])


ORACLE_PAIRS = [(cp2_coalgebra, pi_s2), (s2xs2_coalgebra, pi_s2),
                (cp2_coalgebra, acyclic_pair_target),
                (cp3_coalgebra, two_step_target),
                (cp3_coalgebra, acyclic_pair_target),
                (s2xs3_source, odd_pair_target)]


def test_oracle_pairs_are_models():
    for source, target in ORACLE_PAIRS:
        source().validate()
        target().validate()


def check_against_orderings(conv, tau, fs):
    assert conv.mc_check(tau).equals(old_mc_check(conv, tau))
    assert twisting_residual(conv, tau).equals(
        old_twisting_residual(conv, tau))
    for f in fs:
        got = conv.twisted_differential(tau, f)
        assert got.degree == f.degree - 1
        assert got.equals(old_twisted(conv, tau, f))


def test_kernel_matches_the_orderings_on_bundled_pairs():
    cases = [(ConvolutionAlgebra(cp2_coalgebra(), pi_s2()),
              [F(0), F(3)], [("a", "x")]),
             (ConvolutionAlgebra(s2xs2_coalgebra(), pi_s2()),
              [F(2), F(-1, 3)], [("a", "x"), ("b", "x")])]
    for conv, coeffs, keys in cases:
        for c in coeffs:
            for key in keys:
                tau = conv.elementary(*key).scale(c)
                fs = [conv.elementary(*k) for k in conv.carrier.all_keys()]
                check_against_orderings(conv, tau, fs)
    conv = ConvolutionAlgebra(cp2_coalgebra(), acyclic_pair_target())
    fs = [conv.elementary(*k) for k in conv.carrier.all_keys()]
    for alpha, gamma in [(1, 0), (2, 3), (-1, F(1, 2))]:
        check_against_orderings(conv, pair_mc(conv, alpha, gamma), fs)


def test_twist_columns_match_the_orderings():
    cases = [(ConvolutionAlgebra(s2xs2_coalgebra(), pi_s2()),
              lambda cv: cv.elementary("a", "x").scale(F(3))),
             (ConvolutionAlgebra(cp2_coalgebra(), acyclic_pair_target()),
              lambda cv: pair_mc(cv, 2, 3)),
             (ConvolutionAlgebra(cp3_coalgebra(), two_step_target()),
              lambda cv: cv.elementary("a", "x"))]
    for conv, make in cases:
        tau = make(conv)
        d = conv.twist(PointRecord(conv, tau)).d
        for key in conv.carrier.all_keys():
            want = old_twisted(conv, tau, conv.elementary(*key))
            assert d.column(key) == conv.to_vec(want)


def draw_map(draw, conv, degree):
    car = conv.carrier
    keys = sorted(car.basis(degree), key=car.sort_key)
    coeffs = draw(st.lists(small_fraction, min_size=len(keys),
                           max_size=len(keys)))
    return conv.to_map(dict(zip(keys, coeffs)), degree=degree)


def bar_source():
    """bar(pi(S2)) through degree 7: a source with a nonzero differential
    and words of length three."""
    return bar(pi_s2(), 7)


KERNEL_PAIRS = ORACLE_PAIRS + [(bar_source, pi_s2),
                               (bar_source, acyclic_pair_target)]


@st.composite
def kernel_cases(draw):
    # bar_source brings the f o d_C term in; the second map has odd
    # degree, so that term's sign is exercised on both parities
    source, target = draw(st.sampled_from(KERNEL_PAIRS))
    conv = ConvolutionAlgebra(source(), target())
    degrees = sorted(conv.carrier.degrees())
    tau = draw_map(draw, conv, 0)
    fs = [draw_map(draw, conv, draw(st.sampled_from(degrees))),
          draw_map(draw, conv, draw(st.sampled_from(
              [d for d in degrees if d % 2])))]
    return conv, tau, fs


@given(kernel_cases())
@settings(max_examples=60, deadline=None)
def test_kernel_matches_the_orderings_on_generated_elements(case):
    conv, tau, fs = case
    check_against_orderings(conv, tau, fs)
    # the one-pass columns, on every carrier key at once
    keys = conv.carrier.all_keys()
    cols = conv.twisted_columns(tau, keys)
    for key in keys:
        want = old_twisted(conv, tau, conv.elementary(*key))
        assert cols.get(key, {}) == conv.to_vec(want)


@st.composite
def bracket_cases(draw):
    source, target = draw(st.sampled_from(KERNEL_PAIRS))
    conv = ConvolutionAlgebra(source(), target())
    degrees = sorted(conv.carrier.degrees())
    n = draw(st.integers(2, max(2, conv.coproduct_window())))
    fs = [draw_map(draw, conv, draw(st.sampled_from(degrees)))
          for _ in range(n)]
    return conv, n, fs


@given(bracket_cases())
@settings(max_examples=100, deadline=None)
def test_bracket_matches_the_orderings_on_distinct_maps(case):
    # distinct maps of mixed degrees, odd ones included: the collapse of
    # the n! orderings rests on the cocommutativity of the source alone
    conv, n, fs = case
    assert conv.bracket(n, fs).equals(ordering_bracket(conv, n, fs))


def test_odd_slot_sign_is_exercised():
    # f = a -> y1 has degree 1 and the class b is odd.  The twisted
    # differential puts f first, on the word (a, b), where no slot sign
    # enters; the generic bracket with f second reads the word (b, a) with
    # f behind b, so that term carries -1 on top of the Koszul sign of
    # l2(y2, y1) = -z, and without it the value would flip
    conv = ConvolutionAlgebra(s2xs3_source(), odd_pair_target())
    tau = conv.elementary("b", "y2")
    f = conv.elementary("a", "y1")
    got = conv.twisted_differential(tau, f)
    assert got.entries == {"t": {"z": F(2)}}
    assert got.equals(old_twisted(conv, tau, f))
    got = conv.bracket(2, [tau, f])
    assert got.entries == {"t": {"z": F(2)}}
    assert got.equals(ordering_bracket(conv, 2, [tau, f]))


def test_memoised_coproduct_equals_a_fresh_one():
    for make in (cp2_coalgebra, s2xs2_coalgebra, cp3_coalgebra,
                 s2xs3_source):
        C = make()
        for n in range(1, 5):
            for key in C.space.all_keys():
                first = C.iterated_coproduct(key, n)
                assert C.iterated_coproduct(key, n) is first
                assert first == make().iterated_coproduct(key, n)
