"""Bar, cobar, the twisting-morphism adjunction, and the counit check.

Frozen values worked by hand: bar words over pi_*(S^2) with the position
conventions (d(xx) = y, d(xxx) = 3xy, coproduct of xx = 2 x(x)x), the
cobar differential of the CP^2 model (-1/2 [a^,a^]), homology ranks of
cobar over spheres and CP^2, and the divergence probe separating the
twisting residual from the plain Maurer-Cartan residual.
"""

from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from convmc.barcobar import (BarCoalgebra, CobarAlgebra, bar, cobar,
                             cobar_map, twisting_residual)
from convmc.convolution import (ConvolutionAlgebra, check_coalgebra_morphism,
                                convolve)
from convmc.freelie import expr_degree, is_bracket
from convmc.graded import (GradedMap, GradedSpace, Key, Vec,
                           contraction_from_complex, tensor_terms, vec_eq,
                           vec_scale)
from convmc.library import (abelian_pair_with_d, abelian_two, cp2_coalgebra,
                            pi_s2, pi_s3, sphere_coalgebra,
                            wedge_s2_s3_coalgebra)
from convmc.matrices import ONE, column_split
from convmc.models import CdgCoalgebra, ChainComplex, LInfinityAlgebra
from convmc.words import canonical_words
from test_models import cp3_coalgebra, hopf_tau
from test_words import wordify


# -- the adjunction: the reference for its identities ----------------------
#
# No command builds the two legs of the adjunction; the package reads only
# the twisting residual.  The legs, the universal factorization and the
# counit check are built here, re-checking every identity they rest on.

def is_strict(L: LInfinityAlgebra) -> bool:
    """No operation above arity 2."""
    return all(n <= 2 for n in L.arities)


def check_strict_morphism(L: LInfinityAlgebra, Lp: LInfinityAlgebra,
                          g: GradedMap):
    """g commutes with l_1 and with every stored bracket on basis words."""
    if g.degree != 0:
        raise ValueError("strict morphisms have degree 0")
    if (g.src.degree_of != L.space.degree_of
            or g.dst.degree_of != Lp.space.degree_of):
        raise ValueError("morphism endpoints do not match the algebras")
    lhs = g.compose(L.l1())
    rhs = Lp.l1().compose(g)
    for k in L.space.all_keys():
        if not vec_eq(lhs.column(k), rhs.column(k)):
            raise ValueError("map does not commute with l_1")
    for n in sorted(set(L.arities) | set(Lp.arities)):
        if n < 2:
            continue
        for word in canonical_words(L.space, n):
            left = g.apply(L.bracket(n, word))
            right = Lp.bracket_multi(n, [g.apply({k: ONE}) for k in word])
            if not vec_eq(left, right):
                raise ValueError(
                    f"map does not commute with l_{n} on {word!r}")


def bar_projection(B: BarCoalgebra) -> GradedMap:
    """Corestriction to single letters, the universal twisting morphism
    out of the bar construction."""
    cols: dict[Key, Vec] = {}
    for w in B.space.all_keys():
        if len(w) == 1:
            cols[w] = {w[0]: ONE}
    return GradedMap(B.space, B.L.space, 0, cols, name="pi")


class Adjunction:
    """Three-way dictionary between coalgebra maps C -> bar(L), twisting
    morphisms in the convolution algebra Hom(C, L), and algebra maps
    cobar(C) -> L.

    Every direction validates its input and its output: a map with a
    nonzero twisting residual is rejected with that residual, a
    non-morphism with the identity it breaks.  The algebra-map leg needs
    a strict L (l_n = 0 for n >= 3).
    """

    def __init__(self, C: CdgCoalgebra, L: LInfinityAlgebra,
                 degree_max: int):
        self.C = C
        self.L = L
        self.degree_max = degree_max
        self.convolution = ConvolutionAlgebra(C, L)
        self._bar: BarCoalgebra | None = None
        self._cobar: CobarAlgebra | None = None

    def bar_side(self) -> BarCoalgebra:
        if self._bar is None:
            self._bar = bar(self.L, self.degree_max)
        return self._bar

    def cobar_side(self) -> CobarAlgebra:
        if self._cobar is None:
            self._cobar = cobar(self.C, self.degree_max)
        return self._cobar

    def _require_mc(self, tau: GradedMap):
        res = twisting_residual(self.convolution, tau)
        if not res.is_zero():
            raise ValueError(
                f"not a twisting morphism; residual {res.entries!r}")

    def mc_to_coalgebra_map(self, tau: GradedMap) -> GradedMap:
        """The unique dg coalgebra map C -> bar(L) whose letter part is
        tau: sum over n of 1/n! tau-tensor-powers of the iterated
        coproduct, collected into sorted words."""
        self._require_mc(tau)
        B = self.bar_side()

        def product(n, vecs) -> Vec:
            out = wordify(self.L.space, dict(tensor_terms(vecs)))
            for word in out:
                if word not in B.space.degree_of:
                    raise ValueError(
                        f"bar truncation {self.degree_max} too small "
                        f"to hold the image word {word!r}")
            return out

        depth = self.convolution.coproduct_window()
        f = convolve(self.C, [tau], product, B.space, 0,
                     {n: F(1, factorial(n)) for n in range(1, depth + 1)})
        check_coalgebra_morphism(self.C, B, f)
        return f

    def coalgebra_map_to_mc(self, f: GradedMap) -> GradedMap:
        check_coalgebra_morphism(self.C, self.bar_side(), f)
        tau = bar_projection(self.bar_side()).compose(f)
        self._require_mc(tau)
        return tau

    def mc_to_algebra_map(self, tau: GradedMap) -> GradedMap:
        """The induced strict morphism cobar(C) -> L, evaluating each
        basis bracket expression with the shifted binary bracket."""
        if not is_strict(self.L):
            raise ValueError(
                "the algebra-map leg needs a strict target (no l_n, n >= 3)")
        self._require_mc(tau)
        M = self.cobar_side()
        letters = M.fl.letters
        memo: dict = {}

        def value(e) -> Vec:
            if e in memo:
                return memo[e]
            if not is_bracket(e):
                out = tau.apply({e: ONE})
            else:
                a, b = e[1], e[2]
                va, vb = value(a), value(b)
                out = self.L.bracket_multi(2, [va, vb]) if va and vb else {}
                if (expr_degree(letters, a) + 1) % 2:
                    out = vec_scale(-ONE, out)
            memo[e] = out
            return out

        cols = {e: v for e in M.as_linfty().space.all_keys()
                if (v := value(e))}
        g = GradedMap(M.as_linfty().space, self.L.space, 0, cols)
        check_strict_morphism(M.as_linfty(), self.L, g)
        return g

    def algebra_map_to_mc(self, g: GradedMap) -> GradedMap:
        M = self.cobar_side()
        check_strict_morphism(M.as_linfty(), self.L, g)
        tau = g.compose(M.inclusion())
        self._require_mc(tau)
        return tau


def universal_factorization(C: CdgCoalgebra, L: LInfinityAlgebra,
                            phi: GradedMap, degree_max: int
                            ) -> tuple[GradedMap, GradedMap]:
    """Factor an MC element phi through the two universal twisting
    morphisms: returns (f, g) with projection o f = phi on the bar side
    and g o inclusion = phi on the cobar side, both checked exactly."""
    adj = Adjunction(C, L, degree_max)
    f = adj.mc_to_coalgebra_map(phi)
    g = adj.mc_to_algebra_map(phi)
    through_bar = bar_projection(adj.bar_side()).compose(f)
    if not through_bar.equals(phi):
        raise AssertionError("projection o f differs from phi")
    through_cobar = g.compose(adj.cobar_side().inclusion())
    if not through_cobar.equals(phi):
        raise AssertionError("g o inclusion differs from phi")
    return f, g


def counit_quasi_iso_check(L: LInfinityAlgebra, degree_max: int) -> bool:
    """Build cobar(bar(L)) and test that the counit induces a homology
    isomorphism in degrees <= degree_max - 2; the top two degrees are
    truncation boundary and excluded."""
    if L.space.total_dim() == 0:
        return True
    B = bar(L, degree_max)
    adj = Adjunction(B, L, degree_max)
    counit = adj.mc_to_algebra_map(bar_projection(B))
    M = adj.cobar_side()
    kM = contraction_from_complex(M.as_linfty().as_chain_complex())
    kL = contraction_from_complex(L.as_chain_complex())
    HM, HL = kM.small.space, kL.small.space
    induced = kL.p.compose(counit).compose(kM.i)
    seen = {n for n in HM.degrees() if HM.dim(n)}
    seen |= {n for n in HL.degrees() if HL.dim(n)}
    for n in sorted(seen):
        if n > degree_max - 2:
            continue
        if HM.dim(n) != HL.dim(n):
            return False
        cols = [induced.entries.get(k, {}) for k in HM.basis(n)]
        if len(column_split(cols, HM.basis(n))[0]) != HM.dim(n):
            return False
    return True


def pq_coalgebra() -> CdgCoalgebra:
    """Two primitives with d(q) = p: the smallest source with a nonzero
    differential."""
    sp = GradedSpace({2: ["p"], 3: ["q"]}, name="PQ")
    d = GradedMap(sp, sp, -1, {"q": {"p": F(1)}})
    return CdgCoalgebra(sp, d, {}, name="PQ")


def bracket_with_acyclic_tail() -> LInfinityAlgebra:
    """x, y with l2(x, x) = y, plus u with l1(u) = y: the minimal target
    where the quadratic and differential parts of a residual can cancel
    against each other."""
    sp = GradedSpace({2: ["x"], 3: ["y"], 4: ["u"]}, name="Lu")
    L = LInfinityAlgebra(sp, {1: {("u",): {"y": F(1)}},
                              2: {("x", "x"): {"y": F(1)}}},
                         name="Lu", arities=[1, 2])
    L.validate()
    return L


def product_s2_s3_coalgebra() -> CdgCoalgebra:
    """Reduced homology of S^2 x S^3: the top class splits into classes
    of different parity, unlike every bundled source."""
    sp = GradedSpace({2: ["a"], 3: ["b"], 5: ["t"]}, name="S2xS3")
    C = CdgCoalgebra(sp, GradedMap.zero(sp, sp, -1),
                     {"t": {("a", "b"): F(1), ("b", "a"): F(1)}},
                     name="S2xS3")
    C.validate()
    return C


def mixed_parity_target() -> LInfinityAlgebra:
    """l2(x, y) = z with l1(v) = z, matching the product source above."""
    sp = GradedSpace({2: ["x"], 3: ["y"], 4: ["z"], 5: ["v"]}, name="Lv")
    L = LInfinityAlgebra(sp, {1: {("v",): {"z": F(1)}},
                              2: {("x", "y"): {"z": F(1)}}},
                         name="Lv", arities=[1, 2])
    L.validate()
    return L


# -- bar -----------------------------------------------------------------

def test_bar_word_basis_dimensions():
    B = bar(pi_s2(), 8)
    dims = {n: len(B.space.basis(n)) for n in B.space.degrees()}
    # one word per degree: x, y, xx, xy, xxx, xxy, xxxx (yy etc. vanish
    # because an odd letter squares to zero in a symmetric word)
    assert dims == {2: 1, 3: 1, 4: 1, 5: 1, 6: 1, 7: 1, 8: 1}


def test_bar_differential_frozen_columns():
    B = bar(pi_s2(), 8)
    cols = {w: dict(B.d.column(w)) for w in B.space.all_keys()
            if B.d.column(w)}
    assert cols == {
        ("x", "x"): {("y",): F(1)},
        ("x", "x", "x"): {("x", "y"): F(3)},
        ("x", "x", "x", "x"): {("x", "x", "y"): F(6)},
    }
    assert B.d.compose(B.d).is_zero()


def test_bar_coproduct_counts_position_splits():
    B = bar(pi_s2(), 8)
    assert B.delta[("x", "x")] == {(("x",), ("x",)): F(2)}
    assert B.delta[("x", "x", "x")] == {(("x",), ("x", "x")): F(3),
                                        (("x", "x"), ("x",)): F(3)}
    B.validate()


def test_bar_homology_is_sphere_homology():
    B = bar(pi_s2(), 8)
    H = contraction_from_complex(ChainComplex(B.space, B.d, "B")).small.space
    dims = {n: len(H.basis(n)) for n in H.degrees() if len(H.basis(n))}
    assert dims == {2: 1}
    assert B.exact_through == 7


def test_bar_abelian_has_zero_differential():
    B = bar(abelian_two(), 8)
    assert B.d.is_zero()
    assert sorted(B.space.all_keys()) == [
        ("u",), ("u", "u"), ("u", "u", "u"), ("u", "u", "u", "u")]


def test_bar_of_zero_is_zero():
    zero = LInfinityAlgebra(GradedSpace({}, name="0"), {}, name="0")
    assert bar(zero, 5).space.total_dim() == 0


def test_bar_rejects_degree_zero_carrier():
    sp = GradedSpace({0: ["e"]}, name="bad")
    L = LInfinityAlgebra(sp, {}, name="bad")
    with pytest.raises(ValueError, match="degrees >= 1"):
        bar(L, 4)


def test_projection_is_a_twisting_morphism():
    B = bar(pi_s2(), 7)
    conv = ConvolutionAlgebra(B, pi_s2())
    assert twisting_residual(conv, bar_projection(B)).is_zero()
    # and it is NOT Maurer-Cartan in the symmetrized normalization: the
    # quadratic term double-counts on the square word
    res = conv.mc_check(bar_projection(B))
    assert dict(res.column(("x", "x"))) == {"y": F(1)}


# -- cobar ---------------------------------------------------------------

def test_cobar_cp2_differential_and_homology():
    Om = cobar(cp2_coalgebra(), 7)
    assert dict(Om.delta.column("b")) == {("br", "a", "a"): F(-1, 2)}
    betti = Om.as_linfty().as_chain_complex().betti()
    window = {n: b for n, b in betti.items() if n <= Om.exact_through}
    assert window == {2: 1, 3: 0, 4: 0, 5: 1, 6: 0}


def test_cobar_s2_homology():
    Om = cobar(sphere_coalgebra(2), 5)
    betti = {n: b for n, b in Om.as_linfty().as_chain_complex().betti().items()
             if n <= Om.exact_through}
    assert betti == {2: 1, 3: 1}


def test_cobar_s3_is_free_on_one_generator():
    Om = cobar(sphere_coalgebra(3), 6)
    assert Om.delta.is_zero()
    assert Om.as_linfty().as_chain_complex().betti() == {3: 1}


def test_cobar_requires_one_reduced():
    sp = GradedSpace({1: ["e"]}, name="circle")
    C = CdgCoalgebra(sp, GradedMap.zero(sp, sp, -1), {}, name="circle")
    with pytest.raises(ValueError, match="one-reduced"):
        cobar(C, 4)


def test_cobar_functoriality_exact():
    C2, C3 = cp2_coalgebra(), cp3_coalgebra()
    incl = GradedMap(C2.space, C3.space, 0,
                     {"a": {"a": F(1)}, "b": {"b": F(1)}})
    lam = F(2)
    scal = GradedMap(C3.space, C3.space, 0,
                     {"a": {"a": lam}, "b": {"b": lam ** 2},
                      "c": {"c": lam ** 3}})
    src, mid = cobar(C2, 7), cobar(C3, 7)
    m1 = cobar_map(incl, src, mid)
    m2 = cobar_map(scal, mid, mid)
    assert m2.compose(m1).equals(cobar_map(scal.compose(incl), src, mid))


def test_cobar_map_rejects_non_coalgebra_maps():
    C2, C3 = cp2_coalgebra(), cp3_coalgebra()
    doubler = GradedMap(C2.space, C3.space, 0,
                        {"a": {"a": F(1)}, "b": {"b": F(2)}})
    with pytest.raises(ValueError, match="coproduct"):
        cobar_map(doubler, cobar(C2, 7), cobar(C3, 7))


# -- adjunction round trips ----------------------------------------------

def test_hopf_element_round_trips():
    adj = Adjunction(sphere_coalgebra(3), pi_s2(), 6)
    tau = hopf_tau(1)
    f = adj.mc_to_coalgebra_map(tau)
    g = adj.mc_to_algebra_map(tau)
    assert {k: dict(v) for k, v in f.entries.items()} == {"a": {("y",): F(1)}}
    assert {k: dict(v) for k, v in g.entries.items()} == {"a": {"y": F(1)}}
    assert adj.coalgebra_map_to_mc(f).equals(tau)
    assert adj.algebra_map_to_mc(g).equals(tau)


@settings(max_examples=25, deadline=None)
@given(st.fractions(min_value=-9, max_value=9, max_denominator=6))
def test_hopf_scaling_round_trips(lam):
    adj = Adjunction(sphere_coalgebra(3), pi_s2(), 6)
    tau = hopf_tau(lam)
    assert adj.coalgebra_map_to_mc(adj.mc_to_coalgebra_map(tau)).equals(tau)
    assert adj.algebra_map_to_mc(adj.mc_to_algebra_map(tau)).equals(tau)


def test_wedge_factorization_hits_the_bracket():
    W = wedge_s2_s3_coalgebra()
    tau = GradedMap(W.space, pi_s2().space, 0,
                    {"a": {"x": F(2)}, "b": {"y": F(-3)}})
    f, g = universal_factorization(W, pi_s2(), tau, 6)
    assert {k: dict(v) for k, v in f.entries.items()} == {
        "a": {("x",): F(2)}, "b": {("y",): F(-3)}}
    # the induced algebra map evaluates the Whitehead square of 2x
    assert dict(g.column(("br", "a", "a"))) == {"y": F(4)}


def test_zero_factorization_is_zero():
    C = cp2_coalgebra()
    zero = GradedMap(C.space, pi_s2().space, 0, {})
    f, g = universal_factorization(C, pi_s2(), zero, 7)
    assert f.is_zero() and g.is_zero()


def test_divided_power_word_coefficients():
    C, A = cp2_coalgebra(), abelian_two()
    adj = Adjunction(C, A, 7)
    tau = GradedMap(C.space, A.space, 0, {"a": {"u": F(3)}})
    f = adj.mc_to_coalgebra_map(tau)
    assert dict(f.column("b")) == {("u", "u"): F(9, 2)}
    assert adj.coalgebra_map_to_mc(f).equals(tau)


def test_round_trip_with_differentials_on_both_sides():
    C, L = pq_coalgebra(), abelian_pair_with_d()
    tau = GradedMap(C.space, L.space, 0,
                    {"p": {"u": F(5)}, "q": {"v": F(5)}})
    adj = Adjunction(C, L, 6)
    f = adj.mc_to_coalgebra_map(tau)
    g = adj.mc_to_algebra_map(tau)
    assert adj.coalgebra_map_to_mc(f).equals(tau)
    assert adj.algebra_map_to_mc(g).equals(tau)


def test_non_twisting_map_rejected_with_residual():
    adj = Adjunction(cp2_coalgebra(), pi_s2(), 7)
    tau = GradedMap(cp2_coalgebra().space, pi_s2().space, 0,
                    {"a": {"x": F(1)}})
    with pytest.raises(ValueError, match="twisting morphism; residual"):
        adj.mc_to_coalgebra_map(tau)
    with pytest.raises(ValueError, match="twisting morphism; residual"):
        adj.mc_to_algebra_map(tau)


def test_algebra_leg_requires_strict_target():
    sp = GradedSpace({2: ["x"], 5: ["w"]}, name="L3")
    L = LInfinityAlgebra(sp, {3: {("x", "x", "x"): {"w": F(1)}}},
                         name="L3", arities=[1, 3])
    adj = Adjunction(sphere_coalgebra(2), L, 6)
    zero = GradedMap(sphere_coalgebra(2).space, sp, 0, {})
    with pytest.raises(ValueError, match="strict target"):
        adj.mc_to_algebra_map(zero)


def test_factorization_perturbation_breaks_a_check():
    C, A = cp2_coalgebra(), abelian_two()
    adj = Adjunction(C, A, 7)
    tau = GradedMap(C.space, A.space, 0, {"a": {"u": F(3)}})
    f = adj.mc_to_coalgebra_map(tau)
    B = adj.bar_side()
    # word component off: no longer a coalgebra morphism
    bad_word = dict(f.entries)
    bad_word["b"] = {("u", "u"): F(5)}
    with pytest.raises(ValueError, match="coproduct"):
        check_coalgebra_morphism(C, B, GradedMap(C.space, B.space, 0,
                                                 bad_word))
    # letter component off: projection no longer returns tau
    bad_letter = {k: dict(v) for k, v in f.entries.items()}
    bad_letter["a"] = {("u",): F(4)}
    g = GradedMap(C.space, B.space, 0, bad_letter)
    assert not bar_projection(B).compose(g).equals(tau)


# -- twisting residual vs Maurer-Cartan residual -------------------------

def test_residuals_diverge_when_arities_mix():
    C, L = cp2_coalgebra(), bracket_with_acyclic_tail()
    conv = ConvolutionAlgebra(C, L)

    def tau(beta):
        return GradedMap(C.space, L.space, 0,
                         {"a": {"x": F(2)}, "b": {"u": F(beta)}})

    # the dg-morphism property holds at beta = -2 ...
    assert twisting_residual(conv, tau(-2)).is_zero()
    assert dict(conv.mc_check(tau(-2)).column("b")) == {"y": F(2)}
    f, g = universal_factorization(C, L, tau(-2), 7)
    assert dict(f.column("b")) == {("u",): F(-2), ("x", "x"): F(2)}
    assert g.compose(
        Adjunction(C, L, 7).cobar_side().inclusion()).equals(tau(-2))
    # ... while the symmetrized residual vanishes at beta = -4 instead,
    # where no dg morphism exists
    assert conv.mc_check(tau(-4)).is_zero()
    with pytest.raises(ValueError, match="twisting morphism"):
        Adjunction(C, L, 7).mc_to_coalgebra_map(tau(-4))


def test_residuals_agree_on_single_arity_obstructions():
    # bundled shape: source without differential, target with brackets
    conv = ConvolutionAlgebra(cp2_coalgebra(), pi_s2())
    tau = GradedMap(cp2_coalgebra().space, pi_s2().space, 0,
                    {"a": {"x": F(3)}})
    tw = twisting_residual(conv, tau)
    mc = conv.mc_check(tau)
    assert dict(tw.column("b")) == {"y": F(9, 2)}
    assert dict(mc.column("b")) == {"y": F(9)}
    assert not tw.is_zero() and not mc.is_zero()


def test_mixed_parity_factorization():
    C, L = product_s2_s3_coalgebra(), mixed_parity_target()
    tau = GradedMap(C.space, L.space, 0,
                    {"a": {"x": F(1)}, "b": {"y": F(1)}, "t": {"v": F(-1)}})
    assert twisting_residual(ConvolutionAlgebra(C, L), tau).is_zero()
    f, g = universal_factorization(C, L, tau, 7)
    assert dict(f.column("t")) == {("v",): F(-1), ("x", "y"): F(1)}
    off = GradedMap(C.space, L.space, 0,
                    {"a": {"x": F(1)}, "b": {"y": F(1)}, "t": {"v": F(1)}})
    with pytest.raises(ValueError, match="twisting morphism"):
        Adjunction(C, L, 7).mc_to_coalgebra_map(off)


def test_truncation_too_small_raises():
    C, A = cp2_coalgebra(), abelian_two()
    adj = Adjunction(C, A, 3)
    tau = GradedMap(C.space, A.space, 0, {"a": {"u": F(1)}})
    with pytest.raises(ValueError, match="truncation"):
        adj.mc_to_coalgebra_map(tau)


# -- counit --------------------------------------------------------------

def test_counit_quasi_iso_on_bundled_targets():
    assert counit_quasi_iso_check(abelian_two(), 7)
    assert counit_quasi_iso_check(pi_s3(), 7)
    assert counit_quasi_iso_check(abelian_pair_with_d(), 7)
    assert counit_quasi_iso_check(pi_s2(), 6)


def test_counit_zero_algebra_passes():
    zero = LInfinityAlgebra(GradedSpace({}, name="0"), {}, name="0")
    assert counit_quasi_iso_check(zero, 5)
