"""Hopf invariants and sphere homotopy groups, checked against values
worked out by hand.

The loop model of the 2-sphere is the free Lie algebra on one class in
degree 2 with zero differential: homology is one line in degree 2, one
in degree 3 spanned by the self-bracket, nothing above.  A map from the
3-sphere is a multiple of that self-bracket class, and distinct
multiples are distinct maps: this is the classical Hopf family.

For the cell structure with a degree-2 class a and a degree-4 class b
with coproduct b -> a (x) a, the identity pushes to a |-> H2_0, and the
conjugation a |-> -a, b |-> b pushes to a |-> -H2_0, visibly not gauge
equivalent to the identity.  The pushed twisting morphism iota o f sits
in the divided-power normalization, so these two exercise both residual
gates end to end.

A strict map is pushed in one step.  reference_push, the five-stage
composite that pipeline replaced, is the oracle for it: wherever the
composite answers, the one push gives an equal element.

No Maurer-Cartan element over that cell structure with values in the
loop homology of the 2-sphere can hit the bottom class: the coproduct
of b forces half the self-bracket as an obstruction.  That rejection
is also pinned here.
"""

from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from convmc import hopf, modelio
from convmc.barcobar import bar, cobar_map
from convmc.convolution import ConvolutionAlgebra
from convmc.gauge import (Distinct, Equal, NotMaurerCartan, PointRecord,
                          gauge_equivalent, gauge_flow, moduli_normal_form)
from convmc.graded import GradedMap, GradedSpace
from convmc.library import (cp2_coalgebra, pi_s2, s2xs2_coalgebra,
                            sphere_coalgebra, wedge_s2_s3_coalgebra)
from convmc.models import CdgCoalgebra
from convmc.transfer import postcompose_strict, push_mc


def sphere_model():
    return hopf.loop_homology(sphere_coalgebra(2), 5)


def cp2_model():
    return hopf.loop_homology(cp2_coalgebra(), 6)


def record(kind, f):
    """The map or mc_element record of f, as a model file holds it."""
    return {"kind": kind, "degree": f.degree,
            "entries": modelio.gmap_to_json(f)}


def self_map(C, entries):
    """The record of the canonical element of the strict self-map of C
    with the given entries, read in the model of C at window 6."""
    f = GradedMap(C.space, C.space, 0, entries)
    return hopf.mc_of_map(hopf.loop_homology(C, 6), C, record("map", f))


CP2_ID = {"a": {"a": F(1)}, "b": {"b": F(1)}}


def hopf_family(k):
    m = sphere_model()
    s3 = sphere_coalgebra(3)
    tau = GradedMap(s3.space, m.algebra.space, 0,
                    {"a": {"H3_0": F(k)}} if k else {})
    return hopf.mc_of_map(m, s3, record("mc_element", tau))


def test_sphere_loop_model_constants():
    m = sphere_model()
    sp = m.algebra.space
    assert {d: sp.basis(d) for d in sorted(sp.degrees())} == {
        2: ("H2_0",), 3: ("H3_0",)}
    assert m.algebra.bracket(2, ("H2_0", "H2_0")) == {"H3_0": F(1)}


def test_model_cache_is_structural():
    m = sphere_model()
    again = hopf.loop_homology(sphere_coalgebra(2), 5)
    assert again is m
    assert hopf.loop_homology(sphere_coalgebra(2), 6) is not m


def test_model_cache_evicts_the_least_recently_used(monkeypatch):
    monkeypatch.setattr(hopf, "_MODELS", type(hopf._MODELS)())
    monkeypatch.setattr(hopf, "_MODELS_CAP", 2)
    s2 = sphere_coalgebra(2)
    w3, w4 = hopf.loop_homology(s2, 3), hopf.loop_homology(s2, 4)
    assert hopf.loop_homology(s2, 3) is w3      # a hit, now most recent
    hopf.loop_homology(s2, 5)                   # past the cap: w4 goes
    assert len(hopf._MODELS) == 2
    assert hopf.loop_homology(s2, 3) is w3
    assert hopf.loop_homology(s2, 4) is not w4


def test_hopf_family_invariants():
    one, two = hopf_family(1), hopf_family(2)
    inv = moduli_normal_form(one)
    assert dict(inv.representative.entries) == {"a": {"H3_0": F(1)}}
    assert inv.verify()

    cert = hopf.maps_homotopic(one, two)
    assert isinstance(cert, Distinct)
    assert cert.kind == "homology-class"
    assert cert.verify()

    cert0 = hopf.maps_homotopic(one, hopf_family(0))
    assert isinstance(cert0, Distinct) and cert0.verify()

    same = hopf.maps_homotopic(one, hopf_family(1))
    assert isinstance(same, Equal) and same.verify()


@settings(max_examples=25, deadline=None)
@given(j=st.integers(min_value=-4, max_value=4),
       k=st.integers(min_value=-4, max_value=4))
def test_hopf_family_is_faithful(j, k):
    cert = hopf.maps_homotopic(hopf_family(j), hopf_family(k))
    if j == k:
        assert isinstance(cert, Equal) and cert.verify()
    else:
        assert isinstance(cert, Distinct) and cert.verify()


def test_identity_and_zero_through_full_pipeline():
    cp2 = cp2_coalgebra()
    ident = self_map(cp2, CP2_ID)
    assert dict(ident.x.entries) == {"a": {"H2_0": F(1)}}
    assert self_map(cp2, {}).x.is_zero()

    same = hopf.maps_homotopic(ident, ident)
    assert isinstance(same, Equal) and same.verify()


def test_pushed_elements_are_handed_out_as_stored():
    # a memo hit hands out the record the push stored, of the algebra
    # model.hom keeps for the source
    cp2 = cp2_coalgebra()
    first = self_map(cp2, CP2_ID)
    assert self_map(cp2, CP2_ID) is first
    assert first.conv is cp2_model().hom(cp2)


def test_a_pushed_record_follows_its_source_algebra(monkeypatch):
    # once model.hom has evicted the algebra of a stored record, the map is
    # pushed again into the algebra that replaced it, so it can be decided
    # against the records of that algebra
    monkeypatch.setattr(hopf, "_MODELS", type(hopf._MODELS)())
    monkeypatch.setattr(hopf, "_HOMS_CAP", 1)
    cp2, m = cp2_coalgebra(), cp2_model()
    first = self_map(cp2, CP2_ID)
    m.hom(sphere_coalgebra(3))
    again = self_map(cp2, CP2_ID)
    assert again.conv is m.hom(cp2) is not first.conv
    assert again.x.equals(first.x)
    as_mc = hopf.mc_of_map(m, cp2, record("mc_element", first.x))
    assert isinstance(hopf.maps_homotopic(again, as_mc), Equal)


def test_a_map_failing_the_final_check_is_not_kept(monkeypatch):
    """The zero map from the two-cell source to the 2-sphere, with its
    push replaced by the obstructed element of
    test_bottom_class_obstruction_is_caught: the final check refuses the
    pushed element, nothing is kept, and a second call pushes again and
    raises again."""
    monkeypatch.setattr(hopf, "_MODELS", type(hopf._MODELS)())
    cp2 = cp2_coalgebra()
    m = sphere_model()
    zero = record("map", GradedMap(cp2.space, m.coalgebra.space, 0, {}))
    push_mc = hopf.push_mc
    pushes = []

    def obstructed(f, C, tau, residual="mc_check"):
        out = push_mc(f, C, tau, residual=residual)
        pushes.append(residual)
        if residual == "twisting":
            return GradedMap(C.space, out.dst, 0, {"a": {"H2_0": F(1)}})
        return out

    monkeypatch.setattr(hopf, "push_mc", obstructed)
    for _ in range(2):
        with pytest.raises(NotMaurerCartan, match="not a Maurer-Cartan"):
            hopf.mc_of_map(m, cp2, zero)
        assert not m.hom(cp2).algebra_memo.get("pushed")
    assert pushes == ["twisting"] * 2
    monkeypatch.setattr(hopf, "push_mc", push_mc)
    assert hopf.mc_of_map(m, cp2, zero).x.is_zero()
    assert len(m.hom(cp2).algebra_memo["pushed"]) == 1


def test_conjugation_is_a_distinct_self_map():
    cp2 = cp2_coalgebra()
    conj = self_map(cp2, {"a": {"a": F(-1)}, "b": {"b": F(1)}})
    assert dict(conj.x.entries) == {"a": {"H2_0": F(-1)}}
    cert = hopf.maps_homotopic(self_map(cp2, CP2_ID), conj)
    assert isinstance(cert, Distinct) and cert.verify()


def test_both_input_forms_give_the_same_class():
    cp2 = cp2_coalgebra()
    ident = self_map(cp2, CP2_ID)
    as_mc = hopf.mc_of_map(cp2_model(), cp2, record("mc_element", ident.x))
    cert = hopf.maps_homotopic(ident, as_mc)
    assert isinstance(cert, Equal) and cert.verify()


def test_invariant_survives_gauge_flow():
    one = hopf_family(1)
    m = sphere_model()
    s3 = sphere_coalgebra(3)
    conv = ConvolutionAlgebra(s3, m.algebra)
    path = gauge_flow(conv, one.x, conv.zero_map(1))
    assert path.endpoint(0).equals(one.x)
    flowed = hopf.mc_of_map(m, s3, record("mc_element", path.endpoint(1)))
    cert = hopf.maps_homotopic(one, flowed)
    assert isinstance(cert, Equal) and cert.verify()
    assert flowed.normal_form.representative.equals(
        one.normal_form.representative)


def test_flow_along_a_nonzero_direction_preserves_the_class():
    cp2 = cp2_coalgebra()
    m = cp2_model()
    conv = ConvolutionAlgebra(cp2, m.algebra)
    start = GradedMap(cp2.space, m.algebra.space, 0, {"a": {"H2_0": F(1)}})
    lam = conv.elementary("b", "H5_0")
    assert lam.degree == 1
    path = gauge_flow(conv, start, lam)
    assert path.path_check().is_zero()
    flowed, anchor = (hopf.mc_of_map(m, cp2, record("mc_element", x))
                      for x in (path.endpoint(1), start))
    cert = hopf.maps_homotopic(anchor, flowed)
    assert isinstance(cert, Equal) and cert.verify()


def test_mc_input_validation():
    m = sphere_model()
    s3 = sphere_coalgebra(3)
    lam = GradedMap(s3.space, m.algebra.space, 1, {})
    with pytest.raises(ValueError, match="degree 0"):
        hopf.mc_of_map(m, s3, record("mc_element", lam))


def test_bottom_class_obstruction_is_caught():
    """tau(a) = H2_0 over the two-cell source fails the equation: the
    coproduct of b produces the self-bracket class with nothing to
    cancel it, so no such map exists and mc_of_map must refuse."""
    cp2 = cp2_coalgebra()
    m = sphere_model()
    tau = GradedMap(cp2.space, m.algebra.space, 0, {"a": {"H2_0": F(1)}})
    conv = ConvolutionAlgebra(cp2, m.algebra)
    assert dict(conv.mc_check(tau).entries) == {"b": {"H3_0": F(1)}}
    with pytest.raises(ValueError, match="Maurer-Cartan"):
        hopf.mc_of_map(m, cp2, record("mc_element", tau))


def test_coalgebra_morphism_validation():
    cp2 = cp2_coalgebra()
    with pytest.raises(ValueError):
        self_map(cp2, {"a": {"a": F(1)}})


# -- the one push against the five-stage composite --------------------------

def reference_push(model, C, f):
    """The element of the strict morphism f: C -> D that the five-stage
    composite gives: the loop model of the source C, the induced map of
    cobar constructions, the source's inclusion infinity-morphism
    postcomposed with it, a push of the source's canonical twisting
    morphism p o iota up that composite, and a push of the result down
    the projection of the target's model.  The middle element lives in
    the divided-power normalization, so the second push gates on the
    twisting residual.  Raises ValueError where the composite refuses f,
    its final literal Maurer-Cartan check included."""
    source = hopf.loop_homology(C, model.degree_max)
    induced = cobar_map(f, source.cobar, model.cobar)
    lifted = GradedMap(source.ambient.space, model.ambient.space, 0,
                       induced.entries)
    carried = postcompose_strict(lifted, source.transfer.inclusion_infinity(),
                                 model.ambient)
    theta = source.transfer.contraction.p.compose(source.cobar.inclusion())
    middle = push_mc(carried, C, theta)
    out = push_mc(model.projection, C, middle, residual="twisting")
    return PointRecord(model.hom(C), out).x


def cp(n):
    """CP^n with classes a1, ..., an and Delta(ak) = sum ai (x) a(k-i)."""
    sp = GradedSpace({2 * k: [f"a{k}"] for k in range(1, n + 1)},
                     name=f"CP{n}")
    delta = {f"a{k}": {(f"a{i}", f"a{k - i}"): F(1) for i in range(1, k)}
             for k in range(2, n + 1)}
    return CdgCoalgebra(sp, GradedMap.zero(sp, sp, -1), delta, name=f"CP{n}")


def cp_self_map(n, k):
    """The degree-k self-map ai -> k^i ai of CP^n."""
    return {f"a{i}": {f"a{i}": F(k ** i)} for i in range(1, n + 1) if k}


S2, S3, S4 = (sphere_coalgebra(n) for n in (2, 3, 4))
S2XS2, S2VS3 = s2xs2_coalgebra(), wedge_s2_s3_coalgebra()
CP = {n: cp(n) for n in (2, 3, 4)}

# (source, target, entries of the strict morphism of parameter k)
STRICT_MAPS = [
    *((CP[n], CP[n], lambda k, n=n: cp_self_map(n, k)) for n in (2, 3, 4)),
    (S2, CP[2], lambda k: {"a": {"a1": F(k)}}),
    (S2, CP[3], lambda k: {"a": {"a1": F(k)}}),
    (S2, S2XS2, lambda k: {"a": {"a": F(k), "b": F(1)}}),
    (S3, S2VS3, lambda k: {"a": {"b": F(k)}}),
    (S2XS2, S2XS2, lambda k: {"a": {"a": F(k)}, "b": {"b": F(1)},
                              "t": {"t": F(k)}}),
    (S2XS2, S2XS2, lambda k: {"a": {"b": F(k)}, "b": {"a": F(1)},
                              "t": {"t": F(k)}}),
    (S2XS2, CP[2], lambda k: {"a": {"a1": F(k)}, "b": {"a1": F(1)},
                              "t": {"a2": F(2 * k)}}),
    (CP[2], CP[3], lambda k: cp_self_map(2, k)),
    (S4, CP[2], lambda k: {}),
    (CP[3], S2, lambda k: {}),
]


def push(C, D, entries, window):
    f = GradedMap(C.space, D.space, 0, entries)
    return hopf.mc_of_map(hopf.loop_homology(D, window), C, record("map", f))


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(STRICT_MAPS),
       k=st.sampled_from([-3, -1, 0, 1, 2, 5]),
       margin=st.sampled_from([2, 3]))
def test_one_push_agrees_with_the_composite(case, k, margin):
    C, D, entries = case
    window = max(C.space.deg_max, D.space.deg_max) + margin
    model = hopf.loop_homology(D, window)
    f = GradedMap(C.space, D.space, 0, entries(k))
    try:
        expected = reference_push(model, C, f)
    except ValueError:
        return
    assert push(C, D, entries(k), window).x.equals(expected)


def test_cp4_self_maps_are_answered():
    # the composite's first push is cut at arity 3 and refuses every
    # self-map of CP4, whose coproduct reaches arity 4; the one push's
    # arity-4 term would land in degree 8 of the loop homology, which is
    # empty, so its answer passes the literal Maurer-Cartan check
    model = hopf.loop_homology(CP[4], 10)
    assert model.algebra.space.degrees() == [2, 9, 10]
    f2 = GradedMap(CP[4].space, CP[4].space, 0, cp_self_map(4, 2))
    with pytest.raises(ValueError, match="residual on \\['a4'\\]"):
        reference_push(model, CP[4], f2)
    x, y = (push(CP[4], CP[4], cp_self_map(4, k), 10) for k in (2, 3))
    assert dict(x.x.entries) == {"a1": {"H2_0": F(2)}}
    assert isinstance(hopf.maps_homotopic(x, y), Distinct)
    same = hopf.maps_homotopic(x, push(CP[4], CP[4], cp_self_map(4, 2), 10))
    assert isinstance(same, Equal) and same.verify()


def test_a_bar_source_is_answered_and_agrees_after_precomposition():
    # f: bar(pi_s2) -> CP3, x^m -> m! a_m and the words with y to zero:
    # the composite refuses it, the one push answers, and the answer
    # precomposed with j: S2 -> bar(pi_s2), a -> [x], is the composite's
    # element of f o j
    B, D = bar(pi_s2(), 7), CP[3]
    model = hopf.loop_homology(D, 8)
    f = GradedMap(B.space, D.space, 0, {("x",) * m: {f"a{m}": F(factorial(m))}
                                        for m in (1, 2, 3)})
    with pytest.raises(ValueError, match="Maurer-Cartan"):
        reference_push(model, B, f)
    x = hopf.mc_of_map(model, B, record("map", f))
    assert dict(x.x.entries) == {("x",): {"H2_0": F(1)}}
    j = GradedMap(S2.space, B.space, 0, {"a": {("x",): F(1)}})
    conv = model.hom(S2)
    along = PointRecord(conv, GradedMap(S2.space, model.algebra.space, 0,
                                        x.x.compose(j).entries))
    cert = gauge_equivalent(along, PointRecord(
        conv, reference_push(model, S2, f.compose(j))))
    assert isinstance(cert, Equal) and cert.verify()


def test_bar_self_maps_are_refused_by_both():
    # the identity of bar(pi_s2) passes the morphism check; both pipelines
    # refuse it, the one push at its final literal Maurer-Cartan check
    B = bar(pi_s2(), 7)
    model = hopf.loop_homology(B, 8)
    ident = GradedMap(B.space, B.space, 0,
                      {k: {k: F(1)} for k in B.space.all_keys()})
    with pytest.raises(ValueError, match="Maurer-Cartan"):
        reference_push(model, B, ident)
    with pytest.raises(NotMaurerCartan, match="not a Maurer-Cartan"):
        hopf.mc_of_map(model, B, record("map", ident))


# -- pi_n of the target through its loop homology -------------------------
#
# A map S^n -> Y is a class of pi_n(Y), the degree-n loop homology of Y.
# SphereHomotopyGroup is the reference for that reading: it checks that
# gauge classes over the sphere source are exactly the homology classes,
# with representative addition as the group law.

class SphereHomotopyGroup:
    """A homotopy group of the target through its loop homology model:
    the carrier line(s), representative addition as the group law, and
    gauge certificates equating gauge classes with homology classes."""

    def __init__(self, degree: int, model: hopf.LoopHomology):
        self.degree = degree
        self.conv = ConvolutionAlgebra(sphere_coalgebra(degree),
                                       model.algebra)
        self.basis = model.algebra.space.basis(degree)
        self.certificates = []
        self._certify()

    @property
    def dim(self) -> int:
        return len(self.basis)

    def zero(self) -> GradedMap:
        return self.conv.zero_map(0)

    def element(self, coeffs) -> GradedMap:
        """Representative map from a coefficient vector over the basis."""
        if isinstance(coeffs, dict):
            vec = {k: F(c) for k, c in coeffs.items() if c}
        else:
            vec = {k: F(c) for k, c in zip(self.basis, coeffs) if c}
        for k in vec:
            if k not in self.basis:
                raise ValueError(f"{k!r} is not a degree-{self.degree} class")
        return self.conv.to_map({("a", k): c for k, c in vec.items()},
                                degree=0)

    def add(self, x: GradedMap, y: GradedMap) -> GradedMap:
        """Group law: addition of representatives (the pinch map sends a
        sphere class to the sum of its two copies)."""
        return x + y

    def decide(self, x: GradedMap, y: GradedMap):
        return gauge_equivalent(PointRecord(self.conv, x),
                                PointRecord(self.conv, y))

    def _certify(self) -> None:
        """Every basis class is distinct from zero and from every other
        basis class with a verified witness, and a class equals itself
        with a path."""
        zero = self.zero()
        for k in self.basis:
            cert = self.decide(self.element({k: 1}), zero)
            if not isinstance(cert, Distinct) or not cert.verify():
                raise AssertionError(
                    f"class {k!r} should be gauge-distinct from zero")
            self.certificates.append(cert)
        for idx, k in enumerate(self.basis):
            for k2 in self.basis[idx + 1:]:
                cert = self.decide(self.element({k: 1}), self.element({k2: 1}))
                if not isinstance(cert, Distinct) or not cert.verify():
                    raise AssertionError(
                        f"classes {k!r} and {k2!r} should be gauge-distinct")
                self.certificates.append(cert)
        if self.basis:
            k = self.basis[0]
            same = self.decide(self.element({k: 1}), self.element({k: 1}))
            if not isinstance(same, Equal) or not same.verify():
                raise AssertionError("a class should equal itself with a path")
            self.certificates.append(same)


def sphere_pi_n(target, n: int, degree_max: int | None = None
                ) -> SphereHomotopyGroup:
    """Rational pi_n of the target as the degree-n loop homology.  The
    default window n + 2 keeps degree n inside exact_through."""
    if n < 2:
        raise ValueError("homotopy groups are computed for degrees >= 2")
    window = degree_max if degree_max is not None else n + 2
    if window - 1 < n:
        raise ValueError(f"window {window} cannot certify degree {n}")
    return SphereHomotopyGroup(n, hopf.loop_homology(target, window))


def test_sphere_homotopy_group_dimensions():
    s2, cp2 = sphere_coalgebra(2), cp2_coalgebra()
    assert sphere_pi_n(s2, 3).dim == 1
    assert sphere_pi_n(s2, 4).dim == 0
    assert sphere_pi_n(cp2, 2).dim == 1
    assert sphere_pi_n(cp2, 5).dim == 1
    assert sphere_pi_n(cp2, 5).basis == ("H5_0",)


def test_sphere_group_certificates():
    g = sphere_pi_n(sphere_coalgebra(2), 3)
    assert g.basis == ("H3_0",)
    assert len(g.certificates) == 2
    assert all(c.verify() for c in g.certificates)
    trivial = sphere_pi_n(sphere_coalgebra(2), 4)
    assert trivial.certificates == []
    cert = trivial.decide(trivial.zero(), trivial.zero())
    assert isinstance(cert, Equal) and cert.verify()


@settings(max_examples=20, deadline=None)
@given(j=st.integers(min_value=-3, max_value=3),
       k=st.integers(min_value=-3, max_value=3))
def test_sphere_group_law(j, k):
    g = sphere_pi_n(sphere_coalgebra(2), 3)
    x, y = g.element([j]), g.element([k])
    cert = g.decide(g.add(x, y), g.element([j + k]))
    assert isinstance(cert, Equal) and cert.verify()
    cert = g.decide(g.add(x, g.element([-j])), g.zero())
    assert isinstance(cert, Equal) and cert.verify()
    assert g.add(x, y).equals(g.add(y, x))


def test_sphere_group_input_checks():
    with pytest.raises(ValueError, match=">= 2"):
        sphere_pi_n(sphere_coalgebra(2), 1)
    with pytest.raises(ValueError, match="window"):
        sphere_pi_n(sphere_coalgebra(2), 5, degree_max=4)
    g = sphere_pi_n(sphere_coalgebra(2), 3)
    with pytest.raises(ValueError, match="class"):
        g.element({"H2_0": 1})
