"""Mapping space models: components and homotopy groups of components.

Reference values worked out by hand:

Hom(S2-homology, pi(S2)) has carrier lines in degrees 0 and 1, nothing
else.  Over the 3-sphere the equation is empty, so the components form
the affine line of multiples of the Whitehead square.  Over the two-cell
complex the single equation is lambda^2 = 0, so only the null class
survives.  The homotopy group table for Map(S^n, S2) at n in {2,3} and
k in {1,2} is (Q, 0; 0, 0): the sphere source has trivial coproduct, so
every twisted differential vanishes and the answer is the carrier line
count.

The strictified source (bar construction of the free Lie model of the
2-sphere, window 5) carries words in degrees 2..5 and its component
equation is the parabola c1 = 2 c0^2 over the bottom coefficient: the
word (a, a) bounds the bracket letter, which forces the value on the
bracket letter to track the square of the bottom value.  Sampling the
parabola reproduces the strict line sample by sample.
"""

from fractions import Fraction as F

import pytest

from convmc import mapping
from convmc.gauge import Distinct, Equal, gauge_flow
from convmc.graded import GradedMap, GradedSpace
from convmc.library import (cp2_coalgebra, pi_s2, quillen_s2,
                            sphere_coalgebra)
from convmc.models import LInfinityAlgebra


def zero_target():
    return LInfinityAlgebra(GradedSpace({}, name="0"), {}, name="0",
                            arities=[1])


def test_mapping_space_model_carrier():
    conv = mapping.mapping_space_model(sphere_coalgebra(2), pi_s2())
    dims = {d: len(conv.carrier.basis(d))
            for d in sorted(conv.carrier.degrees())}
    assert dims == {0: 1, 1: 1}
    assert conv.strictification is None


def test_mapping_space_model_rejects_bad_source():
    with pytest.raises(TypeError):
        mapping.mapping_space_model("S2", pi_s2())


def test_zero_target_gives_empty_carrier():
    conv = mapping.mapping_space_model(sphere_coalgebra(4), zero_target())
    assert conv.carrier.total_dim() == 0


def test_line_of_components_over_the_three_sphere():
    rep = mapping.components(sphere_coalgebra(3), pi_s2())
    assert rep.method == "affine"
    assert rep.exhaustive
    assert rep.free_parameters == ("c0",)
    assert rep.parametric == [{("a", "y"): "c0"}]
    ents = [dict(c.representative.entries) for c in rep.classes]
    assert ents == [{}, {"a": {"y": F(1)}}, {"a": {"y": F(2)}}]
    assert len(rep.pairwise) == 3
    for _, _, cert in rep.pairwise:
        assert isinstance(cert, Distinct) and cert.verify()


def test_obstruction_forces_the_null_component():
    rep = mapping.components(cp2_coalgebra(), pi_s2())
    assert rep.method == "polynomial"
    assert rep.exhaustive
    assert len(rep) == 1
    assert rep.classes[0].representative.is_zero()
    assert rep.classes[0].verify()


def test_zero_target_single_component():
    rep = mapping.components(sphere_coalgebra(4), zero_target())
    assert rep.method == "empty-hom"
    assert rep.exhaustive
    assert len(rep) == 1


def test_restricted_search_is_flagged():
    conv = mapping.mapping_space_model(quillen_s2(), pi_s2())
    bottom = (("a",), "x")
    rep = mapping.components(conv, pi_s2(), restrict_to=[bottom])
    assert not rep.exhaustive
    assert any("restricted" in note for note in rep.notes)
    assert len(rep) == 1 and rep.classes[0].representative.is_zero()

    empty = mapping.components(conv, pi_s2(), restrict_to=[])
    assert not empty.exhaustive and len(empty) == 1

    with pytest.raises(ValueError, match="degree-0"):
        mapping.components(conv, pi_s2(), restrict_to=[("a", "x")])


def test_repeated_pair_is_rejected():
    # a repeated pair would get two coefficients for one direction, and
    # the point built from a solution keeps only the last of them
    with pytest.raises(ValueError, match="repeated"):
        mapping.components(sphere_coalgebra(2), pi_s2(),
                           restrict_to=[("a", "x"), ("a", "x")])


def test_repeated_sample_is_rejected():
    # duplicate grid values would use up GRID_CAP on duplicate points
    with pytest.raises(ValueError, match="sample 0 is repeated"):
        mapping.components(sphere_coalgebra(3), pi_s2(), samples=(0, 0, 1))


def test_component_homotopy_group_table():
    s2, s3 = sphere_coalgebra(2), sphere_coalgebra(3)
    L = pi_s2()
    for lam in (0, 1):
        tau = GradedMap(s2.space, L.space, 0,
                        {"a": {"x": F(lam)}} if lam else {})
        assert mapping.pi_of_component(s2, L, tau, 1).total_dim() == 1
        assert mapping.pi_of_component(s2, L, tau, 2).total_dim() == 0
    zero = GradedMap(s3.space, L.space, 0, {})
    assert mapping.pi_of_component(s3, L, zero, 1).total_dim() == 0
    assert mapping.pi_of_component(s3, L, zero, 2).total_dim() == 0


def test_two_cell_component_matches_brute_force():
    cp2 = cp2_coalgebra()
    zero = GradedMap(cp2.space, pi_s2().space, 0, {})
    pi1 = mapping.pi_of_component(cp2, pi_s2(), zero, 1)
    conv = mapping.mapping_space_model(cp2, pi_s2())
    assert pi1.total_dim() == len(conv.carrier.basis(1)) == 1


def test_pi_of_component_input_checks():
    cp2 = cp2_coalgebra()
    zero = GradedMap(cp2.space, pi_s2().space, 0, {})
    with pytest.raises(ValueError, match="n = 1"):
        mapping.pi_of_component(cp2, pi_s2(), zero, 0)
    bad = GradedMap(cp2.space, pi_s2().space, 0, {"a": {"x": F(1)}})
    with pytest.raises(ValueError, match="non-MC"):
        mapping.pi_of_component(cp2, pi_s2(), bad, 1)


def test_pi_dimensions_are_gauge_invariant():
    cp2 = cp2_coalgebra()
    conv = mapping.mapping_space_model(cp2, pi_s2())
    zero = conv.zero_map(0)
    lam = conv.elementary("a", "y")
    assert lam.degree == 1
    path = gauge_flow(conv, zero, lam)
    assert path.path_check().is_zero()
    moved = path.endpoint(1)
    for n in (1, 2):
        d0 = mapping.pi_of_component(conv, pi_s2(), zero, n).total_dim()
        d1 = mapping.pi_of_component(conv, pi_s2(), moved, n).total_dim()
        assert d0 == d1


def test_strictified_source_matches_the_strict_model():
    qconv = mapping.mapping_space_model(quillen_s2(), pi_s2())
    assert qconv.strictification is not None
    assert qconv.strictification.degree_max == 5
    dims = {d: len(qconv.carrier.basis(d))
            for d in sorted(qconv.carrier.degrees())}
    assert dims == {-3: 1, -2: 2, -1: 2, 0: 2, 1: 1}

    qrep = mapping.components(qconv, pi_s2())
    assert qrep.exhaustive
    assert qrep.free_parameters == ("c0",)
    word = (("br", "a", "a"),)
    assert qrep.parametric == [{(("a",), "x"): "c0", (word, "y"): "2*c0**2"}]
    for _, _, cert in qrep.pairwise:
        assert isinstance(cert, Distinct) and cert.verify()

    srep = mapping.components(sphere_coalgebra(2), pi_s2())
    assert srep.exhaustive and srep.free_parameters == ("c0",)
    assert len(qrep) == len(srep) == 3
    for qc, sc in zip(qrep.classes, srep.classes):
        for n in (1, 2):
            qd = mapping.pi_of_component(qconv, pi_s2(),
                                         qc.representative, n).total_dim()
            sd = mapping.pi_of_component(sphere_coalgebra(2), pi_s2(),
                                         sc.representative, n).total_dim()
            assert qd == sd
