"""Gauge paths, exact flows, normal forms, and the equivalence decision.

Frozen flow values were derived by hand from the flow equation
dx/dt = l_1(lam) + sum 1/n! l_{n+1}(lam, x, ..., x): on a source whose
coproduct has depth three the top column picks up a genuinely quadratic
polynomial, and the acyclic-tail target below exercises the interaction
of l_1 with the bracket coupling.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from convmc import gauge
from convmc.convolution import ConvolutionAlgebra
from convmc.gauge import (Distinct, Equal, GaugePath,
                          constant_path, default_poly_bound, gauge_flow,
                          gauge_equivalent, moduli_normal_form)
from convmc.graded import GradedSpace
from convmc.library import (BUILTIN_COALGEBRAS, BUILTIN_TARGETS,
                            abelian_pair_with_d, abelian_two,
                            cp2_coalgebra, pi_s2, sphere_coalgebra,
                            wedge_s2_s3_coalgebra)
from convmc.matrices import Echelon, Span
from convmc.models import LInfinityAlgebra
from test_models import cp3_coalgebra

fractions = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def acyclic_pair_target():
    """x2, y3, u4, w4, v5 with l1(u) = y, l1(v) = w, l2(x, x) = y,
    l2(x, y) = w, l2(x, u) = -v, l3(x, x, x) = -3v.  The signs are the
    unique consistent choice once v is normalized by l1(v) = +w; the
    generic Jacobi validator pins them."""
    sp = GradedSpace({2: ["x"], 3: ["y"], 4: ["u", "w"], 5: ["v"]},
                     name="Lpair")
    br = {1: {("u",): {"y": F(1)}, ("v",): {"w": F(1)}},
          2: {("x", "x"): {"y": F(1)}, ("x", "y"): {"w": F(1)},
              ("x", "u"): {"v": F(-1)}},
          3: {("x", "x", "x"): {"v": F(-3)}}}
    return LInfinityAlgebra(sp, br, name="Lpair", arities=[1, 2, 3])


def two_step_target():
    """x2, y3, u4, n6 with l2(x, y) = u and l2(y, u) = n: no l1 at all,
    so flows out of a depth-three source stack two bracket steps and the
    top column becomes quadratic in t."""
    sp = GradedSpace({2: ["x"], 3: ["y"], 4: ["u"], 6: ["n"]}, name="T2")
    return LInfinityAlgebra(sp, {2: {("x", "y"): {"u": F(1)},
                                     ("y", "u"): {"n": F(1)}}},
                            name="T2", arities=[1, 2])


def pair_mc(conv, alpha, gamma):
    """The Maurer-Cartan family (a -> alpha x, b -> -alpha^2 u + gamma w)
    on maps from the two-cone source into acyclic_pair_target."""
    v = {}
    if alpha:
        v[("a", "x")] = F(alpha)
        v[("b", "u")] = -F(alpha) ** 2
    if gamma:
        v[("b", "w")] = F(gamma)
    return conv.to_map(v, degree=0)


def two_step_mc(conv, alpha, beta, gamma):
    """(a -> alpha x, b -> beta u, c -> gamma n) on maps from CP3 into
    two_step_target: every such map is Maurer-Cartan, since no bracket of
    the target takes two of x, u, n."""
    return conv.to_map({k: F(c) for k, c in
                        ((("a", "x"), alpha), (("b", "u"), beta),
                         (("c", "n"), gamma)) if c}, degree=0)


def test_probe_targets_validate():
    acyclic_pair_target().validate()
    two_step_target().validate()


def test_pair_family_is_mc_exactly_when_u_matches_alpha_squared():
    conv = ConvolutionAlgebra(cp2_coalgebra(), acyclic_pair_target())
    for alpha, gamma in [(0, 0), (1, 0), (2, 3), (-1, F(1, 2))]:
        assert conv.mc_check(pair_mc(conv, alpha, gamma)).is_zero()
    bad = conv.to_map({("a", "x"): F(1), ("b", "u"): F(1)}, degree=0)
    assert conv.mc_check(bad).entries == {"b": {"y": F(2)}}


# -- paths ---------------------------------------------------------------

class TestGaugePath:
    def test_constant_path_of_mc_element_is_flat(self):
        conv = ConvolutionAlgebra(cp2_coalgebra(), pi_s2())
        path = constant_path(conv, conv.zero_map(0))
        assert path.path_check().is_zero()
        assert path.endpoint(0).is_zero()
        assert path.endpoint(1).is_zero()

    def test_constant_path_of_non_mc_element_fails_path_check(self):
        conv = ConvolutionAlgebra(cp2_coalgebra(), pi_s2())
        path = constant_path(conv, conv.elementary("a", "x"))
        res = path.path_check()
        assert not res.is_zero()
        assert res.entries["b"] == {(("p", 0), "y"): F(1)}

    def test_polynomial_part_without_dt_part_fails_path_check(self):
        conv = ConvolutionAlgebra(cp2_coalgebra(), abelian_pair_with_d())
        drift = GaugePath(conv, 2, {0: conv.zero_map(0),
                                    1: conv.elementary("a", "u")}, {})
        res = drift.path_check()
        assert res.entries == {"a": {(("q", 0), "u"): F(1)}}

    def test_part_degree_guards(self):
        conv = ConvolutionAlgebra(cp2_coalgebra(), abelian_pair_with_d())
        with pytest.raises(ValueError, match="degree 0"):
            GaugePath(conv, 2, {0: conv.elementary("a", "v")}, {})
        with pytest.raises(ValueError, match="degree 1"):
            GaugePath(conv, 2, {}, {0: conv.elementary("a", "u")})
        with pytest.raises(ValueError, match="exceeds bound"):
            GaugePath(conv, 1, {2: conv.zero_map(0) +
                                conv.elementary("a", "u")}, {})

    def test_direction_reads_off_the_dt_part(self):
        conv = ConvolutionAlgebra(cp2_coalgebra(), abelian_pair_with_d())
        lam = conv.elementary("a", "v")
        path = gauge_flow(conv, conv.zero_map(0), lam, poly_bound=3)
        # a constant direction: the dt part is lam dt, with no t^k dt
        assert list(path.q_parts) == [0]
        assert path.q_parts[0].equals(lam)


# -- flows ---------------------------------------------------------------

class TestGaugeFlow:
    def test_abelian_flow_is_linear_with_exact_endpoints(self):
        conv = ConvolutionAlgebra(cp2_coalgebra(), abelian_pair_with_d())
        path = gauge_flow(conv, conv.zero_map(0),
                          conv.elementary("a", "v"), poly_bound=3)
        assert path.path_check().is_zero()
        assert path.endpoint(0).is_zero()
        assert path.endpoint(1).equals(conv.elementary("a", "u"))
        third = path.endpoint(F(1, 3))
        assert third.entries == {"a": {"u": F(1, 3)}}

    def test_zero_direction_gives_the_constant_path(self):
        conv = ConvolutionAlgebra(cp2_coalgebra(), pi_s2())
        path = gauge_flow(conv, conv.zero_map(0), conv.zero_map(1))
        assert sorted(path.p_parts) in ([], [0])
        assert path.endpoint(1).is_zero()
        assert not path.q_parts

    def test_flow_rejects_non_mc_starts_and_bad_direction_degrees(self):
        conv = ConvolutionAlgebra(cp2_coalgebra(), pi_s2())
        with pytest.raises(ValueError, match="cannot flow"):
            gauge_flow(conv, conv.elementary("a", "x"),
                       conv.zero_map(1))
        with pytest.raises(ValueError, match="degree 1"):
            gauge_flow(conv, conv.zero_map(0), conv.zero_map(0))

    def test_quadratic_flow_on_depth_three_source(self):
        conv = ConvolutionAlgebra(cp3_coalgebra(), two_step_target())
        tau = conv.elementary("a", "x")
        path = gauge_flow(conv, tau, conv.elementary("a", "y"),
                          poly_bound=4)
        assert path.path_check().is_zero()
        assert sorted(path.p_parts) == [0, 1, 2]
        assert path.endpoint(1).entries == {"a": {"x": F(1)},
                                            "b": {"u": F(2)},
                                            "c": {"n": F(2)}}
        assert path.endpoint(F(1, 2)).entries == {"a": {"x": F(1)},
                                                  "b": {"u": F(1)},
                                                  "c": {"n": F(1, 2)}}
        assert conv.mc_check(path.endpoint(F(1, 4))).is_zero()

    def test_quadratic_flow_reverses_exactly(self):
        conv = ConvolutionAlgebra(cp3_coalgebra(), two_step_target())
        path = gauge_flow(conv, conv.elementary("a", "x"),
                          conv.elementary("a", "y"), poly_bound=4)
        rev = path.reversed()
        assert rev.path_check().is_zero()
        assert rev.endpoint(0).equals(path.endpoint(1))
        assert rev.endpoint(1).equals(path.endpoint(0))
        assert rev.endpoint(F(3, 4)).equals(path.endpoint(F(1, 4)))

    def test_too_small_bound_reports_the_needed_degree(self):
        conv = ConvolutionAlgebra(cp3_coalgebra(), two_step_target())
        with pytest.raises(ValueError, match="polynomial degree 2"):
            gauge_flow(conv, conv.elementary("a", "x"),
                       conv.elementary("a", "y"), poly_bound=1)

    def test_bracket_and_l1_coupling_flow(self):
        conv = ConvolutionAlgebra(cp2_coalgebra(), acyclic_pair_target())
        x = pair_mc(conv, 2, 3)
        lam = (conv.elementary("a", "y").scale(F(1, 2)) +
               conv.elementary("b", "v"))
        path = gauge_flow(conv, x, lam, poly_bound=4)
        assert path.path_check().is_zero()
        assert path.endpoint(1).entries == {"a": {"x": F(2)},
                                            "b": {"u": F(-4), "w": F(6)}}
        assert conv.mc_check(path.endpoint(1)).is_zero()

    @settings(max_examples=20, deadline=None)
    @given(alpha=fractions, gamma=fractions, p=fractions, q=fractions)
    def test_random_pair_flows_stay_mc_and_keep_the_normal_form(
            self, alpha, gamma, p, q):
        conv = ConvolutionAlgebra(cp2_coalgebra(), acyclic_pair_target())
        x = pair_mc(conv, alpha, gamma)
        lam = (conv.elementary("a", "y").scale(p) +
               conv.elementary("b", "v").scale(q))
        path = gauge_flow(conv, x, lam, poly_bound=4)
        assert path.path_check().is_zero()
        end = path.endpoint(1)
        assert conv.mc_check(end).is_zero()
        nf_x = moduli_normal_form(conv, x)
        nf_e = moduli_normal_form(conv, end)
        assert nf_x.representative.equals(nf_e.representative)

    def test_vector_field_matches_the_abelian_flow_rate(self):
        conv = ConvolutionAlgebra(cp2_coalgebra(), abelian_pair_with_d())
        lam = conv.elementary("a", "v").scale(F(5, 7))
        # the gauge vector field at x is the twisted differential d^x
        rate = conv.twisted_differential(conv.zero_map(0), lam)
        path = gauge_flow(conv, conv.zero_map(0), lam)
        assert (path.endpoint(1) - path.endpoint(0)).equals(rate)


# -- the decision --------------------------------------------------------

class TestGaugeEquivalent:
    def test_equal_elements_give_a_constant_path(self):
        conv = ConvolutionAlgebra(sphere_coalgebra(3), pi_s2())
        x = conv.elementary("a", "y").scale(F(7, 3))
        cert = gauge_equivalent(conv, x, x)
        assert cert.outcome == "equal"
        assert len(cert.paths) == 1
        assert cert.verify()

    def test_distinct_whitehead_multiples_with_homology_witness(self):
        conv = ConvolutionAlgebra(sphere_coalgebra(3), pi_s2())
        x = conv.elementary("a", "y")
        cert = gauge_equivalent(conv, x, x.scale(F(2)))
        assert cert.outcome == "distinct"
        assert cert.kind == "homology-class"
        assert cert.witness == {}
        assert cert.verify()

    def test_abelian_pairs_decide_completely(self):
        conv = ConvolutionAlgebra(sphere_coalgebra(2),
                                  abelian_pair_with_d())
        x = conv.elementary("a", "u").scale(F(3))
        y = conv.elementary("a", "u").scale(F(-2))
        cert = gauge_equivalent(conv, x, y)
        assert cert.outcome == "equal"
        assert cert.verify()
        assert len(cert.paths) == 1
        assert cert.paths[0].q_parts[0].entries == {"a": {"v": F(-5)}}

    def test_distinct_classes_in_a_bracketless_target(self):
        conv = ConvolutionAlgebra(sphere_coalgebra(2), abelian_two())
        x = conv.elementary("a", "u")
        cert = gauge_equivalent(conv, x, x.scale(F(4)))
        assert cert.outcome == "distinct"
        assert cert.kind == "homology-class"
        assert cert.verify()

    def test_bottom_stage_rigidity_separates_the_pair_family(self):
        conv = ConvolutionAlgebra(cp2_coalgebra(), acyclic_pair_target())
        cert = gauge_equivalent(conv, pair_mc(conv, 1, 0),
                                pair_mc(conv, 2, 0))
        assert cert.outcome == "distinct"
        assert cert.kind == "rigid-stage"
        assert cert.witness == {"degree": 2}
        assert cert.verify()

    def test_top_stage_moves_connect_the_pair_family(self):
        conv = ConvolutionAlgebra(cp2_coalgebra(), acyclic_pair_target())
        cert = gauge_equivalent(conv, pair_mc(conv, 2, 3),
                                pair_mc(conv, 2, -5))
        assert cert.outcome == "equal"
        assert len(cert.paths) == 2
        assert cert.verify()

    def test_frozen_beta_is_certified_by_the_rigidity_sweep(self):
        conv = ConvolutionAlgebra(cp3_coalgebra(), two_step_target())
        t1 = conv.elementary("b", "u")
        cert = gauge_equivalent(conv, t1, t1.scale(F(2)))
        assert cert.outcome == "distinct"
        assert cert.kind == "rigid-stage"
        assert cert.witness == {"degree": 4}
        assert cert.verify()

    def test_unknown_is_honest_on_a_reachable_pair(self):
        conv = ConvolutionAlgebra(cp3_coalgebra(), two_step_target())
        tau = conv.elementary("a", "x")
        path = gauge_flow(conv, tau, conv.elementary("a", "y"),
                          poly_bound=4)
        end = path.endpoint(1)
        cert = gauge_equivalent(conv, tau, end)
        assert cert.outcome == "unknown"
        assert "no separating invariant" in cert.reason
        assert Equal(conv, tau, end, (path,)).verify()

    def test_non_mc_inputs_are_rejected(self):
        conv = ConvolutionAlgebra(cp2_coalgebra(), pi_s2())
        good = conv.zero_map(0)
        bad = conv.elementary("a", "x")
        with pytest.raises(ValueError, match="first element"):
            gauge_equivalent(conv, bad, good)
        with pytest.raises(ValueError, match="second element"):
            gauge_equivalent(conv, good, bad)

    def test_certificate_verify_rejects_a_tampered_chain(self):
        conv = ConvolutionAlgebra(sphere_coalgebra(2),
                                  abelian_pair_with_d())
        x = conv.elementary("a", "u")
        cert = gauge_equivalent(conv, x, x.scale(F(2)))
        assert cert.verify()
        forged = Equal(conv, x, x.scale(F(3)), cert.paths)
        assert not forged.verify()


# -- moduli normal forms -------------------------------------------------

class TestModuliNormalForm:
    def test_zero_is_its_own_normal_form(self):
        conv = ConvolutionAlgebra(cp2_coalgebra(), pi_s2())
        nf = moduli_normal_form(conv, conv.zero_map(0))
        assert nf.representative.is_zero()
        assert nf.paths == ()
        assert nf.verify()

    def test_sphere_sources_are_rigid(self):
        conv = ConvolutionAlgebra(sphere_coalgebra(3), pi_s2())
        x = conv.elementary("a", "y").scale(F(7, 3))
        nf = moduli_normal_form(conv, x)
        assert nf.representative.equals(x)
        assert nf.paths == ()

    def test_pair_family_reduces_to_the_u_slice(self):
        conv = ConvolutionAlgebra(cp2_coalgebra(), acyclic_pair_target())
        nf = moduli_normal_form(conv, pair_mc(conv, 2, 3))
        assert nf.representative.equals(pair_mc(conv, 2, 0))
        assert len(nf.paths) == 1
        assert nf.verify()

    def test_normal_form_is_idempotent(self):
        conv = ConvolutionAlgebra(cp2_coalgebra(), acyclic_pair_target())
        nf = moduli_normal_form(conv, pair_mc(conv, -3, F(5, 2)))
        again = moduli_normal_form(conv, nf.representative)
        assert again.representative.equals(nf.representative)
        assert again.paths == ()

    def test_normal_form_rejects_non_mc_input(self):
        conv = ConvolutionAlgebra(cp2_coalgebra(), pi_s2())
        with pytest.raises(ValueError, match="non-MC"):
            moduli_normal_form(conv, conv.elementary("a", "x"))

    def test_abelian_normal_form_matches_plain_linear_algebra(self):
        conv = ConvolutionAlgebra(wedge_s2_s3_coalgebra(),
                                  abelian_pair_with_d())
        x = conv.elementary("a", "u").scale(F(9, 4))
        nf = moduli_normal_form(conv, x)
        assert nf.representative.is_zero()
        assert nf.verify()


def test_flow_endpoints_keep_normal_forms_across_builtin_pairs():
    import random
    for cname in sorted(BUILTIN_COALGEBRAS):
        for lname in sorted(BUILTIN_TARGETS):
            conv = ConvolutionAlgebra(BUILTIN_COALGEBRAS[cname](),
                                      BUILTIN_TARGETS[lname]())
            rng = random.Random(f"{cname}:{lname}")
            lam = conv.zero_map(1)
            for key in sorted(conv.carrier.all_keys(),
                              key=conv.carrier.sort_key):
                if conv.carrier.degree_of[key] == 1:
                    lam = lam + conv.elementary(*key).scale(
                        F(rng.randint(-4, 4), rng.randint(1, 3)))
            path = gauge_flow(conv, conv.zero_map(0), lam)
            assert path.path_check().is_zero()
            end = path.endpoint(1)
            assert conv.mc_check(end).is_zero()
            nf0 = moduli_normal_form(conv, conv.zero_map(0))
            nfe = moduli_normal_form(conv, end)
            assert nf0.representative.equals(nfe.representative)
            cert = gauge_equivalent(conv, conv.zero_map(0), end)
            assert cert.outcome == "equal"
            assert cert.verify()


def test_default_poly_bound_grows_with_the_source():
    assert default_poly_bound(
        ConvolutionAlgebra(cp2_coalgebra(), pi_s2())) == 4
    assert default_poly_bound(
        ConvolutionAlgebra(cp3_coalgebra(), pi_s2())) == 5


# -- properties of flows and of the per-point memo -----------------------

small = st.integers(min_value=-2, max_value=2)


@st.composite
def probe_point(draw):
    """A Maurer-Cartan element of one of the two probe algebras, named by
    its family and coefficients."""
    if draw(st.booleans()):
        return "pair", (draw(small), draw(small))
    return "two_step", (draw(small), draw(small), draw(small))


def probe_algebra(family):
    if family == "pair":
        return ConvolutionAlgebra(cp2_coalgebra(), acyclic_pair_target())
    return ConvolutionAlgebra(cp3_coalgebra(), two_step_target())


def probe_mc(conv, family, coeffs):
    return (pair_mc if family == "pair" else two_step_mc)(conv, *coeffs)


def signature(cert):
    """Outcome, kind, witness or reason, and every path's endpoints."""
    ends = [tuple(sorted(cert.conv.to_vec(path.endpoint(t)).items())
                  for t in (0, 1))
            for path in getattr(cert, "paths", ())]
    return (cert.outcome, getattr(cert, "kind", None),
            getattr(cert, "witness", None), getattr(cert, "reason", None),
            ends)


@settings(max_examples=25, deadline=None)
@given(point=probe_point(), data=st.data())
def test_mc_residual_stays_zero_along_gauge_flows(point, data):
    family, coeffs = point
    conv = probe_algebra(family)
    x = probe_mc(conv, family, coeffs)
    lam = conv.zero_map(1)
    for key in sorted(conv.carrier.basis(1), key=conv.carrier.sort_key):
        lam = lam + conv.elementary(*key).scale(data.draw(fractions))
    path = gauge_flow(conv, x, lam)
    assert path.path_check().is_zero()
    assert path.endpoint(0).equals(x)
    for t in (0, F(1, 3), 1):
        assert conv.mc_check(path.endpoint(t)).is_zero()


@settings(max_examples=25, deadline=None)
@given(family=st.sampled_from(["pair", "two_step"]), data=st.data())
def test_shared_algebra_decides_like_fresh_ones(family, data):
    dim = 2 if family == "pair" else 3
    coords = st.tuples(*[st.integers(min_value=0, max_value=2)] * dim)
    points = data.draw(st.lists(coords, min_size=2, max_size=5,
                                unique=True))
    index = st.integers(min_value=0, max_value=len(points) - 1)
    pairs = data.draw(st.lists(st.tuples(index, index), min_size=1,
                               max_size=6))
    # the first pair again, and swapped
    pairs += [pairs[0], pairs[0][::-1]]
    shared = probe_algebra(family)
    for i, j in pairs:
        got = gauge_equivalent(shared, probe_mc(shared, family, points[i]),
                               probe_mc(shared, family, points[j]))
        fresh = probe_algebra(family)
        want = gauge_equivalent(fresh, probe_mc(fresh, family, points[i]),
                                probe_mc(fresh, family, points[j]))
        assert signature(got) == signature(want)
    assert len(shared.point_memo) <= len(points)


def test_point_memo_evicts_the_oldest_point_past_its_cap(monkeypatch):
    monkeypatch.setattr(gauge, "_POINTS_CAP", 2)
    conv = probe_algebra("pair")
    p = [pair_mc(conv, a, g) for a, g in [(2, 3), (2, -5), (1, 0), (0, 1)]]
    first = gauge_equivalent(conv, p[0], p[1])
    assert first.outcome == "equal"
    assert gauge_equivalent(conv, p[2], p[3]).outcome == "distinct"
    assert set(conv.point_memo) == {gauge._point_key(conv, p[2]),
                                    gauge._point_key(conv, p[3])}
    again = gauge_equivalent(conv, p[0], p[1])
    assert signature(again) == signature(first)
    assert again.verify()
    assert set(conv.point_memo) == {gauge._point_key(conv, p[0]),
                                    gauge._point_key(conv, p[1])}


def no_moves(conv):
    """A forged sweep table: every column, and no direction moves any."""
    return [(p, basis, Echelon()) for p, basis in gauge._columns(conv)]


def test_verify_recomputes_what_the_decision_memoises():
    conv = probe_algebra("pair")
    x, y, z = pair_mc(conv, 2, 3), pair_mc(conv, 2, -5), pair_mc(conv, 1, 0)
    equal = gauge_equivalent(conv, x, y)
    rigid = gauge_equivalent(conv, x, z)
    assert (equal.outcome, rigid.kind) == ("equal", "rigid-stage")
    entry = conv.point_memo[gauge._point_key(conv, x)]
    # no direction moves x any more, as far as the memo knows
    entry["sweep"] = no_moves(conv)
    forged = gauge_equivalent(conv, x, y)
    assert (forged.kind, forged.witness) == ("rigid-stage", {"degree": 4})
    assert not forged.verify()
    assert equal.verify()
    assert rigid.verify()

    conv = probe_algebra("two_step")
    x, y = two_step_mc(conv, 0, 0, 0), two_step_mc(conv, 0, 1, 0)
    bx, by = gauge._twisted_betti(conv, x), gauge._twisted_betti(conv, y)
    assert bx != by
    betti = Distinct(conv, x, y, "twisted-betti",
                     {"betti_x": bx, "betti_y": by})
    assert gauge_equivalent(conv, x, y).kind == "rigid-stage"
    entry = conv.point_memo[gauge._point_key(conv, x)]
    entry["sweep"] = no_moves(conv)
    entry["betti"] = {0: 99}
    assert betti.verify()
    assert not Distinct(conv, x, y, "twisted-betti",
                        {"betti_x": {0: 99}, "betti_y": by}).verify()


def test_damaged_algebra_memo_cannot_verify_a_wrong_answer():
    # what the decision keeps per algebra, damaged: a stage whose
    # combinations overshoot fails the stage-flow assertion, and a sweep
    # that skips a column or a span that reaches nothing gives a
    # certificate that verify() rejects, because verify() builds both
    # again
    conv = probe_algebra("pair")
    x, y, z = pair_mc(conv, 2, 3), pair_mc(conv, 2, -5), pair_mc(conv, 1, 0)
    assert gauge_equivalent(conv, x, y).outcome == "equal"
    assert gauge_equivalent(conv, x, z).witness == {"degree": 2}
    stages = conv.algebra_memo["_stages"]

    damaged = probe_algebra("pair")
    damaged.algebra_memo["_stages"] = [
        (p, basis, ([{k: 2 * c for k, c in combo.items()}
                     for combo in combos], coset, span))
        for p, basis, (combos, coset, span) in stages]
    with pytest.raises(AssertionError, match="missed its predicted column"):
        gauge_equivalent(damaged, x, y)

    damaged = probe_algebra("pair")
    damaged.algebra_memo["_columns"] = gauge._columns(damaged)[1:]
    forged = gauge_equivalent(damaged, x, z)
    assert (forged.kind, forged.witness) == ("rigid-stage", {"degree": 4})
    assert not forged.verify()

    conv = ConvolutionAlgebra(wedge_s2_s3_coalgebra(), acyclic_pair_target())
    assert conv.arity_window() == 1
    x, y = conv.zero_map(0), conv.elementary("b", "y")
    assert gauge_equivalent(conv, x, y).outcome == "equal"
    combos, coset, _ = conv.algebra_memo["_abelian_stage"]
    conv.algebra_memo["_abelian_stage"] = (combos, coset, Span([]))
    forged = gauge_equivalent(conv, x, y)
    assert forged.kind == "homology-class"
    assert not forged.verify()
