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

import itertools
from collections import Counter
from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import example, given, settings, strategies as st

from convmc import mapping
from convmc.barcobar import BarCoalgebra, cobar
from convmc.convolution import ConvolutionAlgebra
from convmc.gauge import Distinct, NotMaurerCartan, PointRecord, gauge_flow
from convmc.graded import GradedSpace, add_term
from convmc.library import (BUILTIN_COALGEBRAS, BUILTIN_TARGETS,
                            builtin_model, cp2_coalgebra, pi_s2,
                            sphere_coalgebra, wedge_s2_s3_coalgebra)
from convmc.models import LInfinityAlgebra, TruncatedPolynomials
from convmc.transfer import transfer_linfty
from test_convolution import ORACLE_PAIRS, bar_source
from test_gauge import acyclic_pair_target
from test_models import cp3_coalgebra, quillen_s2


def zero_target():
    return LInfinityAlgebra(GradedSpace({}, name="0"), {}, name="0",
                            arities=[1])


def pi(conv, tau, n):
    """pi_n of the component of the point tau of conv, through its record."""
    return mapping.pi_of_component(PointRecord(conv, tau), n)


def mapping_space_model(source, L, degree_max=None):
    """Hom(C, L) over the coalgebra that stands for source, as the
    components command builds it."""
    return ConvolutionAlgebra(mapping.strict_source(source, degree_max), L)


def test_mapping_space_model_carrier():
    s2 = sphere_coalgebra(2)
    conv = mapping_space_model(s2, pi_s2())
    dims = {d: len(conv.carrier.basis(d))
            for d in sorted(conv.carrier.degrees())}
    assert dims == {0: 1, 1: 1}
    assert conv.C is s2


def test_mapping_space_model_rejects_bad_source():
    with pytest.raises(TypeError):
        mapping_space_model("S2", pi_s2())


def test_zero_target_gives_empty_carrier():
    conv = mapping_space_model(sphere_coalgebra(4), zero_target())
    assert conv.carrier.total_dim() == 0


def test_line_of_components_over_the_three_sphere():
    rep = mapping.components(
        mapping_space_model(sphere_coalgebra(3), pi_s2()))
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
    rep = mapping.components(
        mapping_space_model(cp2_coalgebra(), pi_s2()))
    assert rep.method == "polynomial"
    assert rep.exhaustive
    assert len(rep) == 1
    assert rep.classes[0].representative.is_zero()
    assert rep.classes[0].verify()


def test_zero_target_single_component():
    rep = mapping.components(
        mapping_space_model(sphere_coalgebra(4), zero_target()))
    assert rep.method == "empty-hom"
    assert rep.exhaustive
    assert len(rep) == 1


def test_restricted_search_is_flagged():
    conv = mapping_space_model(quillen_s2(), pi_s2())
    bottom = (("a",), "x")
    rep = mapping.components(conv, restrict_to=[bottom])
    assert not rep.exhaustive
    assert any("restricted" in note for note in rep.notes)
    assert len(rep) == 1 and rep.classes[0].representative.is_zero()

    empty = mapping.components(conv, restrict_to=[])
    assert not empty.exhaustive and len(empty) == 1

    with pytest.raises(ValueError, match="degree-0"):
        mapping.components(conv, restrict_to=[("a", "x")])


def test_repeated_pair_is_rejected():
    # a repeated pair would get two coefficients for one direction, and
    # the point built from a solution keeps only the last of them
    with pytest.raises(ValueError, match="repeated"):
        mapping.components(ConvolutionAlgebra(sphere_coalgebra(2), pi_s2()),
                           restrict_to=[("a", "x"), ("a", "x")])


def test_repeated_sample_is_rejected():
    # duplicate grid values would use up GRID_CAP on duplicate points
    with pytest.raises(ValueError, match="sample 0 is repeated"):
        mapping.components(ConvolutionAlgebra(sphere_coalgebra(3), pi_s2()),
                           samples=(0, 0, 1))


def test_component_homotopy_group_table():
    L = pi_s2()
    s2 = ConvolutionAlgebra(sphere_coalgebra(2), L)
    s3 = ConvolutionAlgebra(sphere_coalgebra(3), L)
    for lam in (0, 1):
        tau = s2.elementary("a", "x").scale(F(lam))
        assert len(pi(s2, tau, 1)) == 1
        assert len(pi(s2, tau, 2)) == 0
    zero = s3.zero_map(0)
    assert len(pi(s3, zero, 1)) == 0
    assert len(pi(s3, zero, 2)) == 0


def test_two_cell_component_matches_brute_force():
    conv = mapping_space_model(cp2_coalgebra(), pi_s2())
    pi1 = pi(conv, conv.zero_map(0), 1)
    assert len(pi1) == len(conv.carrier.basis(1)) == 1


def test_pi_of_component_input_checks():
    conv = ConvolutionAlgebra(cp2_coalgebra(), pi_s2())
    with pytest.raises(ValueError, match="n = 1"):
        pi(conv, conv.zero_map(0), 0)
    bad = conv.elementary("a", "x")
    with pytest.raises(NotMaurerCartan):
        pi(conv, bad, 1)


def test_pi_dimensions_are_gauge_invariant():
    cp2 = cp2_coalgebra()
    conv = mapping_space_model(cp2, pi_s2())
    zero = conv.zero_map(0)
    lam = conv.elementary("a", "y")
    assert lam.degree == 1
    path = gauge_flow(conv, zero, lam)
    assert path.path_check().is_zero()
    moved = path.endpoint(1)
    for n in (1, 2):
        d0 = len(pi(conv, zero, n))
        d1 = len(pi(conv, moved, n))
        assert d0 == d1


def test_strictified_source_matches_the_strict_model():
    qconv = mapping_space_model(quillen_s2(), pi_s2())
    assert isinstance(qconv.C, BarCoalgebra)
    assert (qconv.C.degree_max, qconv.C.exact_through) == (5, 4)
    dims = {d: len(qconv.carrier.basis(d))
            for d in sorted(qconv.carrier.degrees())}
    assert dims == {-3: 1, -2: 2, -1: 2, 0: 2, 1: 1}

    qrep = mapping.components(qconv)
    assert qrep.exhaustive
    assert qrep.free_parameters == ("c0",)
    word = (("br", "a", "a"),)
    assert qrep.parametric == [{(("a",), "x"): "c0", (word, "y"): "2*c0**2"}]
    for _, _, cert in qrep.pairwise:
        assert isinstance(cert, Distinct) and cert.verify()

    sconv = mapping_space_model(sphere_coalgebra(2), pi_s2())
    srep = mapping.components(sconv)
    assert srep.exhaustive and srep.free_parameters == ("c0",)
    assert len(qrep) == len(srep) == 3
    for qc, sc in zip(qrep.classes, srep.classes):
        for n in (1, 2):
            qd = len(pi(qconv, qc.representative, n))
            sd = len(pi(sconv, sc.representative, n))
            assert qd == sd


# -- the exact settle against sympy ------------------------------------------

def sympy_exprs(eqs, syms):
    import sympy
    return [sympy.expand(sum(sympy.Rational(c.numerator, c.denominator)
                             * sympy.Mul(*(s**k for s, k in zip(syms, mono)))
                             for mono, c in eq.items())) for eq in eqs]


def sympy_branches(eqs, n, samples):
    """The sympy solve the component search ran for every system, read the
    way it read it: per branch the free names, the solved values as text
    and the rational points (None where not rational) over the grid.  A
    solve counts as polynomial only if each branch also solves every
    equation, which a solve for a subset of the coefficients need not."""
    import sympy
    syms = sympy.symbols(f"c0:{n}")
    exprs = sympy_exprs(eqs, syms)

    def polynomial(sols):
        return bool(sols) and all(e.is_polynomial(*syms)
                                  for sol in sols for e in sol.values()) \
            and all(sympy.expand(ex.subs(sol, simultaneous=True)) == 0
                    for sol in sols for ex in exprs)

    def solve():
        default = sympy.solve(exprs, list(syms), dict=True)
        if polynomial(default):
            return default
        attempts = 0
        for r in range(min(len(exprs), n), 0, -1):
            for subset in itertools.combinations(syms, r):
                attempts += 1
                if attempts > 64:
                    return default
                trial = sympy.solve(exprs, list(subset), dict=True)
                if polynomial(trial):
                    return trial
        return default

    sols = solve() if exprs else [{}]
    out = []
    for sol in sols:
        branch = [sol.get(s, s) for s in syms]
        free = sorted({f for e in branch for f in e.free_symbols
                       if f in syms}, key=lambda s: s.name)
        points = []
        for values in itertools.product(samples, repeat=len(free)):
            vals = [e.subs(dict(zip(free, map(sympy.Rational, values))))
                    for e in branch]
            points.append([F(int(v.p), int(v.q)) for v in vals]
                          if all(v.is_rational for v in vals) else None)
        out.append(([s.name for s in free], [str(e) for e in branch],
                    points))
    return out


def exact_branches(eqs, n, samples):
    return [(free, values,
             [at(tuple(map(F, v)))
              for v in itertools.product(samples, repeat=len(free))])
            for free, values, at in
            mapping._solve_preferring_polynomial(eqs, n)]


def check_against_sympy(eqs, n, one_branch=False):
    import sympy
    forced = mapping._settle(eqs)
    if forced is None:
        # left open: the same branches the plain sympy solve gave
        assert exact_branches(eqs, n, (0, 1, -2)) == \
            sympy_branches(eqs, n, (0, 1, -2))
        return
    (free, values, _), = mapping._solve_preferring_polynomial(eqs, n)
    assert values == ["0" if i in forced else f"c{i}" for i in range(n)]
    if not eqs:
        return
    syms = sympy.symbols(f"c0:{n}")
    sols = sympy.solve(sympy_exprs(eqs, syms), list(syms), dict=True)
    zero = {syms[i]: 0 for i in forced}
    # sympy describes the same set: the settle's branch is one of its
    # branches and any other pins the forced coordinates to 0 too (a
    # redundant sub-branch of a case split, as for c0 c2 = c1 + c2 = c1 = 0)
    assert zero in sols
    assert all(sol.get(s) == 0 for sol in sols for s in zero)
    assert sols == [zero] or not one_branch
    if sols == [zero]:
        assert exact_branches(eqs, n, (0, 1, -2)) == \
            sympy_branches(eqs, n, (0, 1, -2))


@st.composite
def polynomial_systems(draw):
    """Systems without constant terms in up to 5 variables, built from
    pure powers, products of two variables and linear terms.  At most
    three equations of two terms keep sympy's general solve, which every
    system the settle leaves open goes to, within seconds."""
    n = draw(st.integers(min_value=1, max_value=5))
    var = st.integers(min_value=0, max_value=n - 1)
    coef = st.fractions(min_value=-3, max_value=3,
                        max_denominator=2).filter(bool)

    def monomial():
        kind = draw(st.sampled_from(["power", "mixed", "linear"]))
        mono = [0] * n
        if kind == "mixed" and n > 1:
            for i in draw(st.lists(var, min_size=2, max_size=2,
                                   unique=True)):
                mono[i] = 1
        else:
            mono[draw(var)] = 1 if kind == "linear" else \
                draw(st.integers(min_value=1, max_value=3))
        return tuple(mono)

    eqs = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        eq: dict = {}
        for _ in range(draw(st.integers(min_value=1, max_value=2))):
            add_term(eq, monomial(), draw(coef))
        if eq:
            eqs.append(eq)
    return eqs, n


@settings(max_examples=30, deadline=None)
@given(polynomial_systems())
# c0 c2 = c1 + c2 = c1 = 0 settles to c1 = c2 = 0; sympy's case split on
# c0 c2 lists the sub-branch c0 = c1 = c2 = 0 as well
@example(([{(1, 0, 1): F(1)}, {(0, 0, 1): F(1), (0, 1, 0): F(1)},
           {(0, 1, 0): F(1)}], 3))
# c3 + c0^2 = c1 = 0: the default solve has radicals, and a solve for a
# subset that skips c3 + c0^2 = 0 would leave c0, c2, c3 free
@example(([{(0, 0, 0, 1): F(1), (2, 0, 0, 0): F(1)},
           {(0, 1, 0, 0): F(1)}], 4))
def test_exact_settle_agrees_with_sympy(system):
    check_against_sympy(*system)


def bundled_systems():
    sources = {name: builtin_model for name in BUILTIN_COALGEBRAS}
    sources["quillen_s2"] = lambda _: quillen_s2()
    for name, make in sources.items():
        for target in BUILTIN_TARGETS:
            conv = mapping_space_model(make(name), builtin_model(target))
            pairs = conv.carrier.basis(0)
            polys = mapping._residual_polynomials(conv, pairs)
            yield (f"{name}-{target}",
                   [p for p in polys.values() if p], len(pairs))


BUNDLED = list(bundled_systems())


@pytest.mark.parametrize("eqs,n", [b[1:] for b in BUNDLED],
                         ids=[b[0] for b in BUNDLED])
def test_exact_settle_agrees_with_sympy_on_bundled_pairs(eqs, n):
    # no bundled pair has a sub-branch, so its components report keeps
    # its bytes
    check_against_sympy(eqs, n, one_branch=True)


def test_the_settle_forces_through_substitution():
    # c0^2 = 0 forces c0; then c0 c1 + c2^3 = 0 leaves c2^3 = 0
    eqs = [{(2, 0, 0): F(1)}, {(1, 1, 0): F(1), (0, 0, 3): F(-2)}]
    assert mapping._settle(eqs) == {0, 2}
    (free, values, at), = mapping._solve_preferring_polynomial(eqs, 3)
    assert (free, values) == (["c1"], ["0", "c1", "0"])
    assert at((F(5, 2),)) == [0, F(5, 2), 0]
    # a linear relation between two coordinates is left to sympy
    assert mapping._settle([{(1, 0): F(1), (0, 1): F(-1)}]) is None


def test_a_subset_solve_is_accepted_only_if_it_solves_every_equation():
    # -c3/2 - c0 = 0, -c1^2 c4^2 - c1 = 0, -3 c0^2 c1^2 - c4 = 0: solving
    # for c3 alone ignores the two equations free of c3
    import sympy
    c = sympy.symbols("c0:5")
    eqs = [{(1, 0, 0, 0, 0): F(-1), (0, 0, 0, 1, 0): F(-1, 2)},
           {(0, 2, 0, 0, 2): F(-1), (0, 1, 0, 0, 0): F(-1)},
           {(2, 2, 0, 0, 0): F(-3), (0, 0, 0, 0, 1): F(-1)}]
    exprs = sympy_exprs(eqs, c)
    partial = sympy.solve(exprs, [c[3]], dict=True)
    assert partial == [{c[3]: -2 * c[0]}]
    assert not mapping._acceptable(partial, c, exprs)
    # c0 = c1 = c4 = 1 leaves -2 in the second equation
    assert exprs[1].subs({c[0]: 1, c[1]: 1, c[3]: -2, c[4]: 1}) == -2
    true = {c[1]: sympy.S(0), c[3]: -2 * c[0], c[4]: sympy.S(0)}
    assert mapping._acceptable([true], c, exprs)
    # one failing branch rejects the whole solve
    assert not mapping._acceptable([true] + partial, c, exprs)
    # a branch that is not polynomial stays rejected, as does no branch
    root = sympy.sqrt(c[3])
    assert not mapping._acceptable([{c[0]: root}], c, [c[0] ** 2 - c[3]])
    assert not mapping._acceptable([], c, exprs)


# ---------------------------------------------------------------------------
# the residual system over Q[c] (x) L against the multiset walk

def reference_residual(conv, pairs) -> dict:
    """The residual by the walk the component search used before the
    scalar extension: the bracket of every multiset of directions, with
    weight 1 / prod m!, in combinations_with_replacement order."""
    polys: dict = {}

    def add(gm, mono):
        for ck, col in gm.entries.items():
            for lk, c in col.items():
                add_term(polys.setdefault((ck, lk), {}), mono, c)

    els = [conv.elementary(*p) for p in pairs]
    for i, e in enumerate(els):
        d = conv.differential_of(e)
        if not d.is_zero():
            add(d, tuple(int(j == i) for j in range(len(els))))
    for n in range(2, conv.arity_window() + 1):
        for idx in itertools.combinations_with_replacement(range(len(els)),
                                                           n):
            val = conv.bracket(n, [els[j] for j in idx])
            if val.is_zero():
                continue
            counts = Counter(idx)
            weight = F(1)
            for m in counts.values():
                weight *= F(1, factorial(m))
            add(val.scale(weight), tuple(counts[j] for j in range(len(els))))
    return polys


def assert_same_residual(conv, pairs):
    """Equal as dicts, with the pairs and each pair's monomials in the
    same order: the solver sees the same input."""
    got = mapping._residual_polynomials(conv, pairs)
    want = reference_residual(conv, pairs)
    assert got == want
    assert [(k, list(v)) for k, v in got.items()] == \
        [(k, list(v)) for k, v in want.items()]


def test_residual_matches_the_walk_on_bundled_pairs():
    sources = {name: builtin_model for name in BUILTIN_COALGEBRAS}
    sources["quillen_s2"] = lambda _: quillen_s2()
    for name, make in sources.items():
        for target in BUILTIN_TARGETS:
            conv = mapping_space_model(make(name), builtin_model(target))
            assert_same_residual(conv, list(conv.carrier.basis(0)))


@st.composite
def residual_cases(draw):
    source, target = draw(st.sampled_from(
        ORACLE_PAIRS + [(bar_source, pi_s2),
                        (bar_source, acyclic_pair_target)]))
    conv = ConvolutionAlgebra(source(), target())
    pairs = draw(st.lists(st.sampled_from(conv.carrier.basis(0)),
                          unique=True))
    return conv, pairs


@given(residual_cases())
@settings(max_examples=60, deadline=None)
def test_residual_matches_the_walk_on_direction_subsets(case):
    assert_same_residual(*case)


def free_lie_cp3():
    """cobar(CP3) at window 7 into the loop homology of S2 v S3: 33
    degree-0 directions and arity window 3, so Q[c] has 7,140 monomials
    up to the cut."""
    L = transfer_linfty(cobar(wedge_s2_s3_coalgebra(), degree_max=8),
                        arity_max=3).algebra
    conv = mapping_space_model(cobar(cp3_coalgebra(), 7), L, 7)
    return conv, list(conv.carrier.basis(0))


def test_residual_never_lists_the_monomial_basis(monkeypatch):
    def refuse(self):
        raise AssertionError("the monomial basis of Q[c] was listed")

    monkeypatch.setattr(TruncatedPolynomials, "keys", refuse, raising=False)
    conv, pairs = free_lie_cp3()
    assert len(pairs) == 33 and conv.arity_window() == 3
    assert_same_residual(conv, pairs)
