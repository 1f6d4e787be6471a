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

import ast
import itertools
import re
from collections import Counter
from fractions import Fraction as F
from math import factorial, prod
from pathlib import Path

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


# -- the exact elimination ----------------------------------------------------

GRID = range(-2, 3)


def evaluate(poly, point):
    return sum(c * prod(F(v) ** k for v, k in zip(point, mono))
               for mono, c in poly.items())


def read_text(text, point):
    """The value of a solved value's text at point: its integer literals
    read as Fractions, so '/' divides exactly."""
    src = re.sub(r"(?<![\w*])(\d+)", r"F(\1)", text)
    return eval(src, {"F": F, **{f"c{i}": F(v) for i, v in enumerate(point)}})


def check_branches(eqs, n):
    """The branches against brute force on the grid {-2..2}^n.  Sound:
    each point a branch gives solves every equation, and its text reads
    as that point; a settled branch gives a point at every grid value of
    its free coordinates.  Complete: every grid point that solves the
    system lies on a branch, with its open equations vanishing there."""
    branches = mapping._solve_preferring_polynomial(eqs, n)
    for free, values, at, open_eqs in branches:
        for params in itertools.product(GRID, repeat=len(free)):
            point = at([F(v) for v in params])
            assert point is not None or open_eqs
            if point is not None:
                assert all(evaluate(eq, point) == 0 for eq in eqs)
                assert [read_text(v, point) for v in values] == point
                assert all(read_text(e, point) == 0 for e in open_eqs)
    for point in itertools.product(GRID, repeat=n):
        if any(evaluate(eq, point) for eq in eqs):
            continue
        assert any(at([F(point[int(name[1:])]) for name in free]) ==
                   list(point) for free, _, at, _ in branches), point


@st.composite
def polynomial_systems(draw):
    """Systems without constant terms in up to 5 variables, built from
    pure powers, products of two variables and linear terms: at most
    three equations of at most two terms each."""
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


@settings(max_examples=100, deadline=2000)
@given(st.one_of(polynomial_systems(),
                 st.sampled_from([b[1:] for b in BUNDLED])))
# c0 c1 = 0 and 2 c2 = 3 c1^2: a solve that checked only that each branch
# solves every equation dropped the component c1 = c2 = 0, c0 free
@example(([{(1, 1, 0): F(-1)}, {(0, 2, 0): F(-3), (0, 0, 1): F(2)}], 3))
# 3 c0 c1 + c0^3 = 0: the same solve dropped c0 = 0, c1 free
@example(([{(1, 1): F(3), (3, 0): F(1)}], 2))
# c0 c2 = c1 + c2 = c1 = 0 settles to c1 = c2 = 0
@example(([{(1, 0, 1): F(1)}, {(0, 0, 1): F(1), (0, 1, 0): F(1)},
           {(0, 1, 0): F(1)}], 3))
# c0 c1 + 3 c2^2 = 0 is left open
@example(([{(1, 1, 0): F(1), (0, 0, 2): F(3)}], 3))
# c0^2 + c1^2 = 0 has no rational ratio c0 / c1, only the point 0
@example(([{(2, 0): F(1), (0, 2): F(1)}], 2))
def test_branches_are_sound_and_complete(system):
    check_branches(*system)


def branch_text(eqs, n):
    return [(free, values, open_eqs) for free, values, _, open_eqs in
            mapping._solve_preferring_polynomial(eqs, n)]


# the branches sympy.solve gave each bundled pair that has an equation;
# every other pair has one branch with each coordinate free
SYMPY_BUNDLED = {
    "s3-ab23": [([], ["0"])],
    "s2vs3-ab23": [(["c0"], ["c0", "0"])],
    "cp2-pi_s2": [([], ["0"])],
    "s2xs2-pi_s2": [(["c1"], ["0", "c1"]), (["c0"], ["c0", "0"])],
    "quillen_s2-pi_s2": [(["c0"], ["c0", "2*c0**2"])],
    "quillen_s2-pi_s3": [([], ["0"])],
    "quillen_s2-ab23": [(["c0"], ["c0", "0"])],
}


@pytest.mark.parametrize("name,eqs,n", BUNDLED, ids=[b[0] for b in BUNDLED])
def test_exact_settle_agrees_with_sympy_on_bundled_pairs(name, eqs, n):
    # the branches, in order, that the sympy solve the elimination
    # replaces gave: each components report keeps its bytes
    names = [f"c{i}" for i in range(n)]
    want = SYMPY_BUNDLED.get(name, [(sorted(names), names)])
    assert bool(eqs) == (name in SYMPY_BUNDLED)
    assert branch_text(eqs, n) == [(f, v, []) for f, v in want]


def test_the_incomplete_examples_list_every_component():
    # c0 c1 = 0, 2 c2 = 3 c1^2: c0 = 0 with the parabola, or c1 = c2 = 0
    assert branch_text([{(1, 1, 0): F(-1)},
                        {(0, 2, 0): F(-3), (0, 0, 1): F(2)}], 3) == [
        (["c1"], ["0", "c1", "3*c1**2/2"], []),
        (["c0"], ["c0", "0", "0"], [])]
    # 3 c0 c1 + c0^3 = c0 (3 c1 + c0^2): c0 = 0, or c1 = -c0^2/3
    assert branch_text([{(1, 1): F(3), (3, 0): F(1)}], 2) == [
        (["c1"], ["0", "c1"], []), (["c0"], ["c0", "-c0**2/3"], [])]


def test_the_settle_forces_through_substitution():
    # c0^2 = 0 forces c0; then c0 c1 + c2^3 = 0 leaves c2^3 = 0
    eqs = [{(2, 0, 0): F(1)}, {(1, 1, 0): F(1), (0, 0, 3): F(-2)}]
    (free, values, at, open_eqs), = \
        mapping._solve_preferring_polynomial(eqs, 3)
    assert (free, values, open_eqs) == (["c1"], ["0", "c1", "0"], [])
    assert at((F(5, 2),)) == [0, F(5, 2), 0]
    # a linear relation between two coordinates is solved for the lower
    assert branch_text([{(1, 0): F(1), (0, 1): F(-1)}], 2) == [
        (["c1"], ["c1", "c1"], [])]


@pytest.mark.parametrize("eqs,n,want", [
    # step 1: a nonzero constant, here after c0 = 0, leaves no point
    ([{(1,): F(1), (0,): F(-1)}, {(2,): F(1)}], 1, []),
    # step 2: c x^k forces x = 0
    ([{(0, 3): F(-2)}], 2, [(["c0"], ["c0", "0"], [])]),
    # step 3: the lowest coordinate that occurs only as c x is solved in
    # its first such equation, here c0 = 2 c2^2, then c1 = -2 c2^3
    ([{(0, 1, 0): F(1), (1, 0, 1): F(1)},
      {(1, 0, 0): F(1), (0, 0, 2): F(-2)}], 3,
     [(["c2"], ["2*c2**2", "-2*c2**3", "c2"], [])]),
    # step 4: c0 c1 (c0 + c1) splits into c0 = 0, c1 = 0 and c0 = -c1
    ([{(1, 2): F(1), (2, 1): F(1)}], 2,
     [(["c1"], ["0", "c1"], []), (["c0"], ["c0", "0"], []),
      (["c1"], ["-c1", "c1"], [])]),
    # step 5: one branch per rational root, ascending, none for x^2 = 2
    ([{(2,): F(2), (1,): F(-3), (0,): F(1)}], 1,
     [([], ["1/2"], []), ([], ["1"], [])]),
    ([{(2,): F(1), (0,): F(-2)}], 1, []),
    # step 6: 3 (2 c0 + c1)^2 = 0 gives c0 = -c1/2; c0^2 + c1^2 = 0 has
    # no rational ratio, so c1 = 0 and then c0 = 0
    ([{(2, 0): F(12), (1, 1): F(12), (0, 2): F(3)}], 2,
     [(["c1"], ["-c1/2", "c1"], [])]),
    ([{(2, 0): F(1), (0, 2): F(1)}], 2, [([], ["0", "0"], [])]),
    # no step applies to c0 c1 + 3 c2^2 = 0: the branch is left open
    ([{(1, 1, 0): F(1), (0, 0, 2): F(3)}], 3,
     [(["c0", "c1", "c2"], ["c0", "c1", "c2"], ["c0*c1 + 3*c2**2"])]),
], ids=["constant", "power", "linear", "monomial", "roots", "no-root",
        "homogeneous", "homogeneous-no-root", "open"])
def test_each_step(eqs, n, want):
    assert branch_text(eqs, n) == want


def test_an_open_branch_keeps_only_points_where_its_equations_vanish():
    (_, _, at, _), = mapping._solve_preferring_polynomial(
        [{(1, 1, 0): F(1), (0, 0, 2): F(3)}], 3)
    assert at([F(3), F(-1), F(1)]) == [3, -1, 1]
    assert at([F(1), F(1), F(1)]) is None


def test_an_open_branch_makes_the_report_not_exhaustive(monkeypatch):
    # the one equation of cp2 into pi(S2) is c0^2 = 0; an open branch
    # in its place is noted and the report is not exhaustive, although
    # its grid point 0 is kept
    conv = mapping_space_model(cp2_coalgebra(), pi_s2())
    assert mapping.components(conv).exhaustive
    monkeypatch.setattr(mapping, "_step", lambda eqs, n: None)
    rep = mapping.components(conv)
    assert not rep.exhaustive and len(rep) == 1
    assert "a branch leaves c0**2 = 0 open; its grid points are kept " \
        "where they hold" in rep.notes


@pytest.mark.parametrize("terms,n,text", [
    ({(2,): 2}, 1, "2*c0**2"),
    ({(0,) * 28: F(-2, 5)}, 28, "-2/5"),
    ({}, 1, "0"),
    ({(1, 0): -1, (0, 1): 1}, 2, "-c0 + c1"),
    # names sort as strings: c10 before c9
    ({tuple(int(i == 9) for i in range(11)): 1,
      tuple(int(i == 10) for i in range(11)): 1}, 11, "c10 + c9"),
    ({tuple(int(i == 27) for i in range(28)): F(-1, 2),
      tuple(int(i in (3, 4)) for i in range(28)): F(1, 2),
      tuple(2 * int(i == 4) for i in range(28)): F(1, 8)}, 28,
     "-c27/2 + c3*c4/2 + c4**2/8"),
], ids=["power", "constant", "zero", "negative-first", "name-order", "cp3"])
def test_values_print_as_sympy_printed_them(terms, n, text):
    assert mapping._text(terms, sorted(range(n), key=lambda i: f"c{i}")) \
        == text


def test_no_module_imports_sympy():
    root = Path(__file__).resolve().parents[1]
    for path in sorted([*(root / "src" / "convmc").glob("*.py"),
                        *(root / "tests").glob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = [a.name for a in node.names] \
                if isinstance(node, ast.Import) else \
                [node.module or ""] if isinstance(node, ast.ImportFrom) \
                else []
            assert not any(name.split(".")[0] == "sympy" for name in names), \
                f"{path.name}:{node.lineno} imports sympy"


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
    """Equal as dicts, with the pairs in carrier order: by the source key,
    then the target key."""
    got = mapping._residual_polynomials(conv, pairs)
    want = reference_residual(conv, pairs)
    assert got == want
    C, L = conv.C.space, conv.L.space
    assert list(got) == sorted(want, key=lambda k: (C.sort_key(k[0]),
                                                    L.sort_key(k[1])))


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
