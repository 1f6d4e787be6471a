"""Models of pointed mapping spaces: components as Maurer-Cartan moduli
and homotopy groups of components as twisted homology.

The model of Map(X, Y) is the convolution algebra Hom(C, L) where C is
a coalgebra model of the source and L a shifted homotopy model of the
target.  A source handed over as a free Lie model is first strictified:
its bar construction is a genuine coalgebra quasi-isomorphic to the
homology of the source inside the truncation window, so the convolution
algebra over that bar coalgebra computes the same moduli there.  The
replacement is recorded on the returned algebra so downstream reports
can carry the window.

Component search parameterizes degree-0 elements by exact coefficients,
expands the Maurer-Cartan residual as a polynomial system over the
rationals, and solves it symbolically.  Solutions come back as points
or as parametric families; families are sampled on a small grid and
every surviving candidate is reduced to a certified moduli class, with
pairwise gauge decisions recorded.  The report says plainly whether the
search was exhaustive: it is when the candidate space covers all of
degree 0 or the system is affine, and the notes spell out anything that
was sampled rather than enumerated.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from math import factorial

import sympy

from .barcobar import bar
from .convolution import ConvolutionAlgebra
from .gauge import (Equal, ModuliClass, Unknown, gauge_equivalent,
                    moduli_normal_form)
from .graded import GradedMap, GradedSpace
from .models import CdgCoalgebra, LInfinityAlgebra, QuillenModel

F = Fraction

GRID_CAP = 64


class Strictification:
    """Record of a source replacement by the bar construction of its
    free Lie model."""

    def __init__(self, model: QuillenModel, coalgebra: CdgCoalgebra,
                 degree_max: int):
        self.model = model
        self.coalgebra = coalgebra
        self.degree_max = degree_max
        self.exact_through = degree_max - 1

    def __repr__(self):
        return (f"Strictification({self.model.name} -> "
                f"{self.coalgebra.name}, window {self.degree_max})")


def mapping_space_model(source, L: LInfinityAlgebra,
                        degree_max: int | None = None) -> ConvolutionAlgebra:
    """Convolution model of the pointed mapping space.

    A coalgebra source is used as is.  A free Lie model is strictified
    through its bar construction, truncated at degree_max (default: one
    above the model's own word cap); the replacement record is attached
    as .strictification.
    """
    if isinstance(source, QuillenModel):
        window = degree_max if degree_max is not None else \
            source.fl.deg_max + 1
        strict = bar(source.as_linfty(), window)
        conv = ConvolutionAlgebra(strict, L)
        conv.strictification = Strictification(source, strict, window)
        return conv
    if not isinstance(source, CdgCoalgebra):
        raise TypeError("source must be a coalgebra or a free Lie model")
    conv = ConvolutionAlgebra(source, L)
    conv.strictification = None
    return conv


def _residual_polynomials(conv: ConvolutionAlgebra, pairs, syms):
    """Maurer-Cartan residual of sum_i c_i e_i as polynomials in the c_i,
    one sympy expression per carrier basis pair of the image."""
    exprs: dict = {}

    def add(gm: GradedMap, mono):
        for ck, col in gm.entries.items():
            for lk, c in col.items():
                cur = exprs.get((ck, lk), sympy.Integer(0))
                exprs[(ck, lk)] = cur + sympy.Rational(c.numerator,
                                                       c.denominator) * mono

    els = [conv.elementary(*p) for p in pairs]
    for s, e in zip(syms, els):
        d = conv.differential_of(e)
        if not d.is_zero():
            add(d, s)
    for n in range(2, conv.arity_window() + 1):
        for idx in itertools.combinations_with_replacement(range(len(els)),
                                                           n):
            val = conv.bracket(n, [els[j] for j in idx])
            if val.is_zero():
                continue
            weight = F(1)
            for m in Counter(idx).values():
                weight *= F(1, factorial(m))
            mono = sympy.Integer(1)
            for j in idx:
                mono = mono * syms[j]
            add(val.scale(weight), mono)
    return {k: sympy.expand(e) for k, e in exprs.items()}


def _polynomial_branches(sols, syms) -> bool:
    return bool(sols) and all(e.is_polynomial(*syms)
                              for sol in sols for e in sol.values())


def _solve_preferring_polynomial(eqs, syms):
    """Solve the residual system, preferring a solved form whose branches
    are polynomial in the remaining free coefficients: families then come
    out as honest parameterizations instead of radical expressions.
    Falls back to whatever the default solve returns."""
    default = sympy.solve(eqs, list(syms), dict=True)
    if _polynomial_branches(default, syms):
        return default
    attempts = 0
    for r in range(min(len(eqs), len(syms)), 0, -1):
        for subset in itertools.combinations(syms, r):
            attempts += 1
            if attempts > 64:
                return default
            trial = sympy.solve(eqs, list(subset), dict=True)
            if _polynomial_branches(trial, syms):
                return trial
    return default


class ComponentReport:
    """Moduli classes found by a component search, with pairwise gauge
    certificates and honesty flags."""

    def __init__(self, conv: ConvolutionAlgebra, pairs):
        self.conv = conv
        self.pairs = list(pairs)
        self.classes: list[ModuliClass] = []
        self.representatives: list[GradedMap] = []
        self.pairwise: list[tuple[int, int, object]] = []
        self.free_parameters: tuple[str, ...] = ()
        self.parametric: list[dict] = []
        self.exhaustive = False
        self.method = ""
        self.notes: list[str] = []
        self.window = getattr(conv, "strictification", None)

    def __len__(self):
        return len(self.classes)

    def __iter__(self):
        return iter(self.classes)

    def summary(self) -> str:
        tag = "exhaustive" if self.exhaustive else "NOT exhaustive"
        fam = (f", family in {', '.join(self.free_parameters)}"
               if self.free_parameters else "")
        return (f"{len(self.classes)} component class(es) [{tag}, "
                f"{self.method}{fam}]")


def _point_from(assignment, pairs, conv) -> GradedMap | None:
    cols: dict = {}
    for (ck, lk), val in zip(pairs, assignment):
        if val:
            cols.setdefault(ck, {})[lk] = val
    return GradedMap(conv.C.space, conv.L.space, 0, cols)


def components(source, L: LInfinityAlgebra, restrict_to=None,
               samples=(0, 1, 2), degree_max: int | None = None,
               poly_bound: int | None = None) -> ComponentReport:
    """Search for the components of the mapping space model.

    Degree-0 elements are parameterized on restrict_to (a list of
    carrier basis pairs) or on the whole degree-0 basis, the residual
    system is solved exactly, parametric families are sampled on the
    given grid, and distinct gauge classes are certified pairwise.
    """
    conv = source if isinstance(source, ConvolutionAlgebra) else \
        mapping_space_model(source, L, degree_max)
    all_pairs = list(conv.carrier.basis(0)) \
        if 0 in conv.carrier.degrees() else []
    if restrict_to is not None:
        pairs = list(restrict_to)
        for i, p in enumerate(pairs):
            if p not in all_pairs:
                raise ValueError(f"{p!r} is not a degree-0 basis pair")
            if p in pairs[:i]:
                raise ValueError(f"{p!r} is repeated")
    else:
        pairs = all_pairs
    for i, v in enumerate(samples):
        # a repeat would spend the grid cap on duplicate points
        if v in samples[:i]:
            raise ValueError(f"sample {v!r} is repeated")
    report = ComponentReport(conv, pairs)
    covers = len(pairs) == len(all_pairs)

    if not pairs:
        report.method = "empty-hom"
        report.exhaustive = covers
        if not covers:
            report.notes.append("search restricted to an empty direction "
                                "set; only the zero map was considered")
        report.classes.append(moduli_normal_form(conv, conv.zero_map(0),
                                                 poly_bound=poly_bound))
        report.representatives.append(conv.zero_map(0))
        return report

    syms = sympy.symbols(f"c0:{len(pairs)}")
    if len(pairs) == 1:
        syms = (syms,) if not isinstance(syms, tuple) else syms
    polys = _residual_polynomials(conv, pairs, syms)
    eqs = [e for e in polys.values() if e != 0]
    affine = all(sympy.total_degree(e, *syms) <= 1 for e in eqs)
    report.method = "affine" if affine else "polynomial"
    report.exhaustive = covers or affine
    if not covers:
        report.notes.append(
            f"search restricted to {len(pairs)} of {len(all_pairs)} "
            "degree-0 directions")

    if not eqs:
        branches = [{s: s for s in syms}]
    else:
        sols = _solve_preferring_polynomial(eqs, syms)
        if not sols:
            report.notes.append("residual system has no solutions in the "
                                "searched subspace")
            return report
        branches = [{s: sol.get(s, s) for s in syms} for sol in sols]

    candidates: list[tuple] = []
    seen = set()
    for branch in branches:
        free = sorted({f for e in branch.values()
                       for f in e.free_symbols if f in syms},
                      key=lambda s: s.name)
        if free:
            report.free_parameters = tuple(
                sorted(set(report.free_parameters)
                       | {s.name for s in free}))
            report.parametric.append(
                {pair: str(branch[s]) for pair, s in zip(pairs, syms)})
            grid = itertools.product([sympy.Rational(v) for v in samples],
                                     repeat=len(free))
            grid = list(itertools.islice(grid, GRID_CAP + 1))
            if len(grid) > GRID_CAP:
                grid = grid[:GRID_CAP]
                report.notes.append(f"family grid capped at {GRID_CAP} "
                                    "points")
            report.notes.append(
                "positive-dimensional family; listed classes are grid "
                f"samples over {tuple(samples)}")
        else:
            grid = [()]
        for values in grid:
            subs = dict(zip(free, values))
            point = []
            ok = True
            for s in syms:
                v = branch[s].subs(subs)
                if not v.is_rational:
                    ok = False
                    break
                point.append(F(int(v.p), int(v.q)))
            if not ok:
                report.notes.append("dropped a non-rational solution branch")
                report.exhaustive = False
                continue
            key = tuple(point)
            if key not in seen:
                seen.add(key)
                candidates.append(key)

    for point in candidates:
        tau = _point_from(point, pairs, conv)
        res = conv.mc_check(tau)
        if not res.is_zero():
            raise AssertionError("solver produced a non-MC point")
        merged = False
        for i, rep in enumerate(report.representatives):
            cert = gauge_equivalent(conv, tau, rep, poly_bound=poly_bound)
            report.pairwise.append((len(report.representatives), i, cert))
            if isinstance(cert, Equal):
                merged = True
                break
            if isinstance(cert, Unknown):
                report.notes.append(
                    "a pair of candidates could not be decided; they are "
                    "listed as separate classes")
        if not merged:
            report.representatives.append(tau)
            report.classes.append(moduli_normal_form(conv, tau,
                                                     poly_bound=poly_bound))
    return report


def pi_of_component(source, L: LInfinityAlgebra, tau: GradedMap, n: int,
                    degree_max: int | None = None) -> GradedSpace:
    """Homotopy group of the component of tau: degree-n homology of the
    carrier twisted by tau.  tau must satisfy the Maurer-Cartan equation;
    the twist constructor enforces that."""
    if n < 1:
        raise ValueError("component homotopy starts at n = 1")
    conv = source if isinstance(source, ConvolutionAlgebra) else \
        mapping_space_model(source, L, degree_max)
    return conv.twisted_homology(tau, n)
