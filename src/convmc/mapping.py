"""Models of pointed mapping spaces: components as Maurer-Cartan moduli
and homotopy groups of components as twisted homology.

The model of Map(X, Y) is the convolution algebra Hom(C, L) where C is
a coalgebra model of the source and L a shifted homotopy model of the
target.  A source handed over as a free Lie model is first strictified:
its bar construction is a genuine coalgebra quasi-isomorphic to the
homology of the source inside the truncation window, so the convolution
algebra over that bar coalgebra computes the same moduli there.  The
bar coalgebra (barcobar.BarCoalgebra) records its window and
exact_through itself, so downstream reports can read them off conv.C.

Component search parameterizes degree-0 elements by exact coefficients
c0, c1, ... and expands the Maurer-Cartan residual as a polynomial
system over the rationals: one dict from exponent tuple to exact scalar per
carrier basis pair.  The expansion is the residual of the generic
element sum_i c_i e_i in Hom(C, Q[c] (x) L), the extension of scalars
of models.extension_of_scalars.  Its A is TruncatedPolynomials: any
graded-commutative dg algebra with degree, product, d and membership
serves, and the same extension carries the gauge paths (A the interval
forms) and their transport along an infinity-morphism (transfer.push_path,
library API that no command reaches yet; its tests are in
tests/test_transfer.py).  Q[c] is cut at the arity window, where every
product of the search lands, and its monomials are never listed.  The
equations come in carrier order: by the source key, then the target
key.

The system is solved by one exact elimination in int-first scalars;
the package has no computer-algebra dependency.  A branch holds solved
coordinates, each a polynomial in the free ones, and equations left to
solve.  The first step that applies is taken, each an equivalence over Q
or a complete case split, until no equation is left:

1. a nonzero constant equation: the branch has no point;
2. c x^k, one term in one coordinate: x = 0;
3. x occurring in an equation only as c x, c constant: x = -(rest)/c,
   for the lowest such x, in its first such equation;
4. a monomial dividing every term of an equation: a branch x = 0 per
   coordinate x in it, in order, then one with the quotient;
5. an equation in one coordinate x: a branch x = r per rational root r
   (the rational root theorem, divisors by trial division);
6. a homogeneous equation in two coordinates x < y: a branch x = t y per
   rational root t of f(t, 1), or y = 0 when there is none.

A value found is substituted into every equation and solved value.  A
branch no step applies to is open: its equations stay, its coordinates
stay free, and its grid points are kept where the equations vanish.
Values print as sympy printed them, terms in descending lex order of
the coordinates sorted by name: -c27/2 + c3*c4/2 + c4**2/8.  Families
are sampled on a small grid and every surviving candidate is reduced to
a certified moduli class, with pairwise gauge decisions recorded.  The
report says plainly whether the search was exhaustive: it is when the
candidate space covers all of degree 0 or the system is affine, and no
branch is open; the notes spell out anything that was sampled rather
than enumerated or left open.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import isqrt, lcm, prod
from operator import add, sub

from .barcobar import bar
from .convolution import ConvolutionAlgebra
from .gauge import Equal, ModuliClass, PointRecord, Unknown, gauge_equivalent
from .graded import GradedMap, add_term, contraction_from_complex
from .matrices import ONE, inverse, scalar
from .models import (CdgCoalgebra, QuillenModel, TruncatedPolynomials,
                     extension_of_scalars)

GRID_CAP = 64


def strict_source(source, degree_max: int | None = None) -> CdgCoalgebra:
    """The coalgebra C of the mapping space model Hom(C, L) of source.

    A coalgebra source is used as is.  A free Lie model is strictified
    through its bar construction, truncated at degree_max (default: one
    above the model's own word cap); that BarCoalgebra carries its L,
    degree_max and exact_through.
    """
    if isinstance(source, QuillenModel):
        window = degree_max if degree_max is not None else \
            source.fl.deg_max + 1
        return bar(source.as_linfty(), window)
    if not isinstance(source, CdgCoalgebra):
        raise TypeError("source must be a coalgebra or a free Lie model")
    return source


def _residual_polynomials(conv: ConvolutionAlgebra, pairs) -> dict:
    """Maurer-Cartan residual of sum_i c_i e_i as polynomials in the c_i,
    one per carrier basis pair of the image: a dict from the exponent
    tuple of each monomial to its coefficient.

    The residual is read in one pass, as the differential plus the series
    of the generic element in Hom(C, Q[c] (x) L), with Q[c] cut at the
    arity window: one convolve pass reads each coproduct word once and
    yields every monomial with its 1/m! weights, and no monomial basis
    is listed.  The pairs come in carrier order: by the source key, then
    the target key, each in its space's sort order."""
    ext = extension_of_scalars(
        conv.L, TruncatedPolynomials(len(pairs), conv.arity_window()))
    cols: dict = {}
    for i, (ck, lk) in enumerate(pairs):
        unit = tuple(int(j == i) for j in range(len(pairs)))
        cols.setdefault(ck, {})[(unit, lk)] = ONE
    hom = ConvolutionAlgebra(conv.C, ext)
    generic = GradedMap(conv.C.space, ext.space, 0, cols)
    residual = hom.differential_of(generic) + hom.series([generic], -1,
                                                         lambda n: ONE)
    polys: dict = {}
    for ck, col in residual.entries.items():
        for (mono, lk), c in col.items():
            add_term(polys.setdefault((ck, lk), {}), mono, c)
    C, L = conv.C.space, conv.L.space
    return {key: polys[key] for key in sorted(
        polys, key=lambda k: (C.sort_key(k[0]), L.sort_key(k[1])))}


def _substitute(poly: dict, subs: dict) -> dict:
    """poly with each coordinate i of subs replaced by the polynomial
    subs[i], which is free of every coordinate of subs."""
    out: dict = {}
    for mono, c in poly.items():
        terms = [(tuple(0 if i in subs else k for i, k in enumerate(mono)),
                  c)]
        for i, value in subs.items():
            for _ in range(mono[i]):
                terms = [(tuple(map(add, m, b)), d * e) for m, d in terms
                         for b, e in value.items()]
        for m, d in terms:
            add_term(out, m, d)
    return out


def _rational_roots(coeffs: dict) -> list:
    """The rational roots, ascending, of sum c t^k over coeffs {k: c},
    whose constant term is nonzero."""
    den = lcm(*(Fraction(c).denominator for c in coeffs.values()))

    def divisors(c):
        a = abs(int(c * den))
        return {e for d in range(1, isqrt(a) + 1) if not a % d
                for e in (d, a // d)}
    return sorted({t for t in (scalar(s * p * inverse(q))
                               for p in divisors(coeffs[0])
                               for q in divisors(coeffs[max(coeffs)])
                               for s in (1, -1))
                   if not sum(c * t ** k for k, c in coeffs.items())})


def _step(eqs: list, n: int) -> list | None:
    """The branches (equations, substitution) of the first step of the
    module docstring that applies to eqs, or None when none does."""
    supports = [[[i for i, k in enumerate(m) if k] for m in eq] for eq in eqs]
    if [[]] in supports:  # step 1
        return []
    zeros = sorted({s[0][0] for s in supports if len(s) == 1 == len(s[0])})
    if zeros:  # step 2
        return [(eqs, dict.fromkeys(zeros, {}))]
    linear = [(s[0], k, m) for k, (eq, sup) in enumerate(zip(eqs, supports))
              for m, s in zip(eq, sup) if len(s) == 1 and m[s[0]] == 1
              and sum(s[0] in t for t in sup) == 1]
    if linear:  # step 3
        x, k, unit = min(linear)
        inv = -inverse(eqs[k][unit])
        return [(eqs, {x: {m: scalar(c * inv) for m, c in eqs[k].items()
                           if m != unit}})]
    for k, eq in enumerate(eqs):  # step 4
        g = tuple(map(min, *eq)) if len(eq) > 1 else next(iter(eq))
        if any(g):
            rest = {tuple(map(sub, m, g)): c for m, c in eq.items()}
            return [(eqs, {i: {}}) for i, e in enumerate(g) if e] + \
                [(eqs[:k] + [rest] + eqs[k + 1:], {})]
    for width in (1, 2):  # steps 5, 6
        for eq, sup in zip(eqs, supports):
            xs = sorted({i for s in sup for i in s})
            if len(xs) != width or width == 2 and \
                    len({sum(m) for m in eq}) > 1:
                continue
            roots = _rational_roots({m[xs[0]]: c for m, c in eq.items()})
            if width == 2 and not roots:
                return [(eqs, {xs[1]: {}})]
            y = tuple(int(width == 2 and i == xs[-1]) for i in range(n))
            return [(eqs, {xs[0]: {y: t}}) for t in roots]
    return None


def _text(poly: dict, order: list) -> str:
    """poly as the module docstring prints it, order the coordinates
    sorted by name."""
    out = ""
    for mono, c in sorted(poly.items(), reverse=True,
                          key=lambda t: [t[0][i] for i in order]):
        c = Fraction(c)
        factors = [f"c{i}" + (f"**{mono[i]}" if mono[i] > 1 else "")
                   for i in order if mono[i]]
        body = "*".join([str(abs(c.numerator))] * (
            abs(c.numerator) != 1 or not factors) + factors) + \
            (f"/{c.denominator}" if c.denominator != 1 else "")
        out += (" - " if c < 0 else " + ") + body if out else \
            "-" * (c < 0) + body
    return out or "0"


def _value(poly: dict, point: list):
    return scalar(sum(c * prod(v ** k for v, k in zip(point, m) if k)
                      for m, c in poly.items()))


def _branch(n: int, solved: dict, open_eqs: list) -> tuple:
    """(free, values, at, open) of a branch: its free coordinates sorted
    by name, every value as text, the map from values of the free ones to
    the point (None off the open equations), and those equations as text."""
    order = sorted(range(n), key=lambda i: f"c{i}")
    free = [i for i in order if i not in solved]

    def at(values):
        point = [0] * n
        for i, v in zip(free, values):
            point[i] = v
        point = [_value(solved[i], point) if i in solved else point[i]
                 for i in range(n)]
        return None if any(_value(eq, point) for eq in open_eqs) else point
    return ([f"c{i}" for i in free],
            [_text(solved[i], order) if i in solved else f"c{i}"
             for i in range(n)], at, [_text(eq, order) for eq in open_eqs])


def _solve_preferring_polynomial(eqs, n: int) -> list:
    """The branches of _branch, depth first in the order of their case
    splits, that the steps of the module docstring leave for the system
    eqs, nonzero polynomials in c0..c{n-1}: together they cover every
    rational solution."""
    branches, todo = [], [(list(eqs), {})]
    while todo:
        eqs, solved = todo.pop()
        children = _step(eqs, n)
        if children is None:
            branches.append(_branch(n, solved, eqs))
            continue
        todo += [([r for r in (_substitute(e, subs) for e in eqs2) if r],
                  {**{i: _substitute(v, subs) for i, v in solved.items()},
                   **subs}) for eqs2, subs in reversed(children)]
    return branches


class ComponentReport:
    """Moduli classes found by a component search, with pairwise gauge
    certificates and honesty flags.  pairwise holds (candidate, class,
    certificate): each candidate, numbered in search order, against the
    classes listed before it, up to the first it is Equal to."""

    def __init__(self):
        self.classes: list[ModuliClass] = []
        self.pairwise: list[tuple[int, int, object]] = []
        self.free_parameters: tuple[str, ...] = ()
        self.parametric: list[dict] = []
        self.exhaustive = False
        self.method = ""
        self.notes: list[str] = []

    def __len__(self):
        return len(self.classes)

    def summary(self) -> str:
        tag = "exhaustive" if self.exhaustive else "NOT exhaustive"
        fam = (f", family in {', '.join(self.free_parameters)}"
               if self.free_parameters else "")
        return (f"{len(self.classes)} component class(es) [{tag}, "
                f"{self.method}{fam}]")


def components(conv: ConvolutionAlgebra, restrict_to=None,
               samples=(0, 1, 2)) -> ComponentReport:
    """Search for the components of the mapping space model conv, the
    convolution algebra over strict_source(source).

    Degree-0 elements are parameterized on restrict_to (a list of
    carrier basis pairs) or on the whole degree-0 basis, the residual
    system is solved exactly, parametric families are sampled on the
    given grid, and distinct gauge classes are certified pairwise.
    """
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
    report = ComponentReport()
    covers = len(pairs) == len(all_pairs)

    if not pairs:
        report.method = "empty-hom"
        report.exhaustive = covers
        if not covers:
            report.notes.append("search restricted to an empty direction "
                                "set; only the zero map was considered")
        report.classes.append(PointRecord(conv, conv.zero_map(0)).normal_form)
        return report

    eqs = [p for p in _residual_polynomials(conv, pairs).values() if p]
    affine = all(sum(mono) <= 1 for eq in eqs for mono in eq)
    report.method = "affine" if affine else "polynomial"
    report.exhaustive = covers or affine
    if not covers:
        report.notes.append(
            f"search restricted to {len(pairs)} of {len(all_pairs)} "
            "degree-0 directions")

    candidates: list[tuple] = []
    seen = set()
    for free, values, at, open_eqs in _solve_preferring_polynomial(
            eqs, len(pairs)):
        if open_eqs:
            report.exhaustive = False
            report.notes.append("a branch leaves " + ", ".join(
                f"{e} = 0" for e in open_eqs) + " open; its grid points "
                "are kept where they hold")
        if free:
            report.free_parameters = tuple(
                sorted(set(report.free_parameters) | set(free)))
            report.parametric.append(dict(zip(pairs, values)))
            grid = itertools.product([scalar(v) for v in samples],
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
        for params in grid:
            point = at(params)
            if point is None:
                continue
            key = tuple(point)
            if key not in seen:
                seen.add(key)
                candidates.append(key)

    starts: list[PointRecord] = []  # the checked start of each class
    for n, point in enumerate(candidates):
        # the solver's point, checked; its record keeps the normal form
        record = PointRecord(conv, conv.to_map(
            {p: v for p, v in zip(pairs, point) if v}, degree=0))
        merged = False
        for i, start in enumerate(starts):
            cert = gauge_equivalent(record, start)
            report.pairwise.append((n, i, cert))
            if isinstance(cert, Equal):
                merged = True
                break
            if isinstance(cert, Unknown):
                report.notes.append(
                    "a pair of candidates could not be decided; they are "
                    "listed as separate classes")
        if not merged:
            report.classes.append(record.normal_form)
            starts.append(record)
    return report


def pi_of_component(x: PointRecord, n: int) -> dict:
    """Homotopy group of the component of the Maurer-Cartan element x, a
    gauge.PointRecord: the degree-n homology of the carrier twisted by
    x, as {class: representative cycle in the carrier}, in the order of
    the contraction's homology basis."""
    if n < 1:
        raise ValueError("component homotopy starts at n = 1")
    con = contraction_from_complex(x.conv.twist(x))
    return {k: con.i.column(k) for k in con.small.space.basis(n)}
