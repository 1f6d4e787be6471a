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
system over the rationals: one dict from exponent tuple to Fraction per
carrier basis pair.  The expansion is the residual of the generic
element sum_i c_i e_i in Hom(C, Q[c] (x) L), the extension of scalars
of models.extension_of_scalars.  Its A is TruncatedPolynomials: any
graded-commutative dg algebra with degree, product, d and membership
serves, and the same extension carries the gauge paths (A the interval
forms) and their transport along an infinity-morphism (transfer.push_path,
library API that no command reaches yet; its tests are in
tests/test_transfer.py).  Q[c] is cut at the arity window, where every
product of the search lands, and its monomials are never listed.

The system is first settled exactly: an equation that is c x^k in a
single coefficient forces x = 0, which is substituted until no equation
is left.  Each step is an equivalence over Q, so a settled system is
the single branch "forced coefficients 0, the rest free", decided in
Fractions (sympy may list the same set with redundant sub-branches of
its case splits; the settle does not).  A system that
does not settle this way is solved symbolically by sympy.solve, which
is imported only then: sympy stays a runtime dependency for that
fallback alone.  Solutions come back as points or as parametric
families; families are sampled on a small grid and every surviving
candidate is reduced to a certified moduli class, with pairwise gauge
decisions recorded.  The report says plainly whether the search was
exhaustive: it is when the candidate space covers all of degree 0 or
the system is affine, and the notes spell out anything that was sampled
rather than enumerated.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .barcobar import bar
from .convolution import ConvolutionAlgebra
from .gauge import (Equal, ModuliClass, Unknown, gauge_equivalent,
                    moduli_normal_form)
from .graded import GradedMap, add_term, contraction_from_complex
from .matrices import ONE
from .models import (CdgCoalgebra, QuillenModel, TruncatedPolynomials,
                     extension_of_scalars)

F = Fraction

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

    The linear part is sum_i c_i l_1(e_i).  The brackets are the series
    of the generic element in Hom(C, Q[c] (x) L), with Q[c] cut at the
    arity window: one convolve pass reads each coproduct word once and
    yields every monomial with its 1/m! weights, and no monomial basis
    is listed.

    The pairs come in the order the equations have always had, so the
    solver sees the same system: those of the linear part first, the
    others where a walk over the multisets of directions meets them
    first (by arity, then multiset in combinations_with_replacement
    order, then source key, then the letter's place in that bracket)."""
    polys: dict = {}
    units = [tuple(int(j == i) for j in range(len(pairs)))
             for i in range(len(pairs))]
    for unit, pair in zip(units, pairs):
        d = conv.differential_of(conv.elementary(*pair))
        for ck, col in d.entries.items():
            for lk, c in col.items():
                add_term(polys.setdefault((ck, lk), {}), unit, c)
    ext = extension_of_scalars(
        conv.L, TruncatedPolynomials(len(pairs), conv.arity_window()))
    cols: dict = {}
    for unit, (ck, lk) in zip(units, pairs):
        cols.setdefault(ck, {})[(unit, lk)] = ONE
    generic = GradedMap(conv.C.space, ext.space, 0, cols)
    brackets = ConvolutionAlgebra(conv.C, ext).series([generic], -1,
                                                      lambda n: ONE)
    rest: dict = {}
    for ck, col in brackets.entries.items():
        for (mono, lk), c in col.items():
            into = polys if (ck, lk) in polys else rest
            add_term(into.setdefault((ck, lk), {}), mono, c)

    def met(key):
        n, idx = min((sum(m), tuple(j for j, k in enumerate(m)
                                    for _ in range(k))) for m in rest[key])
        val = conv.L.bracket(n, [pairs[j][1] for j in idx])
        return n, idx, conv.C.space.sort_key(key[0]), list(val).index(key[1])

    for key in sorted(rest, key=met):
        polys[key] = rest[key]
    return polys


def _settle(eqs) -> set | None:
    """The coordinates forced to 0 when the system settles exactly, else
    None.  An equation c x^k with c != 0 forces x = 0; substituting it and
    dropping what vanishes is an equivalence over Q, repeated until no
    equation is left (settled) or none is a single power (not settled)."""
    forced: set = set()
    while eqs:
        powers = [[i for i, k in enumerate(mono) if k]
                  for eq in eqs if len(eq) == 1 for mono in eq]
        new = {v[0] for v in powers if len(v) == 1}
        if not new:
            return None
        forced |= new
        eqs = [r for r in ({m: c for m, c in eq.items()
                            if not any(m[i] for i in new)} for eq in eqs)
               if r]
    return forced


def _acceptable(sols, syms, exprs) -> bool:
    """Whether a sympy solve can stand for the system exprs: it has
    branches, each polynomial in syms, and each, substituted into every
    equation and expanded, gives 0.  A solve for a subset of the
    coefficients ignores the equations free of that subset, so its
    branches are checked against all of them."""
    return bool(sols) and all(
        e.is_polynomial(*syms) for sol in sols for e in sol.values()) and \
        all(ex.xreplace(sol).expand() == 0 for sol in sols for ex in exprs)


def _solve_preferring_polynomial(eqs, n: int) -> list:
    """Solve the residual system eqs, nonzero polynomials in c0..c{n-1},
    as a list of branches (free, values, at): the names of the free
    coefficients sorted as strings, each coefficient's solved value as
    text, and a map from values of the free coefficients, in that order,
    to the point, None where it is not rational.

    A system that settles exactly has one branch, computed in Fractions.
    Any other goes to sympy, preferring a solved form whose branches are
    polynomial in the remaining free coefficients and solve every
    equation: families then come out as honest parameterizations instead
    of radical expressions.  Falls back to whatever the default solve
    returns."""
    names = [f"c{i}" for i in range(n)]
    forced = _settle(eqs)
    if forced is not None:
        free = sorted(names[i] for i in range(n) if i not in forced)

        def at(values):
            subs = dict(zip(free, values))
            return [F(0) if i in forced else subs[names[i]]
                    for i in range(n)]
        return [(free, ["0" if i in forced else names[i]
                        for i in range(n)], at)]

    import sympy
    syms = sympy.symbols(names)
    exprs = [sympy.Add(*(sympy.Rational(c.numerator, c.denominator)
                         * sympy.Mul(*(s**k for s, k in zip(syms, mono)))
                         for mono, c in eq.items())) for eq in eqs]
    default = sympy.solve(exprs, syms, dict=True)
    subsets = itertools.islice(itertools.chain.from_iterable(
        itertools.combinations(syms, r)
        for r in range(min(len(exprs), n), 0, -1)), 64)
    trials = itertools.chain([default], (sympy.solve(exprs, list(subset),
                                                     dict=True)
                                         for subset in subsets))
    sols = next((t for t in trials if _acceptable(t, syms, exprs)),
                default)

    branches = []
    for sol in sols:
        vals = [sol.get(s, s) for s in syms]
        free = sorted({f for e in vals for f in e.free_symbols
                       if f in syms}, key=lambda s: s.name)

        def at(values, vals=vals, free=free):
            subs = {s: sympy.Rational(v.numerator, v.denominator)
                    for s, v in zip(free, values)}
            point = [e.subs(subs) for e in vals]
            if not all(v.is_rational for v in point):
                return None
            return [F(int(v.p), int(v.q)) for v in point]
        branches.append(([s.name for s in free], [str(e) for e in vals],
                         at))
    return branches


class ComponentReport:
    """Moduli classes found by a component search, with pairwise gauge
    certificates and honesty flags."""

    def __init__(self, conv: ConvolutionAlgebra, pairs):
        self.conv = conv
        self.pairs = list(pairs)
        self.classes: list[ModuliClass] = []
        self.pairwise: list[tuple[int, int, object]] = []
        self.free_parameters: tuple[str, ...] = ()
        self.parametric: list[dict] = []
        self.exhaustive = False
        self.method = ""
        self.notes: list[str] = []

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
    report = ComponentReport(conv, pairs)
    covers = len(pairs) == len(all_pairs)

    if not pairs:
        report.method = "empty-hom"
        report.exhaustive = covers
        if not covers:
            report.notes.append("search restricted to an empty direction "
                                "set; only the zero map was considered")
        report.classes.append(moduli_normal_form(conv, conv.zero_map(0)))
        return report

    eqs = [p for p in _residual_polynomials(conv, pairs).values() if p]
    affine = all(sum(mono) <= 1 for eq in eqs for mono in eq)
    report.method = "affine" if affine else "polynomial"
    report.exhaustive = covers or affine
    if not covers:
        report.notes.append(
            f"search restricted to {len(pairs)} of {len(all_pairs)} "
            "degree-0 directions")

    branches = _solve_preferring_polynomial(eqs, len(pairs))
    if not branches:
        report.notes.append("residual system has no solutions in the "
                            "searched subspace")
        return report

    candidates: list[tuple] = []
    seen = set()
    for free, values, at in branches:
        if free:
            report.free_parameters = tuple(
                sorted(set(report.free_parameters) | set(free)))
            report.parametric.append(dict(zip(pairs, values)))
            grid = itertools.product([F(v) for v in samples],
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
                report.notes.append("dropped a non-rational solution branch")
                report.exhaustive = False
                continue
            key = tuple(point)
            if key not in seen:
                seen.add(key)
                candidates.append(key)

    for point in candidates:
        tau = conv.to_map({p: v for p, v in zip(pairs, point) if v},
                          degree=0)
        res = conv.mc_check(tau)
        if not res.is_zero():
            raise AssertionError("solver produced a non-MC point")
        merged = False
        for i, cls in enumerate(report.classes):
            cert = gauge_equivalent(conv, tau, cls.start)
            report.pairwise.append((len(report.classes), i, cert))
            if isinstance(cert, Equal):
                merged = True
                break
            if isinstance(cert, Unknown):
                report.notes.append(
                    "a pair of candidates could not be decided; they are "
                    "listed as separate classes")
        if not merged:
            report.classes.append(moduli_normal_form(conv, tau))
    return report


def pi_of_component(conv: ConvolutionAlgebra, tau: GradedMap,
                    n: int) -> dict:
    """Homotopy group of the component of tau in conv: the degree-n
    homology of the carrier twisted by tau, as {class: representative
    cycle in the carrier}, in the order of the contraction's homology
    basis.  tau must satisfy the Maurer-Cartan equation; the twist
    constructor enforces that."""
    if n < 1:
        raise ValueError("component homotopy starts at n = 1")
    con = contraction_from_complex(conv.twist(tau))
    return {k: con.i.column(k) for k in con.small.space.basis(n)}
