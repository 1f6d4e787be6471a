"""Gauge paths between Maurer-Cartan elements, exact polynomial flows,
and a certified equivalence decision for convolution algebras.

A gauge path is a Maurer-Cartan element of the convolution algebra after
extending the target by polynomial forms on the interval: its value on a
source element is a polynomial family x(t) plus a dt part lambda(t) dt.
The extended Maurer-Cartan equation says simultaneously that every x(t)
is Maurer-Cartan and that dx/dt equals the gauge vector field

    dx/dt = l_1(lambda) + sum_{n>=1} 1/n! l_{n+1}(lambda, x, ..., x),

the twisted differential d^x(lambda) of ConvolutionAlgebra, so flowing
along a degree-1 direction and checking a claimed path are both exact
computations over Fraction scalars.  gauge_equivalent returns a
certificate in every case: Equal carries a chain of paths that can be
replayed through path_check, Distinct carries a reason that verify()
recomputes from scratch, and Unknown is an honest failure to decide.

The decision procedure is staged by source degree.  One-reduced sources
filter the convolution algebra by the degree of the source cell, and a
direction supported in source degrees {p-1, p} moves columns below p-1
not at all and column p linearly, which turns each stage into a linear
algebra problem over the rationals.  Three unreachability arguments are
implemented, all sound: a rigidity sweep (columns that no direction can
move at all are constant along every path, so a difference in the first
non-rigid column must lie in the span of the available move rates), the
abelian case (where reachability is exactly a coset of the image of the
differential, so the decision is complete and a failure yields a nonzero
homology class as witness), and a twisted Betti comparison (equivalent
elements have isomorphic twisted homology).

The linear algebra runs on carrier-keyed sparse vectors in the one
exact kernel of matrices: column_split, Echelon, and Coset and Span,
which factor a list of vectors once and then reduce each right-hand side
by one pass.  A normal form is defined by the leading columns of a span
in carrier order, not by an elimination order.

Everything the decision derives is computed once, at the level it
depends on, so a search that decides many pairs over few points pays
per pair only for sparse reductions:

- per algebra, in ConvolutionAlgebra.algebra_memo: the degree-0 columns
  by source degree, the l_1 effects of the elementary degree-1
  directions, and the stages of the normal form (the admissible
  combinations of each stage's candidate directions, their moves on the
  stage column, and the Coset and Span of those moves), or, when no
  bracket survives, the one stage _abelian_stage, whose moves are all
  the effects;
- per point, in ConvolutionAlgebra.point_memo: the Maurer-Cartan
  residual, the sweep table (the Echelon of the flow rates on each
  column, through the first column that some direction moves), the
  staged normal form and the nonzero twisted Betti numbers.  The store
  is an LRU of the _POINTS_CAP points used last, keyed by the degree
  and exact coefficients of the point.

Every path the decision builds has the polynomial bound
default_poly_bound(conv), so a point has one normal form per algebra.
Only gauge_equivalent and its helpers read the two stores.  Every
verify() and path_check recompute from scratch, the sweep table and
twisted Betti numbers included, so a certificate is checked again
rather than looked up, and a stale or damaged entry cannot make a wrong
answer verify; a damaged stage that predicts a wrong flow endpoint
fails the stage-flow assertions instead.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .convolution import ConvolutionAlgebra
from .graded import GradedMap, Vec, add_term, lru, vec_sub
from .matrices import ONE, Coset, Echelon, Span, column_split
from .models import IntervalForms, extension_of_scalars

F = Fraction


def default_poly_bound(conv: ConvolutionAlgebra) -> int:
    """Polynomial degree bound that covers the flows of every nilpotency
    depth a source of this size can produce, with slack."""
    degrees = {conv.C.space.degree_of[k] for k in conv.C.space.all_keys()}
    return max(4, len(degrees) + 2)


# -- paths ---------------------------------------------------------------

class GaugePath:
    """A polynomial family of elements of Hom(C, L) together with its dt
    part, bundled as a single map into L extended by interval forms.

    p_parts[k] is the coefficient of t^k (a degree-0 map), q_parts[k]
    the coefficient of t^k dt (a degree-1 map).  The family is a genuine
    gauge path exactly when path_check() vanishes; nothing is checked at
    construction time so that failing paths can be built and inspected.
    """

    def __init__(self, conv: ConvolutionAlgebra, poly_bound: int,
                 p_parts: dict[int, GradedMap],
                 q_parts: dict[int, GradedMap]):
        self.conv = conv
        self.poly_bound = poly_bound
        self.p_parts = {k: f for k, f in sorted(p_parts.items())
                        if not f.is_zero()}
        self.q_parts = {k: f for k, f in sorted(q_parts.items())
                        if not f.is_zero()}
        for parts, degree, name, dt in ((self.p_parts, 0, "polynomial", ""),
                                        (self.q_parts, 1, "dt", " dt")):
            for k, f in parts.items():
                if f.degree != degree:
                    raise ValueError(f"{name} parts must have degree {degree}")
                if k > poly_bound:
                    raise ValueError(
                        f"{name} part t^{k}{dt} exceeds bound {poly_bound}")
        ext = extension_of_scalars(conv.L, IntervalForms(poly_bound))
        self.ext = ext
        self.ext_conv = ConvolutionAlgebra(conv.C, ext)
        cols: dict = {}
        for kind, parts in (("p", self.p_parts), ("q", self.q_parts)):
            for k, f in parts.items():
                for ck, col in f.entries.items():
                    dst = cols.setdefault(ck, {})
                    for lk, c in col.items():
                        dst[((kind, k), lk)] = c
        self.z = GradedMap(conv.C.space, ext.space, 0, cols)

    @classmethod
    def from_map(cls, conv: ConvolutionAlgebra, poly_bound: int,
                 z: GradedMap) -> "GaugePath":
        """The path whose bundled map into the extension is z."""
        parts: dict = {"p": {}, "q": {}}
        for ck, col in z.entries.items():
            for ((kind, k), lk), c in col.items():
                parts[kind].setdefault(k, {}).setdefault(ck, {})[lk] = c
        return cls(conv, poly_bound, *(
            {k: GradedMap(conv.C.space, conv.L.space, degree, cols)
             for k, cols in parts[kind].items()}
            for kind, degree in (("p", 0), ("q", 1))))

    def path_check(self) -> GradedMap:
        """Extended Maurer-Cartan residual of the family; the path is
        valid exactly when this is zero."""
        return self.ext_conv.mc_check(self.z)

    def endpoint(self, t) -> GradedMap:
        """The element x(t), by evaluating the polynomial parts."""
        t = F(t)
        out = self.conv.zero_map(0)
        for k, f in self.p_parts.items():
            out = out + f.scale(t ** k)
        return out

    def reversed(self) -> "GaugePath":
        """The same path run backwards, by substituting 1 - t."""
        new: tuple[dict, dict] = ({}, {})
        # dt becomes -dt under t -> 1 - t
        for parts, sign, out in ((self.p_parts, 1, new[0]),
                                 (self.q_parts, -1, new[1])):
            for k, f in parts.items():
                for j in range(k + 1):
                    part = f.scale(sign * F(comb(k, j)) * (-1) ** j)
                    out[j] = out[j] + part if j in out else part
        return GaugePath(self.conv, self.poly_bound, *new)


def constant_path(conv: ConvolutionAlgebra, x: GradedMap,
                  poly_bound: int = 1) -> GaugePath:
    return GaugePath(conv, poly_bound, {0: x}, {})


# -- flowing -------------------------------------------------------------

def _lift(conv: ConvolutionAlgebra, ext, f: GradedMap, form_key) -> GradedMap:
    """f tensor a basis interval form, as a map into the extension."""
    shift = 0 if form_key[0] == "p" else -1
    cols: dict = {}
    for ck, col in f.entries.items():
        cols[ck] = {(form_key, lk): c for lk, c in col.items()}
    return GradedMap(conv.C.space, ext.space, f.degree + shift, cols)


def _integrate(conv: ConvolutionAlgebra, ext, rate: GradedMap,
               poly_bound: int) -> GradedMap:
    """Indefinite integral from 0 of a purely polynomial family."""
    cols: dict = {}
    for ck, col in rate.entries.items():
        dst: Vec = {}
        for (fk, lk), c in col.items():
            kind, k = fk
            if kind != "p":
                raise AssertionError("flow rate picked up a dt component")
            if k + 1 > poly_bound:
                raise ValueError(
                    f"integration needs polynomial degree {k + 1}, "
                    f"bound is {poly_bound}")
            dst[(("p", k + 1), lk)] = c * F(1, k + 1)
        if dst:
            cols[ck] = dst
    return GradedMap(conv.C.space, ext.space, rate.degree, cols)


def gauge_flow(conv: ConvolutionAlgebra, x: GradedMap, lam: GradedMap,
               poly_bound: int | None = None) -> GaugePath:
    """Integrate the gauge flow from x along the constant direction lam.

    The solution is found by exact Picard iteration in Hom(C, Omega (x) L):
    each pass substitutes the current polynomial family into the vector
    field and integrates, and nilpotence of the convolution algebra makes
    the iteration stabilize after finitely many passes.  Raises ValueError
    when the chosen polynomial bound is too small for the flow, naming
    the degree that was needed.
    """
    if lam.degree != 1:
        raise ValueError("gauge directions must have degree 1")
    res = conv.mc_check(x)
    if not res.is_zero():
        raise ValueError(
            f"cannot flow a non-MC element, residual {res.entries!r}")
    if poly_bound is None:
        poly_bound = default_poly_bound(conv)
    ext = extension_of_scalars(conv.L, IntervalForms(poly_bound))
    ext_conv = ConvolutionAlgebra(conv.C, ext)
    lam_p = _lift(conv, ext, lam, ("p", 0))
    base = _lift(conv, ext, x, ("p", 0))
    current = base
    for _ in range(poly_bound + 2):
        try:
            rate = ext_conv.twisted_differential(current, lam_p)
            nxt = base + _integrate(conv, ext, rate, poly_bound)
        except ValueError as err:
            raise ValueError(
                f"gauge flow needs a larger polynomial bound than "
                f"{poly_bound}: {err}") from err
        if nxt.equals(current):
            break
        current = nxt
    else:
        raise ValueError(
            f"gauge flow did not stabilize within polynomial bound "
            f"{poly_bound}")
    path = GaugePath.from_map(conv, poly_bound,
                              current + _lift(conv, ext, lam, ("q", 0)))
    if not path.path_check().is_zero():
        raise AssertionError(
            "integrated flow fails the extended Maurer-Cartan equation")
    return path


# -- certificates --------------------------------------------------------

def _replay_chain(start: GradedMap, paths, end: GradedMap) -> bool:
    """Every path is a gauge path, each starts where the previous one
    ended, the first at start, and the last ends at end."""
    at = start
    for path in paths:
        if not path.path_check().is_zero():
            return False
        if not path.endpoint(0).equals(at):
            return False
        at = path.endpoint(1)
    return at.equals(end)


class Equal:
    """Positive certificate: a chain of gauge paths from x to y."""

    outcome = "equal"

    def __init__(self, conv: ConvolutionAlgebra, x: GradedMap, y: GradedMap,
                 paths: tuple[GaugePath, ...]):
        self.conv = conv
        self.x = x
        self.y = y
        self.paths = tuple(paths)

    def verify(self) -> bool:
        if not self.conv.mc_check(self.x).is_zero():
            return False
        if not self.conv.mc_check(self.y).is_zero():
            return False
        return _replay_chain(self.x, self.paths, self.y)

    def __repr__(self):
        return f"Equal(paths={len(self.paths)})"


class Distinct:
    """Negative certificate; kind says which unreachability argument
    applies and verify() recomputes it from the stored data."""

    outcome = "distinct"

    def __init__(self, conv: ConvolutionAlgebra, x: GradedMap, y: GradedMap,
                 kind: str, witness: dict):
        self.conv = conv
        self.x = x
        self.y = y
        self.kind = kind
        self.witness = witness

    def verify(self) -> bool:
        conv, x, y = self.conv, self.x, self.y
        if not conv.mc_check(x).is_zero() or not conv.mc_check(y).is_zero():
            return False
        if self.kind == "rigid-stage":
            stage = _rigidity_sweep(conv.to_vec(x), conv.to_vec(y),
                                    _sweep_table(conv, x, _columns(conv)))
            return stage == self.witness["degree"]
        if self.kind == "homology-class":
            dv = conv.to_vec(y - x)
            if conv.arity_window() > 1 or not dv:
                return False
            tw = conv.twist(x)
            if tw.d.apply(dv):
                return False
            bnd = [tw.d.entries.get(k, {}) for k in conv.carrier.basis(1)]
            return Span(bnd).coords(dv) is None
        if self.kind == "twisted-betti":
            bx = _twisted_betti(conv, x)
            by = _twisted_betti(conv, y)
            return (bx, by) == (self.witness["betti_x"],
                                self.witness["betti_y"]) and bx != by
        return False

    def __repr__(self):
        return f"Distinct(kind={self.kind!r})"


class Unknown:
    """Honest failure to decide either way."""

    outcome = "unknown"

    def __init__(self, reason: str):
        self.reason = reason

    def __repr__(self):
        return f"Unknown({self.reason!r})"


class ModuliClass:
    """A canonical representative together with the chain of gauge paths
    that carries the starting element onto it."""

    def __init__(self, conv: ConvolutionAlgebra, start: GradedMap,
                 representative: GradedMap, paths: tuple[GaugePath, ...]):
        self.conv = conv
        self.start = start
        self.representative = representative
        self.paths = tuple(paths)

    def verify(self) -> bool:
        if not self.conv.mc_check(self.representative).is_zero():
            return False
        return _replay_chain(self.start, self.paths, self.representative)

    def __repr__(self):
        return (f"ModuliClass(representative="
                f"{sorted(self.representative.entries)!r}, "
                f"paths={len(self.paths)})")


# -- linear algebra over carrier keys -----------------------------------

def _restrict(v: Vec, keys) -> Vec:
    return {k: v[k] for k in keys if k in v}


def _twisted_betti(conv: ConvolutionAlgebra, x: GradedMap) -> dict[int, int]:
    """The nonzero Betti numbers of the carrier twisted by x."""
    return {k: v for k, v in sorted(conv.twist(x).betti().items()) if v}


def _combine(vectors: list[Vec], coeffs) -> Vec:
    """sum coeffs[s] vectors[s]."""
    out: Vec = {}
    for s, v in zip(coeffs, vectors):
        if s:
            for k, c in v.items():
                add_term(out, k, s * c)
    return out


# -- what the decision derives from the algebra alone --------------------

def _algebra_memo(conv: ConvolutionAlgebra, compute):
    """compute(conv), kept in conv.algebra_memo under the name of
    compute."""
    memo = conv.algebra_memo
    name = compute.__name__
    if name not in memo:
        memo[name] = compute(conv)
    return memo[name]


def _columns(conv: ConvolutionAlgebra) -> list[tuple]:
    """(p, the degree-0 carrier keys of source degree p) for every source
    degree p that has some, from the bottom."""
    cdeg = conv.C.space.degree_of
    keys0 = conv.carrier.basis(0)
    out = []
    for p in sorted({cdeg[k] for k in conv.C.space.all_keys()}):
        basis = [k for k in keys0 if cdeg[k[0]] == p]
        if basis:
            out.append((p, basis))
    return out


def _effects(conv: ConvolutionAlgebra) -> list[Vec]:
    """l_1 of every elementary degree-1 direction, in carrier order."""
    return [conv.to_vec(conv.differential_of(conv.elementary(*k)))
            for k in conv.carrier.basis(1)]


def _abelian_stage(conv: ConvolutionAlgebra) -> tuple:
    """The one stage of the abelian case, where the orbit of x is
    x + im(l_1): every elementary direction, whose moves are their
    effects on all degree-0 columns.  A stage is (combinations of
    directions, as carrier vectors; Coset and Span of their moves)."""
    effects = _algebra_memo(conv, _effects)
    return ([{k: ONE} for k in conv.carrier.basis(1)],
            Coset(effects, conv.carrier.basis(0)), Span(effects))


def _stages(conv: ConvolutionAlgebra) -> list[tuple]:
    """(p, basis_p, stage) for the stages of the staged normal form, one
    per source degree p with degree-0 columns and candidate directions
    (supported in source degrees p - 1 and p).  The stage's combinations
    are the admissible ones, which leave column p - 1 alone, and its
    moves are their l_1 effects on column p."""
    cdeg = conv.C.space.degree_of
    dirs = conv.carrier.basis(1)
    effects = _algebra_memo(conv, _effects)
    columns = dict(_algebra_memo(conv, _columns))
    stages = []
    for p, basis_p in columns.items():
        basis_c = columns.get(p - 1, [])
        cand = [j for j, k in enumerate(dirs) if cdeg[k[0]] in (p - 1, p)]
        if not cand:
            continue
        _, admissible = column_split(
            [_restrict(effects[j], basis_c) for j in cand], cand)
        moves = [_restrict(_combine([effects[j] for j in combo],
                                    combo.values()), basis_p)
                 for combo in admissible]
        combos = [{dirs[j]: c for j, c in combo.items()}
                  for combo in admissible]
        stages.append((p, basis_p, (combos, Coset(moves, basis_p),
                                    Span(moves))))
    return stages


# -- the rigidity sweep --------------------------------------------------

def _flow_rates(conv: ConvolutionAlgebra, x: GradedMap) -> list[Vec]:
    """The flow rate at x of every elementary degree-1 direction, in
    carrier order: the degree-1 columns of the twist by x."""
    keys = conv.carrier.basis(1)
    cols = conv.twisted_columns(x, keys)
    return [cols.get(k, {}) for k in keys]


def _sweep_table(conv: ConvolutionAlgebra, x: GradedMap,
                 columns: list[tuple]) -> list[tuple]:
    """(p, basis_p, Echelon of the flow rates at x on column p) for the
    columns (_columns(conv)) from the bottom through the first that some
    direction moves, which is as far as _rigidity_sweep reads."""
    rates = _flow_rates(conv, x)
    table = []
    for p, basis in columns:
        ech = Echelon()
        for r in rates:
            ech.add(_restrict(r, basis))
        table.append((p, basis, ech))
        if ech.rank:
            break
    return table


def _rigidity_sweep(xv: Vec, yv: Vec, table: list[tuple]) -> int | None:
    """Source degree at which the points with carrier vectors xv and yv
    are certifiably inequivalent, or None when the sweep is inconclusive.

    Walking source degrees from the bottom: while every direction has
    zero flow rate on all columns seen so far, those columns are constant
    along every gauge path out of x, so the rates computed at x stay
    exact one degree higher.  At the first degree where the difference is
    nonzero it must lie in the span of the rates there; if it does not,
    no path from x reaches y.  table is the _sweep_table of x.
    """
    for p, basis, ech in table:
        dp = vec_sub(_restrict(yv, basis), _restrict(xv, basis))
        if dp:
            return p if ech.coords(dp) is None else None
        if ech.rank:
            return None
    return None


# -- normal forms --------------------------------------------------------

def _reduce(conv: ConvolutionAlgebra, stage: tuple, v: Vec) -> tuple:
    """(the coset representative of v under the stage's moves, the
    direction whose moves carry v there, or None when v is reduced)."""
    combos, coset, span = stage
    red = coset.reduce(v)
    if red == v:
        return red, None
    return red, conv.to_map(_combine(combos, span.coords(vec_sub(red, v))),
                            1)


def moduli_normal_form(conv: ConvolutionAlgebra,
                       x: GradedMap) -> ModuliClass:
    """Greedy staged reduction of a Maurer-Cartan element to a canonical
    coset representative, with the realizing gauge paths.

    In the abelian case (no brackets survive the arity window) the orbit
    of x is exactly x + im(d), so the one stage, _abelian_stage over
    every degree-0 column, is a complete coset reduction and distinct
    normal forms imply distinct classes.  Otherwise stages
    run over source degrees: each stage reduces its column by directions
    supported in the two adjacent source degrees, constrained to leave
    the finished columns alone; those moves act linearly on the stage
    column, so the reduction is exact, deterministic, and idempotent,
    but normal forms of equivalent elements are only guaranteed to agree
    when the moves available to general paths are stage-local too.
    """
    res = conv.mc_check(x)
    if not res.is_zero():
        raise ValueError(
            f"normal form of a non-MC element, residual {res.entries!r}")
    if conv.arity_window() <= 1:
        # one stage over every degree-0 column; the source is one-reduced,
        # so no finished column lies below degree 1
        stages = [(1, conv.carrier.basis(0),
                   _algebra_memo(conv, _abelian_stage))]
    else:
        stages = _algebra_memo(conv, _stages)
    poly_bound = default_poly_bound(conv)
    cdeg = conv.C.space.degree_of
    current = x
    chain: list[GaugePath] = []
    for p, basis_p, stage in stages:
        red, lam = _reduce(conv, stage,
                           _restrict(conv.to_vec(current), basis_p))
        if lam is None:
            continue
        path = gauge_flow(conv, current, lam, poly_bound)
        end = path.endpoint(1)
        delta = conv.to_vec(end - current)
        if any(c for k, c in delta.items() if cdeg[k[0]] < p):
            raise AssertionError("stage flow disturbed a finished column")
        if _restrict(conv.to_vec(end), basis_p) != red:
            raise AssertionError("stage flow missed its predicted column")
        chain.append(path)
        current = end
    return ModuliClass(conv, x, current, tuple(chain))


# -- the decision --------------------------------------------------------

# as many points as a component search samples on one family grid
_POINTS_CAP = 64


def _point_key(conv: ConvolutionAlgebra, x: GradedMap) -> tuple:
    return (x.degree, frozenset(conv.to_vec(x).items()))


def _memo(conv: ConvolutionAlgebra, key: tuple, field, compute):
    """compute(), kept under field in the entry of the point with
    _point_key key in conv.point_memo: an LRU of the _POINTS_CAP points
    decided last."""
    entry = lru(conv.point_memo, _POINTS_CAP, key, dict)
    if field not in entry:
        entry[field] = compute()
    return entry[field]


def _abelian_decide(conv: ConvolutionAlgebra, x: GradedMap, y: GradedMap,
                    poly_bound: int):
    combos, _, span = _algebra_memo(conv, _abelian_stage)
    target = conv.to_vec(y - x)
    coeffs = span.coords(target)
    if coeffs is None:
        return Distinct(conv, x, y, "homology-class", {})
    lam = conv.to_map(_combine(combos, coeffs), 1)
    path = gauge_flow(conv, x, lam, poly_bound)
    if not path.endpoint(1).equals(y):
        raise AssertionError("abelian flow missed its predicted endpoint")
    return Equal(conv, x, y, (path,))


def gauge_equivalent(conv: ConvolutionAlgebra, x: GradedMap, y: GradedMap):
    """Decide gauge equivalence of two Maurer-Cartan elements.

    Returns Equal with a verifiable chain of paths, Distinct with a
    verifiable unreachability argument, or Unknown.  Unknown is reserved
    for the genuinely undecided case: normal forms differ but no sound
    separating invariant applies at this arity window.
    """
    kx, ky = _point_key(conv, x), _point_key(conv, y)
    rx = _memo(conv, kx, "residual", lambda: conv.mc_check(x))
    if not rx.is_zero():
        raise ValueError(
            f"first element is not Maurer-Cartan, residual {rx.entries!r}")
    ry = _memo(conv, ky, "residual", lambda: conv.mc_check(y))
    if not ry.is_zero():
        raise ValueError(
            f"second element is not Maurer-Cartan, residual {ry.entries!r}")
    poly_bound = default_poly_bound(conv)
    if x.equals(y):
        return Equal(conv, x, y, (constant_path(conv, x, poly_bound),))
    if conv.arity_window() <= 1:
        return _abelian_decide(conv, x, y, poly_bound)
    table = _memo(conv, kx, "sweep", lambda: _sweep_table(
        conv, x, _algebra_memo(conv, _columns)))
    # a point key holds the point's carrier vector
    stage = _rigidity_sweep(dict(kx[1]), dict(ky[1]), table)
    if stage is not None:
        return Distinct(conv, x, y, "rigid-stage", {"degree": stage})
    nx = _memo(conv, kx, "normal_form", lambda: moduli_normal_form(conv, x))
    ny = _memo(conv, ky, "normal_form", lambda: moduli_normal_form(conv, y))
    if nx.representative.equals(ny.representative):
        back = tuple(p.reversed() for p in reversed(ny.paths))
        return Equal(conv, x, y, nx.paths + back)
    bx = _memo(conv, kx, "betti", lambda: _twisted_betti(conv, x))
    by = _memo(conv, ky, "betti", lambda: _twisted_betti(conv, y))
    if bx != by:
        return Distinct(conv, x, y, "twisted-betti",
                        {"betti_x": dict(bx), "betti_y": dict(by)})
    return Unknown("normal forms differ but no separating invariant "
                   "applies at this arity window")
