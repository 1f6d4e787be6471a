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
computations over exact rational scalars.  gauge_equivalent returns a
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
exact kernel of matrices: column_split, and Coset and Span, which
factor a list of vectors once and then reduce each right-hand side by
one pass.  A normal form is defined by the leading columns of a span
in carrier order, not by an elimination order.

Everything the decision derives is computed once, at the level it
depends on, so a search that decides many pairs over few points pays
per pair only for comparisons:

- per algebra, in ConvolutionAlgebra.algebra_memo: the degree-0 columns
  by source degree, the l_1 effects of the elementary degree-1
  directions, and the stages of the normal form (the admissible
  combinations of each stage's candidate directions, their moves on the
  stage column, and the Coset and Span of those moves), or, when no
  bracket survives, the one stage _abelian_stage, whose moves are all
  the effects;
- per tail restriction, one _TailEntry in the algebra memo's _tails,
  with two fields each computed at most once: sweep_table (the rigid
  columns and the Coset of the flow rates on the first moved column) and
  betti (the nonzero twisted Betti numbers).  By the tail lemma below
  both depend on a point x only through x|tail, so every point with that
  restriction shares them.  The store is an LRU of the _POINTS_CAP
  restrictions used last, keyed by x's nonzero entries on the tail keys;
- per point, its PointRecord, held by the caller that made it, with two
  fields each computed at most once: invariant (the sweep invariant
  below, x's values reduced by its tail entry's sweep table) and
  normal_form (the staged normal form); its betti is read from its tail
  entry.

The rigidity sweep is a per-point invariant by the filtration of a
one-reduced source by source degree, the filtration of the filtered
setting of Dolgushev and Rogers (arXiv:1407.6735).  Lemma: for a point x
and an elementary degree-1 direction e, the degree-1 twisted column
d^x(e) restricted to column p (the source keys of degree p) depends only
on the columns of x below p.  Its l_1 part does not involve x, and its
bracket terms at a source key c of degree p are l_n^L(e(w_1), x(w_2),
..., x(w_n)) over the words w of the iterated reduced coproduct of c:
the coproduct has degree 0 and every letter has degree at least 2, so
each x(w_i) reads a column of degree at most p - 2.  The sweep invariant
of x walks the columns from the bottom: x's values on each rigid column
(one that no flow rate at x moves) and, on the first column some
direction moves, the Coset representative of x's values modulo the flow
rates there.  It is a gauge invariant.  Along a gauge path x(t), dx/dt
on column p lies in the span of the flow rates at x(t) there.  By
induction from the bottom column, the columns below p are constant along
the path, so by the lemma the rates on column p are those at x: zero on
a rigid column, which then stays constant too, and on the first moved
column the same span, which keeps x(t) in one coset.  Hence the first
column where the sweep invariants of x and y differ certifies that no
path joins them (gauge_equivalent's rigid-stage answer).

Tail lemma: call the tail keys of conv (ConvolutionAlgebra.tail_keys)
the source keys that occur at position 2 or later in a word of the
iterated coproduct Delta^(n-1)(c), for some c and 2 <= n <= the arity
window.  Then the twisted differential d^x depends on x only through
its restriction x|tail.  Proof: d^x(e_k) is l_1(e_k), which does not
involve x, plus for each arity n the sum over the words w of
Delta^(n-1)(c) of n gamma_w l_n^L(e_k(w_1), x(w_2), ..., x(w_n)), which
reads x only at w_2, ..., w_n, tail keys by definition.  So the flow
rates, the sweep table built from them, the twisted complex with its
d o d = 0 assertion and the twisted Betti numbers are functions of
x|tail, and points that agree there share them.

A PointRecord is the checked Maurer-Cartan element: its constructor
computes the residual once and raises NotMaurerCartan unless it is
zero.  The component search, hopf.mc_of_map and the CLI's element
arguments each build the record of a point once and hold it (the class
starts of mapping.components, the algebra store's "pushed", one call),
and the decision, moduli_normal_form, ConvolutionAlgebra.twist,
mapping.pi_of_component and hopf.maps_homotopic take them, so none of
those checks a point again; the decision and twist refuse a record of
another algebra.  Every path the decision builds has the polynomial
bound default_poly_bound(conv), so a point has one normal form per
algebra; the algebra store also keeps the C and L records that modelio
writes into every certificate over the algebra, and the records of the
strict maps hopf pushed into it.  Every verify() and path_check
recompute from scratch, the columns, sweep tables, sweep invariants and
twisted Betti numbers included, and never read the algebra store
(Distinct.verify twists by fresh records), so a certificate is checked
again rather than looked up, and a stale or damaged entry cannot make a
wrong answer verify; a damaged stage that predicts a wrong flow endpoint
fails the stage-flow assertions instead.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import cached_property
from math import comb

from .convolution import ConvolutionAlgebra
from .graded import GradedMap, Vec, add_term, exact_repr, lru, vec_sub
from .matrices import ONE, Coset, Span, column_split, inverse, scalar
from .models import IntervalForms, extension_of_scalars


def default_poly_bound(conv: ConvolutionAlgebra) -> int:
    """Polynomial degree bound that covers the flows of every nilpotency
    depth a source of this size can produce, with slack: two more than
    the number of source degrees, and at least 4."""
    return max(4, len(conv.C.space.degrees()) + 2)


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
                if k < 0:
                    raise ValueError(
                        f"{name} part t^{k}{dt} has negative power {k}")
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
        t = scalar(t)
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
                    part = f.scale(sign * comb(k, j) * (-1) ** j)
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
            dst[(("p", k + 1), lk)] = c * inverse(k + 1)
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
            "cannot flow a non-MC element, residual "
            f"{exact_repr(res.entries)}")
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
        conv = self.conv
        try:
            # fresh records, never the store's
            x, y = PointRecord(conv, self.x), PointRecord(conv, self.y)
        except NotMaurerCartan:
            return False
        if self.kind == "rigid-stage":
            columns = _columns(conv)
            ix, iy = (_sweep_invariant(conv, r.x,
                                       _sweep_table(conv, r.x, columns))
                      for r in (x, y))
            return _first_difference(ix, iy) == self.witness["degree"]
        if self.kind == "homology-class":
            dv = conv.to_vec(y.x - x.x)
            if conv.arity_window() > 1 or not dv:
                return False
            tw = conv.twist(x)
            if tw.d.apply(dv):
                return False
            bnd = [tw.d.entries.get(k, {}) for k in conv.carrier.basis(1)]
            return Span(bnd).coords(dv) is None
        if self.kind == "twisted-betti":
            bx, by = _betti(conv.twist(x)), _betti(conv.twist(y))
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

def _sweep_table(conv: ConvolutionAlgebra, x: GradedMap,
                 columns: list[tuple]) -> list[tuple]:
    """(p, basis, coset) for the columns (_columns(conv)) from the bottom
    through the first that a flow rate at x (a degree-1 column of the
    twist by x) moves: coset is None on a rigid column and, on the moved
    column, the Coset of the flow rates there.  By the tail lemma of the
    module docstring it depends on x only through x|tail."""
    rates = conv.twisted_columns(x, conv.carrier.basis(1)).values()
    out = []
    for p, basis in columns:
        moves = [m for m in (_restrict(r, basis) for r in rates) if m]
        if moves:
            out.append((p, basis, Coset(moves, basis)))
            break
        out.append((p, basis, None))
    return out


def _sweep_invariant(conv: ConvolutionAlgebra, x: GradedMap,
                     table: list[tuple]) -> list[tuple]:
    """(p, entry) for the columns of the sweep table of x: x's values on
    a rigid column, and on the moved column the Coset representative of
    x's values modulo the flow rates there."""
    xv = conv.to_vec(x)
    return [(p, _restrict(xv, basis) if coset is None
             else coset.reduce(_restrict(xv, basis)))
            for p, basis, coset in table]


def _betti(complex_) -> dict[int, int]:
    """The nonzero Betti numbers of a twisted complex, by degree."""
    return {k: v for k, v in sorted(complex_.betti().items()) if v}


def _first_difference(ix: list[tuple], iy: list[tuple]) -> int | None:
    """The first column p at which the sweep invariants ix and iy differ,
    or None when they agree.  By the filtration lemma of the module
    docstring the sweep invariant is constant along every gauge path, so
    a difference certifies that the two points are inequivalent."""
    for (p, a), (_, b) in zip(ix, iy):
        if a != b:
            return p
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


def moduli_normal_form(x: PointRecord) -> ModuliClass:
    """Greedy staged reduction of a Maurer-Cartan element, the record x,
    to a canonical coset representative, with the realizing gauge paths.

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
    conv = x.conv
    if conv.arity_window() <= 1:
        # one stage over every degree-0 column; the source is one-reduced,
        # so no finished column lies below degree 1
        stages = [(1, conv.carrier.basis(0),
                   _algebra_memo(conv, _abelian_stage))]
    else:
        stages = _algebra_memo(conv, _stages)
    poly_bound = default_poly_bound(conv)
    cdeg = conv.C.space.degree_of
    current = x.x
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
    return ModuliClass(conv, x.x, current, tuple(chain))


# -- the decision --------------------------------------------------------

# the tail restrictions kept per algebra: as many as a component search
# has points on one family grid
_POINTS_CAP = 64


class NotMaurerCartan(ValueError):
    """The refusal of a point whose Maurer-Cartan residual, kept as
    residual, is not zero."""

    def __init__(self, residual: GradedMap):
        super().__init__("not a Maurer-Cartan element, residual "
                         f"{exact_repr(residual.entries)}")
        self.residual = residual


class PointRecord:
    """The Maurer-Cartan element x of conv, checked: the constructor
    computes the residual once and raises NotMaurerCartan unless it is
    zero.  What the decision derives from x is computed on first use and
    then kept: invariant (the sweep invariant, x's values reduced by the
    sweep table of x|tail), normal_form (the staged normal form) and
    betti (the nonzero twisted Betti numbers of x|tail).  The sweep table
    and the Betti numbers are read from the _TailEntry of x|tail, which
    every point of conv with that restriction shares."""

    def __init__(self, conv: ConvolutionAlgebra, x: GradedMap):
        residual = conv.mc_check(x)
        if not residual.is_zero():
            raise NotMaurerCartan(residual)
        self.conv = conv
        self.x = x

    @cached_property
    def tail(self) -> _TailEntry:
        """The entry of x|tail in the algebra memo's _tails, an LRU of the
        _POINTS_CAP restrictions used last."""
        conv = self.conv
        return lru(conv.algebra_memo.setdefault("_tails", OrderedDict()),
                   _POINTS_CAP, _tail_key(conv, self.x),
                   lambda: _TailEntry(self))

    @cached_property
    def invariant(self) -> list[tuple]:
        return _sweep_invariant(self.conv, self.x, self.tail.sweep_table)

    @cached_property
    def normal_form(self) -> ModuliClass:
        return moduli_normal_form(self)

    @cached_property
    def betti(self) -> dict[int, int]:
        return self.tail.betti


class _TailEntry:
    """What a point x of conv determines through x|tail alone (the tail
    lemma of the module docstring), each computed on first use from the
    record that made the entry: sweep_table and betti."""

    def __init__(self, record: PointRecord):
        self.record = record

    @cached_property
    def sweep_table(self) -> list[tuple]:
        conv = self.record.conv
        return _sweep_table(conv, self.record.x,
                            _algebra_memo(conv, _columns))

    @cached_property
    def betti(self) -> dict[int, int]:
        return _betti(self.record.conv.twist(self.record))


def _tail_key(conv: ConvolutionAlgebra, x: GradedMap) -> frozenset:
    tail = conv.tail_keys
    return frozenset((k, c) for k, c in conv.to_vec(x).items()
                     if k[0] in tail)


def _abelian_decide(conv: ConvolutionAlgebra, x: GradedMap, y: GradedMap):
    combos, _, span = _algebra_memo(conv, _abelian_stage)
    target = conv.to_vec(y - x)
    coeffs = span.coords(target)
    if coeffs is None:
        return Distinct(conv, x, y, "homology-class", {})
    lam = conv.to_map(_combine(combos, coeffs), 1)
    path = gauge_flow(conv, x, lam)
    if not path.endpoint(1).equals(y):
        raise AssertionError("abelian flow missed its predicted endpoint")
    return Equal(conv, x, y, (path,))


def gauge_equivalent(x: PointRecord, y: PointRecord):
    """Decide gauge equivalence of two Maurer-Cartan elements, the records
    x and y of one algebra; records of two algebras are refused.

    Returns Equal with a verifiable chain of paths, Distinct with a
    verifiable unreachability argument, or Unknown.  Unknown is reserved
    for the genuinely undecided case: normal forms differ but no sound
    separating invariant applies at this arity window.

    Everything is read from the two records.  The rigid-stage answer is
    the first column where the sweep invariants differ, a gauge
    invariant by the filtration lemma of the module docstring; its
    verify() computes the columns and both invariants from scratch.
    """
    conv = x.conv
    if y.conv is not conv:
        raise ValueError(f"elements of two algebras, {conv.name} and "
                         f"{y.conv.name}, cannot be compared")
    if conv.to_vec(x.x) == conv.to_vec(y.x):
        return Equal(conv, x.x, y.x,
                     (constant_path(conv, x.x, default_poly_bound(conv)),))
    if conv.arity_window() <= 1:
        return _abelian_decide(conv, x.x, y.x)
    stage = _first_difference(x.invariant, y.invariant)
    if stage is not None:
        return Distinct(conv, x.x, y.x, "rigid-stage", {"degree": stage})
    nx, ny = x.normal_form, y.normal_form
    if nx.representative.equals(ny.representative):
        back = tuple(p.reversed() for p in reversed(ny.paths))
        return Equal(conv, x.x, y.x, nx.paths + back)
    if x.betti != y.betti:
        return Distinct(conv, x.x, y.x, "twisted-betti",
                        {"betti_x": dict(x.betti), "betti_y": dict(y.betti)})
    return Unknown("normal forms differ but no separating invariant "
                   "applies at this arity window")
