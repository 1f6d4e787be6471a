"""Gauge paths between Maurer-Cartan elements, exact polynomial flows,
and a certified equivalence decision for convolution algebras.

A gauge path is a Maurer-Cartan element of the convolution algebra after
extending the target by polynomial forms on the interval: its value on a
source element is a polynomial family x(t) plus a dt part lambda(t) dt.
The extended Maurer-Cartan equation says simultaneously that every x(t)
is Maurer-Cartan and that dx/dt equals the gauge vector field

    dx/dt = l_1(lambda) + sum_{n>=1} 1/n! l_{n+1}(lambda, x, ..., x),

so flowing along a degree-1 direction and checking a claimed path are
both exact computations over Fraction scalars.  gauge_equivalent returns
a certificate in every case: Equal carries a chain of paths that can be
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
exact kernel of matrices: span_coords, column_split and coset_reduce.
A normal form is defined by the leading columns of a span in carrier
order, not by an elimination order.

What the decision derives from one point alone is kept on the algebra,
so a search that decides many pairs over few points computes it once per
point: the Maurer-Cartan residual, the flow rates of the degree-1
directions that the rigidity sweep reads, the staged normal form and the
nonzero twisted Betti numbers.  Every path the decision builds has the
polynomial bound default_poly_bound(conv), so a point has one normal
form per algebra.  The store, ConvolutionAlgebra.point_memo, is an LRU
of the _POINTS_CAP points used last, keyed by the degree and exact
coefficients of the point.  Only gauge_equivalent and its helpers read
it.  Every verify() and path_check recompute from scratch, so a
certificate is checked again rather than looked up, and a stale or
damaged entry cannot make a wrong answer verify.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .convolution import ConvolutionAlgebra
from .graded import GradedMap, Vec, add_term, vec_sub
from .matrices import ZERO, column_split, coset_reduce, span_coords
from .models import IntervalForms, extension_of_scalars

F = Fraction


def default_poly_bound(conv: ConvolutionAlgebra) -> int:
    """Polynomial degree bound that covers the flows of every nilpotency
    depth a source of this size can produce, with slack."""
    degrees = {conv.C.space.degree_of[k] for k in conv.C.space.all_keys()}
    return max(4, len(degrees) + 2)


def vector_field(conv: ConvolutionAlgebra, x: GradedMap,
                 lam: GradedMap) -> GradedMap:
    """Right-hand side of the gauge flow equation at the point x in the
    direction lam: l_1(lam) + sum 1/n! l_{n+1}(lam, x, ..., x)."""
    if lam.degree != 1:
        raise ValueError("gauge directions must have degree 1")
    return conv.twisted_differential(x, lam)


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
            rate = vector_field(ext_conv, current, lam_p)
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
            stage = _rigidity_sweep(conv, x, y, _flow_rates(conv, x))
            return stage == self.witness["degree"]
        if self.kind == "homology-class":
            dv = conv.to_vec(y - x)
            if conv.arity_window() > 1 or not dv:
                return False
            tw = conv.twist(x)
            if tw.d.apply(dv):
                return False
            bnd = [tw.d.entries.get(k, {}) for k in conv.carrier.basis(1)]
            return span_coords(bnd, dv) is None
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
    return {k: v for k, v in sorted(conv.twisted_betti(x).items()) if v}


def _direction_maps(conv: ConvolutionAlgebra) -> list[tuple]:
    """The elementary degree-1 directions, paired with their carrier key."""
    return [(k, conv.elementary(*k)) for k in conv.carrier.basis(1)]


def _combine(conv: ConvolutionAlgebra, dirs: list[tuple],
             coeffs: list) -> GradedMap:
    out = conv.zero_map(1)
    for (key, e), c in zip(dirs, coeffs):
        if c:
            out = out + e.scale(c)
    return out


# -- the rigidity sweep --------------------------------------------------

def _flow_rates(conv: ConvolutionAlgebra, x: GradedMap) -> list[Vec]:
    """The flow rate at x of every elementary degree-1 direction, in the
    order of _direction_maps: only the degree-1 columns of the twist."""
    return [conv.to_vec(vector_field(conv, x, e))
            for _, e in _direction_maps(conv)]


def _rigidity_sweep(conv: ConvolutionAlgebra, x: GradedMap, y: GradedMap,
                    rates: list[Vec]) -> int | None:
    """Source degree at which x and y are certifiably inequivalent, or
    None when the sweep is inconclusive.

    Walking source degrees from the bottom: while every direction has
    zero flow rate on all columns seen so far, those columns are constant
    along every gauge path out of x, so the rates computed at x stay
    exact one degree higher.  At the first degree where the difference is
    nonzero it must lie in the span of the rates there; if it does not,
    no path from x reaches y.  rates are _flow_rates(conv, x).
    """
    diff = conv.to_vec(y - x)
    cdeg = conv.C.space.degree_of
    keys0 = conv.carrier.basis(0)
    for p in sorted({cdeg[k] for k in conv.C.space.all_keys()}):
        basis = [k for k in keys0 if cdeg[k[0]] == p]
        if not basis:
            continue
        dp = _restrict(diff, basis)
        moves = [_restrict(r, basis) for r in rates]
        if dp:
            return p if span_coords(moves, dp) is None else None
        if any(moves):
            return None
    return None


# -- normal forms --------------------------------------------------------

def _abelian_normal_form(conv: ConvolutionAlgebra, x: GradedMap,
                         poly_bound: int) -> ModuliClass:
    dirs = _direction_maps(conv)
    effects = [conv.to_vec(conv.differential_of(e)) for _, e in dirs]
    xv = conv.to_vec(x)
    red = coset_reduce(xv, effects, conv.carrier.basis(0))
    if red == xv:
        return ModuliClass(conv, x, x, ())
    coeffs = span_coords(effects, vec_sub(red, xv))
    lam = _combine(conv, dirs, coeffs)
    path = gauge_flow(conv, x, lam, poly_bound)
    rep = path.endpoint(1)
    if conv.to_vec(rep) != red:
        raise AssertionError("abelian flow missed its predicted endpoint")
    return ModuliClass(conv, x, rep, (path,))


def _staged_normal_form(conv: ConvolutionAlgebra, x: GradedMap,
                        poly_bound: int) -> ModuliClass:
    cdeg = conv.C.space.degree_of
    keys0 = conv.carrier.basis(0)
    dirs = _direction_maps(conv)
    current = x
    chain: list[GaugePath] = []
    for p in sorted({cdeg[k] for k in conv.C.space.all_keys()}):
        cand = [(k, e) for k, e in dirs if cdeg[k[0]] in (p - 1, p)]
        basis_p = [k for k in keys0 if cdeg[k[0]] == p]
        if not cand or not basis_p:
            continue
        effects = [conv.to_vec(conv.differential_of(e)) for _, e in cand]
        basis_c = [k for k in keys0 if cdeg[k[0]] == p - 1]
        # the combinations of the candidates that leave column p - 1 alone
        _, admissible = column_split(
            [_restrict(eff, basis_c) for eff in effects], range(len(cand)))
        moves = []
        for combo in admissible:
            acc: Vec = {}
            for j, c in combo.items():
                for k, v in effects[j].items():
                    add_term(acc, k, c * v)
            moves.append(_restrict(acc, basis_p))
        cur_p = _restrict(conv.to_vec(current), basis_p)
        red = coset_reduce(cur_p, moves, basis_p)
        if red == cur_p:
            continue
        sel = span_coords(moves, vec_sub(red, cur_p))
        coeffs = [sum((s * combo.get(j, ZERO)
                       for s, combo in zip(sel, admissible)), ZERO)
                  for j in range(len(cand))]
        lam = _combine(conv, cand, coeffs)
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


def moduli_normal_form(conv: ConvolutionAlgebra,
                       x: GradedMap) -> ModuliClass:
    """Greedy staged reduction of a Maurer-Cartan element to a canonical
    coset representative, with the realizing gauge paths.

    In the abelian case (no brackets survive the arity window) the orbit
    of x is exactly x + im(d), one global coset reduction is complete,
    and distinct normal forms imply distinct classes.  Otherwise stages
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
    poly_bound = default_poly_bound(conv)
    if conv.arity_window() <= 1:
        return _abelian_normal_form(conv, x, poly_bound)
    return _staged_normal_form(conv, x, poly_bound)


# -- the decision --------------------------------------------------------

# as many points as a component search samples on one family grid
_POINTS_CAP = 64


def _point_key(conv: ConvolutionAlgebra, x: GradedMap) -> tuple:
    return (x.degree, frozenset(conv.to_vec(x).items()))


def _memo(conv: ConvolutionAlgebra, x: GradedMap, field, compute):
    """compute(), kept under field in the entry of x in conv.point_memo:
    an LRU of the _POINTS_CAP points decided last."""
    key = _point_key(conv, x)
    memo = conv.point_memo
    entry = memo.get(key)
    if entry is None:
        entry = memo[key] = {}
        if len(memo) > _POINTS_CAP:
            memo.popitem(last=False)
    else:
        memo.move_to_end(key)
    if field not in entry:
        entry[field] = compute()
    return entry[field]


def _abelian_decide(conv: ConvolutionAlgebra, x: GradedMap, y: GradedMap,
                    poly_bound: int):
    dirs = _direction_maps(conv)
    effects = [conv.to_vec(conv.differential_of(e)) for _, e in dirs]
    target = conv.to_vec(y - x)
    coeffs = span_coords(effects, target)
    if coeffs is None:
        witness = {"class_degree": 0,
                   "cycle": sorted(target.items(), key=lambda kv:
                                   conv.carrier.sort_key(kv[0]))}
        return Distinct(conv, x, y, "homology-class", witness)
    lam = _combine(conv, dirs, coeffs)
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
    rx = _memo(conv, x, "residual", lambda: conv.mc_check(x))
    if not rx.is_zero():
        raise ValueError(
            f"first element is not Maurer-Cartan, residual {rx.entries!r}")
    ry = _memo(conv, y, "residual", lambda: conv.mc_check(y))
    if not ry.is_zero():
        raise ValueError(
            f"second element is not Maurer-Cartan, residual {ry.entries!r}")
    poly_bound = default_poly_bound(conv)
    if x.equals(y):
        return Equal(conv, x, y, (constant_path(conv, x, poly_bound),))
    if conv.arity_window() <= 1:
        return _abelian_decide(conv, x, y, poly_bound)
    rates = _memo(conv, x, "rates", lambda: _flow_rates(conv, x))
    stage = _rigidity_sweep(conv, x, y, rates)
    if stage is not None:
        return Distinct(conv, x, y, "rigid-stage", {"degree": stage})
    nx = _memo(conv, x, "normal_form", lambda: moduli_normal_form(conv, x))
    ny = _memo(conv, y, "normal_form", lambda: moduli_normal_form(conv, y))
    if nx.representative.equals(ny.representative):
        back = tuple(p.reversed() for p in reversed(ny.paths))
        return Equal(conv, x, y, nx.paths + back)
    bx = _memo(conv, x, "betti", lambda: _twisted_betti(conv, x))
    by = _memo(conv, y, "betti", lambda: _twisted_betti(conv, y))
    if bx != by:
        return Distinct(conv, x, y, "twisted-betti",
                        {"betti_x": dict(bx), "betti_y": dict(by)})
    return Unknown("normal forms differ but no separating invariant "
                   "applies at this arity window")
