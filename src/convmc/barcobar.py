"""Bar and cobar constructions, the twisting residual that governs the
Maurer-Cartan adjunction between them, and the algebra maps that
coalgebra morphisms induce on cobar constructions.

bar(L) is the cofree conilpotent cocommutative coalgebra on the carrier
of L: sorted symmetric words, coproduct summing over position splits, and
the coderivation differential that applies every l_n to every n-letter
position subset with unshuffle signs.  cobar(C) is the free Lie algebra
on the desuspended basis of C (classical degree drops by one), with the
derivation differential d(c^) = (d_C c)^ - 1/2 sum (-1)^{|c'|} [c'^, c''^]
over the stored coproduct terms of c.  The 1/2 is forced by the
adjunction: without it the chain condition for algebra maps out of
cobar(C) would disagree with the chain condition for coalgebra maps into
bar(L) by a factor of two in the quadratic term.

Both constructions truncate by degree and record the window in which
their homology is complete: a degree cap of degree_max leaves H_n exact
for n <= degree_max - 1, because only differentials entering from the
cut-off degree are missing.

The adjunction turns a degree-0 map tau in Hom(C, L) into a coalgebra
map C -> bar(L) (divided-power exponential of tau against the iterated
coproduct) and into an algebra map cobar(C) -> L (evaluate bracket
expressions with the shifted binary bracket); both are dg morphisms
exactly when the twisting residual of tau vanishes, see
twisting_residual below, which transfer.push_mc gates on.  The two legs
of the adjunction, the universal factorization through them and the
counit quasi-isomorphism cobar(bar(L)) -> L are built and checked in
tests/test_barcobar.py, the reference for those identities, together
with the universal twisting morphism bar(L) -> L they rest on.
"""

from __future__ import annotations

from math import factorial

from . import words as wd
from .convolution import ConvolutionAlgebra, check_coalgebra_morphism
from .freelie import FreeLie, is_bracket
from .graded import (GradedMap, GradedSpace, Key, Vec, add_term, vec_add,
                     vec_scale)
from .matrices import ONE, inverse
from .models import CdgCoalgebra, LInfinityAlgebra, QuillenModel


def twisting_residual(conv: ConvolutionAlgebra, tau: GradedMap) -> GradedMap:
    """Obstruction for tau to induce dg morphisms on both sides of the
    adjunction: the sum over n of 1/(n!)^2 l_n(tau, ..., tau).

    l_n(tau, ..., tau) is n! times the sum over the words of the iterated
    coproduct (the collapse in the convolution docstring), so this is
    that sum with weight 1/n!: exactly the letter part of the chain
    condition for the cofree lift of tau, with the weights of the
    divided-power exponential.  Whenever the obstruction lives in a
    single arity (every bundled pair: sources have zero differential, or
    targets are abelian) the two residuals vanish together; they differ
    on carriers that mix a nonzero differential with a nonzero
    coproduct, such as bar outputs.
    """
    if tau.degree != 0:
        raise ValueError("twisting-morphism candidates must have degree 0")
    return conv.differential_of(tau) + conv.series(
        [tau], -1, lambda n: inverse(factorial(n)))


class BarCoalgebra(CdgCoalgebra):
    """Symmetric words on the carrier of L with the bar differential.

    exact_through marks the last degree where homology classes and
    relations are both inside the truncation.
    """

    def __init__(self, space: GradedSpace, d: GradedMap, delta: dict,
                 L: LInfinityAlgebra, degree_max: int, name: str = ""):
        super().__init__(space, d, delta, name=name or f"B({L.name})")
        self.L = L
        self.degree_max = degree_max
        self.exact_through = degree_max - 1


def bar(L: LInfinityAlgebra, degree_max: int) -> BarCoalgebra:
    letters = L.space
    if letters.total_dim() and min(letters.degrees()) < 1:
        raise ValueError(
            "bar needs carrier degrees >= 1, otherwise the truncated word "
            "basis is infinite")
    wsp = wd.word_space(letters, degree_max, name=f"B({L.name})")
    comps = {n: (lambda word, n=n: L.bracket(n, word)) for n in L.arities}
    d = wd.coderivation(comps, wsp, letters, -1, name="d_B")
    if not d.compose(d).is_zero():
        raise AssertionError("bar differential does not square to zero")
    delta: dict[Key, Vec] = {}
    for w in wsp.all_keys():
        col: Vec = {}
        for (pair, c) in wd.reduced_coproduct_terms(letters, w):
            add_term(col, pair, c)
        if col:
            delta[w] = col
    return BarCoalgebra(wsp, d, delta, L, degree_max)


class CobarAlgebra(QuillenModel):
    """Free Lie algebra on the desuspended basis of a coalgebra, with the
    cobar differential, in classical degrees.

    The letter keys are the coalgebra's own basis keys, one classical
    degree down.  as_linfty() is the degree +1 presentation used by every
    consumer that mixes cobar output with convolution carriers, and
    exact_through is the last shifted degree with complete homology.
    """

    def __init__(self, fl: FreeLie, delta: GradedMap, C: CdgCoalgebra,
                 degree_max: int, name: str = ""):
        super().__init__(fl, delta, name=name or f"Omega({C.name})")
        self.C = C
        self.degree_max = degree_max
        self.exact_through = degree_max - 1

    def inclusion(self) -> GradedMap:
        """Generator inclusion C -> cobar(C) in the shifted presentation,
        degree 0; generators above the truncation are dropped."""
        sh = self.as_linfty().space
        cols = {c: {c: ONE} for c in self.C.space.all_keys() if c in sh}
        return GradedMap(self.C.space, sh, 0, cols, name="iota")


def cobar(C: CdgCoalgebra, degree_max: int) -> CobarAlgebra:
    if not C.is_one_reduced():
        raise ValueError("cobar needs a one-reduced coalgebra")
    letters = GradedSpace({n - 1: list(C.space.basis(n))
                           for n in C.space.degrees()},
                          name=f"gen({C.name})")
    fl = FreeLie(letters, deg_max=degree_max - 1)
    vals: dict[Key, Vec] = {}
    for c in C.space.all_keys():
        if C.space.degree_of[c] - 1 > fl.deg_max:
            continue
        col: Vec = dict(C.d.column(c))
        for (w1, w2), gamma in C.delta.get(c, {}).items():
            sgn = -gamma if C.space.degree_of[w1] % 2 == 0 else gamma
            term = fl.bracket({w1: ONE}, {w2: ONE})
            col = vec_add(col, vec_scale(sgn * inverse(2), term))
        if col:
            vals[c] = col
    delta = fl.derivation(vals, -1, name="d_Omega")
    if not delta.compose(delta).is_zero():
        raise AssertionError("cobar differential does not square to zero")
    return CobarAlgebra(fl, delta, C, degree_max)


def cobar_map(h: GradedMap, source: CobarAlgebra, target: CobarAlgebra
              ) -> GradedMap:
    """The algebra map cobar(C') -> cobar(C) induced by a coalgebra
    morphism h: C' -> C, in classical degrees; checked to be a chain
    map.  Composition of induced maps matches induction of composites
    as an exact matrix identity.  Brackets of basis elements are read
    from target.fl's table of basis-pair brackets, which the cobar
    differential has already partly filled and this call extends."""
    check_coalgebra_morphism(source.C, target.C, h)
    memo: dict = {}

    def value(e) -> Vec:
        if e in memo:
            return memo[e]
        if not is_bracket(e):
            out = h.apply({e: ONE})
        else:
            va, vb = value(e[1]), value(e[2])
            out = target.fl.bracket(va, vb) if va and vb else {}
        memo[e] = out
        return out

    cols = {e: v for e in source.fl.space.all_keys() if (v := value(e))}
    g = GradedMap(source.fl.space, target.fl.space, 0, cols,
                  name=f"Omega({h.name or 'h'})")
    if not g.compose(source.delta).equals(target.delta.compose(g)):
        raise AssertionError("induced cobar map is not a chain map")
    return g
