"""Homotopy transfer along a chain contraction, and pushforward of
Maurer-Cartan elements along the resulting infinity-morphisms.

Everything here is one application of the perturbation lemma to symmetric
words.  Words on the big carrier form the coalgebra underlying the bar
construction; the brackets of arity >= 2 assemble into a coderivation
delta that strictly shortens words, so the perturbation series is a
finite sum.  A contraction (i, p, h) of the carrier lifts to words:
i and p act letter by letter, and the lifted homotopy hhat is the average
over the n! orderings of an n-letter word of

    id tensor ... tensor id tensor h tensor (i p) tensor ... tensor (i p).

The average is taken without listing orderings.  A term is fixed by the
letter a in the h slot and the set S of other positions in front of it;
the rest T follows through i p.  Reordering S or T changes the ordering
sign and the sort sign back to a word by the same Koszul factor, because
id and i p keep degrees, so all |S|! |T|! orderings of one (a, S) give
the same word and hhat takes that term, in word order, with the weight
|S|! |T|! / n!.  That is n 2^(n-1) terms per word instead of n n!.

Only letters where h does not vanish, supp(h), can feed hhat: a word
with no letter in supp(h) is killed by it.  When supp(h) is empty, as
on a complex with zero differential, hhat is zero and the series stops
after one delta.  Then only the ambient bracket whose arity is the word
length matters, since any shorter one leaves a longer word that hhat
kills, and the outputs are l'_n = p l_n i, i'_n = 0 and p'_n = 0 for
n >= 2.  Both rules drop only terms that are exactly zero.

With the homotopy identity written as
id - i p = d h + h d (the convention of graded.Contraction), the series
has to be taken with alternating signs,

    A = delta - delta hhat delta + delta hhat delta hhat delta - ...

and the perturbed data read off from it give all three outputs at once:

    transferred bracket   l'_n = p . (letter part of A ihat)
    inclusion component   i'_n = -h . (letter part of A ihat)
    projection component  p'_n = p . (letter part of A (-hhat))

for n >= 2, while l'_1, i'_1, p'_1 are the small differential, i and p.
InfinityMorphism is a models.SymmetricOperations of degree 0, so it
shares the brackets' lookup, extension over forms and writer.
No word space is ever materialized; maps are evaluated lazily on the
words actually reached, so cost scales with the arity window rather than
with the size of a bar construction.

The sign of the series is forced by the coherence identity at arity 2:
the inclusion needs l_1(i'_2(x, y)) = -l_2(i x, i y) + i l'_2(x, y),
which is d h applied to l_2(i x, i y) read through the homotopy identity
with a minus sign on h.  The tests check the identity at every arity
with a reference evaluation of both sides of the infinity-morphism
identity (coherence_residual in tests/test_transfer.py, with
strict_infinity, the plain maps viewed as infinity-morphisms), so the
convention is tested rather than trusted.

push_path, the transport of gauge paths, is reached from no command yet;
it is kept for the component search over a transferred model, which will
move gauge certificates with it.

Library API: push_path
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from . import words as wd
from .barcobar import CobarAlgebra, twisting_residual
from .convolution import ConvolutionAlgebra, convolve
from .gauge import GaugePath
from .graded import (Contraction, GradedMap, TensorSpace, Vec, add_term,
                     contraction_from_complex, tensor_terms)
from .matrices import ONE
from .models import (CdgCoalgebra, IntervalForms, LInfinityAlgebra,
                     SymmetricOperations, Truncation, extended)

F = Fraction

WVec = dict


class InfinityMorphism(SymmetricOperations):
    """Morphism of shifted L-infinity algebras given by graded symmetric
    degree-0 components on source words, one per arity, landing in the
    target's space (models.SymmetricOperations of degree 0).

    Components are produced lazily by a compute hook and cached on sorted
    words.  Nothing is assumed about them, so broken candidates can be
    built and inspected; the tests evaluate the morphism identity word by
    word and pin it down empirically.
    """

    symbol = "f"
    component_multi = SymmetricOperations.multi

    def __init__(self, source: LInfinityAlgebra, target: LInfinityAlgebra,
                 arities, compute, name: str = ""):
        super().__init__(source.space, target.space, 0, name=name,
                         arities=arities, compute=compute)
        self.source = source
        self.target = target

    def component(self, n: int, args) -> Vec:
        """Value of the arity-n component on a tuple of source basis keys."""
        return SymmetricOperations.value(self, n, args)

    def value(self, n: int, args) -> Vec:
        # component_multi, models.extended and modelio.operation_rows come
        # here: every evaluation passes component, which perfbench counts
        return self.component(n, args)


class TransferredLInfinity:
    """Structure induced on the small side of a contraction, with the
    inclusion and projection infinity-morphisms that extend i and p.

    The ambient algebra's differential must agree with the contraction's
    big differential; the transferred arity-1 bracket is the small
    differential.  Brackets and morphism components are computed lazily
    through the word-level perturbation series and cached.
    """

    def __init__(self, ambient: LInfinityAlgebra, contraction: Contraction,
                 arity_max: int = 3):
        if arity_max < 1:
            raise ValueError("arity_max must be at least 1")
        if contraction.big.space.degree_of != ambient.space.degree_of:
            raise ValueError("contraction does not retract the ambient carrier")
        if not contraction.big.d.equals(ambient.l1()):
            raise ValueError("contraction differential differs from l_1")
        self.ambient = ambient
        self.contraction = contraction
        self.arity_max = arity_max
        self._ip = contraction.i.compose(contraction.p)
        self._h_support = frozenset(k for k, col in contraction.h.entries.items()
                                    if col)
        self._delta_arities = [n for n in ambient.arities if n >= 2]
        self._tree: dict[tuple, Vec] = {}
        self._cotree: dict[tuple, Vec] = {}
        small = contraction.small
        self.algebra = LInfinityAlgebra(
            small.space, {},
            name=small.space.name or f"transfer({ambient.name})",
            arities=list(range(1, arity_max + 1)),
            compute=self._bracket)

    def _letterwise(self, m: GradedMap, wv: WVec) -> WVec:
        """Apply an even degree-0 map to every letter of every word."""
        out: WVec = {}
        for word, c in wv.items():
            images = (m.entries.get(let, {}) for let in word)
            for seq, cc in tensor_terms(images, c):
                wd.add_word(m.dst, out, seq, cc)
        return out

    def _apply_delta(self, wv: WVec) -> WVec:
        """Coderivation collecting the ambient brackets of arity >= 2."""
        amb = self.ambient
        letters = amb.space
        out: WVec = {}
        for word, c in wv.items():
            n = len(word)
            degs = [letters.degree_of[k] for k in word]
            # with h = 0 a shorter bracket leaves a word hhat kills
            arities = (self._delta_arities if self._h_support
                       else [n] if n in self._delta_arities else [])
            for seq, ck in wd.coderivation_terms(amb.bracket, arities, degs,
                                                 word):
                wd.add_word(letters, out, seq, ck * c)
        return out

    def _apply_hhat(self, wv: WVec) -> WVec:
        """Lift of the contraction homotopy to words, averaged over the
        orderings of each word by the weighted (a, S, T) split of the
        module docstring."""
        h = self.contraction.h.entries
        ip = self._ip.entries
        letters = self.ambient.space
        degf = letters.degree_of
        out: WVec = {}
        for word, c in wv.items():
            if self._h_support.isdisjoint(word):
                continue
            n = len(word)
            degs = [degf[k] for k in word]
            for (a,), rest, s1 in wd.unshuffles(degs, word, 1):
                himg = h.get(a)
                if not himg:
                    continue
                rest_degs = [degf[k] for k in rest]
                for k in range(n):
                    weight = F(s1 * c, n * comb(n - 1, k))
                    for front, back, s2 in wd.unshuffles(rest_degs, rest, k):
                        # (a, S, T) -> (S, a, T), then h crosses S
                        if sum(degf[x] for x in front) * (degf[a] + 1) % 2:
                            s2 = -s2
                        images = [himg] + [ip.get(x, {}) for x in back]
                        for seq, cc in tensor_terms(images, s2 * weight):
                            wd.add_word(letters, out, front + seq, cc)
        return out

    def _series_letter_part(self, wv: WVec) -> Vec:
        """Letter part of the alternating perturbation series applied to wv.

        Each pass applies the bracket coderivation, harvests one-letter
        words, and feeds the longer remainder back through the negated
        homotopy lift.  Words strictly shorten, so the loop terminates.
        """
        out: Vec = {}
        cur = self._apply_delta(wv)
        while cur:
            longer: WVec = {}
            for word, c in cur.items():
                if len(word) == 1:
                    add_term(out, word[0], c)
                else:
                    longer[word] = c
            if not longer:
                break
            lifted = self._apply_hhat(longer)
            cur = self._apply_delta({w: -c for w, c in lifted.items()})
        return out

    def _tree_letters(self, word: tuple) -> Vec:
        if not self._h_support and len(word) not in self._delta_arities:
            return {}
        if word not in self._tree:
            start = self._letterwise(self.contraction.i, {word: ONE})
            self._tree[word] = self._series_letter_part(start)
        return self._tree[word]

    def _cotree_letters(self, word: tuple) -> Vec:
        if self._h_support.isdisjoint(word):
            return {}
        if word not in self._cotree:
            lifted = self._apply_hhat({word: ONE})
            start = {w: -c for w, c in lifted.items()}
            self._cotree[word] = self._series_letter_part(start)
        return self._cotree[word]

    def _bracket(self, n: int, word: tuple) -> Vec:
        if n == 1:
            return self.contraction.small.d.entries.get(word[0], {})
        return self.contraction.p.apply(self._tree_letters(word))

    def inclusion_infinity(self) -> InfinityMorphism:
        """Infinity-morphism from the transferred algebra into the ambient
        one whose arity-1 component is the contraction's inclusion."""
        k = self.contraction

        def compute(n, word):
            if n == 1:
                return k.i.entries.get(word[0], {})
            val = k.h.apply(self._tree_letters(word))
            return {x: -c for x, c in val.items()}

        return InfinityMorphism(self.algebra, self.ambient,
                                list(range(1, self.arity_max + 1)),
                                compute, name="inclusion")

    def projection_infinity(self) -> InfinityMorphism:
        """Infinity-morphism from the ambient algebra onto the transferred
        one whose arity-1 component is the contraction's projection."""
        k = self.contraction

        def compute(n, word):
            if n == 1:
                return k.p.entries.get(word[0], {})
            return k.p.apply(self._cotree_letters(word))

        return InfinityMorphism(self.ambient, self.algebra,
                                list(range(1, self.arity_max + 1)),
                                compute, name="projection")

    def validate(self, truncation: Truncation | None = None) -> None:
        """Check the generalized Jacobi identities of the transferred
        brackets on all words up to the arity bound."""
        if truncation is None:
            degrees = list(self.algebra.space.degrees())
            top = max(degrees, default=1)
            truncation = Truncation(deg_min=1,
                                    deg_max=max(1, top) * self.arity_max,
                                    arity_max=self.arity_max)
        self.algebra.validate(truncation)


def _as_linfty(ambient) -> LInfinityAlgebra:
    if isinstance(ambient, CobarAlgebra):
        return ambient.shifted()
    return ambient


def homology_contraction(ambient) -> Contraction:
    """Deterministic contraction of an algebra's underlying complex onto
    its homology, ready to feed transfer_linfty."""
    alg = _as_linfty(ambient)
    return contraction_from_complex(alg.as_chain_complex())


def transfer_linfty(ambient, contraction: Contraction | None = None,
                    arity_max: int = 3) -> TransferredLInfinity:
    """Transferred structure of an algebra along a contraction.

    The ambient algebra may be given directly or as a cobar construction,
    in which case its shifted form is used; for a cobar input built with
    degree bound N the homology, hence the transferred structure, is only
    trustworthy through degree N - 1.  When no contraction is supplied the
    canonical one onto homology is built.  The contraction identities are
    verified before any transfer happens.
    """
    alg = _as_linfty(ambient)
    if contraction is None:
        contraction = homology_contraction(alg)
    contraction.validate()
    return TransferredLInfinity(alg, contraction, arity_max=arity_max)


def postcompose_strict(g: GradedMap, f: InfinityMorphism,
                       target: LInfinityAlgebra) -> InfinityMorphism:
    """Compose a strict degree-0 algebra map after an infinity-morphism:
    the components are g applied to the components of f.  No coherence
    is assumed; when g is a strict morphism onto the given target the
    composite is again coherent, and the checker can confirm it."""
    if g.degree != 0:
        raise ValueError("can only postcompose by a degree-0 map")

    def compute(n, word):
        return g.apply(f.component(n, word))

    return InfinityMorphism(f.source, target, list(f.arities), compute,
                            name=f"{g.name or 'g'}.{f.name or 'f'}")


def push_mc(f: InfinityMorphism, coalgebra: CdgCoalgebra,
            tau: GradedMap, residual: str = "mc_check") -> GradedMap:
    """Pushforward of a Maurer-Cartan element of Hom(C, source) along an
    infinity-morphism, as a degree-0 map C -> target.

    The value on c sums, over n from 1 up to the coproduct depth and the
    top arity of f, 1/n! times the arity-n component of f on
    tau(w_1), ..., tau(w_n), over the words w of the (n-1)-fold iterated
    coproduct of c (convolution.convolve; tau has degree 0, so no slot
    sign enters).  These are the weights of the divided-power lift of
    tau to words, so the formula is the word-coalgebra composite read
    off in components.

    The input gate depends on which normalization the element lives in:
    residual="mc_check" (default) requires the literal Maurer-Cartan
    residual to vanish, residual="twisting" requires the divided-power
    one.  Elements produced by earlier pushforwards up an inclusion sit
    on the twisting side, so staged composites gate their middle legs
    with residual="twisting".
    """
    conv = ConvolutionAlgebra(coalgebra, f.source)
    if tau.degree != 0:
        raise ValueError("a Maurer-Cartan element must have degree 0")
    if residual == "mc_check":
        res = conv.mc_check(tau)
    elif residual == "twisting":
        res = twisting_residual(conv, tau)
    else:
        raise ValueError(f"unknown residual gate {residual!r}")
    if not res.is_zero():
        raise ValueError("cannot push a map that fails the Maurer-Cartan "
                         f"equation; residual on {sorted(res.entries)}")
    window = min(conv.coproduct_window(), f.max_arity())
    out = convolve(coalgebra, [tau], f.component_multi, f.target.space, 0,
                   {n: F(1, factorial(n)) for n in range(1, window + 1)})
    out.name = f"push({tau.name})" if tau.name else "push"
    return out


def push_path(f: InfinityMorphism, path: GaugePath) -> GaugePath:
    """Transport of a gauge path along an infinity-morphism.

    The components are extended over polynomial interval forms
    (models.extended: the forms multiply, with a Koszul sign whenever an
    odd form moves past the letters in front of it), and the extended
    pushforward (convolution.convolve with weight 1/n!, as in push_mc)
    is applied to the bundled family.  Polynomial degrees in
    the parameter multiply by at most the coproduct depth, so the result
    lives at an enlarged polynomial bound.
    """
    conv = path.conv
    if conv.L.space.degree_of != f.source.space.degree_of:
        raise ValueError("path does not live in the morphism's source")
    window = min(conv.coproduct_window(), f.max_arity())
    bound = path.poly_bound * max(1, window)
    omega = IntervalForms(bound)
    pushed = convolve(conv.C, [path.z],
                      lambda n, vecs: extended(omega, f, n, vecs),
                      TensorSpace(omega, f.target.space), 0,
                      {n: F(1, factorial(n)) for n in range(1, window + 1)})
    return GaugePath.from_map(ConvolutionAlgebra(conv.C, f.target), bound,
                              pushed)
