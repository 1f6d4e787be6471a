"""Convolution L-infinity algebras Hom(C, L): brackets, Maurer-Cartan
residuals, twisted complexes, and the check that a map is a coalgebra
morphism.

The carrier of Hom(C, L) is the graded space of linear maps from a
one-reduced cdg coalgebra C to an L-infinity algebra L, with basis keys
(c, x) for the elementary map sending the basis element c to x; the key
degree is |x| - |c|.  The n-ary bracket evaluates

    l_n(f_1, ..., f_n) = sum over S_n of +- l_n^L o (f_s(1) (x) ... (x)
    f_s(n)) o Delta^(n)

with the (n-1)-fold iterated reduced coproduct on the right and Koszul
signs both for reordering the maps and for evaluating them on tensor
words.  l_1 is the Hom differential d_L o f - (-1)^{|f|} f o d_C.
Maurer-Cartan elements are degree-0 maps with sum 1/n! l_n(tau, ..., tau)
equal to zero; the sum is finite because iterated coproducts of a
one-reduced coalgebra vanish in bounded arity.

The sum over S_n collapses to one ordering.  C is cocommutative and
coassociative, so Delta^(n) is invariant under the signed action of S_n
on tensor words, and l_n^L is graded symmetric: the term of an ordering
s equals the term of the identity ordering after re-indexing the words
of Delta^(n) by s.  Hence

    l_n(f_1, ..., f_n) = n! sum_w gamma_w eps_w l_n^L(f_1(w_1), ...,
    f_n(w_n))

over the words w = w_1 ... w_n of Delta^(n) with coefficients gamma_w,
where eps_w = (-1)^{sum_i |f_i| (|w_1| + ... + |w_{i-1}|)} is the Koszul
sign of each f_i passing the letters in front of it.  convolve evaluates
this sum with any weight per arity and any n-ary operation, reading each
word of the iterated coproduct once.  The Maurer-Cartan residual
sum 1/n! l_n(tau, ..., tau) is the sum with weight 1; the twisted
differential's 1/(n-1)! l_n(f, tau, ..., tau) puts f in the first slot
with weight n.  ConvolutionAlgebra.twisted_columns evaluates that sum
for the elementary maps e_(c, x) at many carrier keys in one walk over
the coproduct words: a word's first letter picks the columns it feeds,
its tail is read off tau once for all of them, and its slots carry no
sign, because nothing stands in front of e_(c, x) and tau has degree 0.
twist (a ChainComplex on the carrier), the gauge flow rates and
twisted_differential (the gauge flow's vector field) read it, so d^tau
has one code path.  twist takes a checked element, a gauge.PointRecord
of the same algebra, and has no unchecked twin.
barcobar.twisting_residual, transfer.push_mc and
transfer.push_path call convolve with weight 1/n! and, in turn, the
brackets of L, the components of an infinity-morphism and those
components extended over interval forms (models.extended, for a path);
the bar-side coalgebra map of the adjunction (tests/test_barcobar.py)
calls it with the product of symmetric words.  The component search's
residual is the Maurer-Cartan sum over the
extension of L by polynomial coefficients (models.extension_of_scalars),
so one pass over the coproduct words gives every monomial.  The
collapse needs the cocommutativity: on a coproduct that is not
symmetric the one-ordering sum is not the bracket, so coalgebra records
are validated where they are read (modelio.cdgc_from_record).  The bracket
tables of Hom(C, L) are never materialized here: tests/test_convolution.py
materializes them and checks the generalized Jacobi identity on them.
"""

from __future__ import annotations

from functools import cached_property
from math import factorial

from .graded import (ChainComplex, GradedMap, GradedSpace, Key, Vec, add_term,
                     tensor_terms)
from .matrices import ONE
from .models import CdgCoalgebra, LInfinityAlgebra


def convolve(C: CdgCoalgebra, maps, op, dst: GradedSpace, degree: int,
             weights: dict) -> GradedMap:
    """sum over n in weights of weights[n] sum_w gamma_w eps_w
    op(n, [f_1(w_1), ..., f_n(w_n)]), as a map C -> dst of the given
    degree.

    w runs over the words of the (n-1)-fold iterated coproduct of each
    basis key, gamma_w is its coefficient and eps_w the Koszul sign of
    each f_i passing w_1 ... w_{i-1}.  Slot i takes maps[i], and the last
    map fills every slot after it: [tau] puts tau everywhere, [f, tau]
    puts f first.  op(n, vecs) is multilinear in the n vectors.  Words
    on which some f_i vanishes are skipped, and all arities of one key
    accumulate into one column.
    """
    cdeg = C.space.degree_of
    last = len(maps) - 1
    odd = [f.degree % 2 for f in maps]
    cols: dict[Key, Vec] = {}
    for ck in C.space.all_keys():
        acc: Vec = {}
        for n, weight in weights.items():
            for word, gamma in C.iterated_coproduct(ck, n).items():
                coef = weight * gamma
                before = 0
                vecs = []
                for i, c in enumerate(word):
                    j = min(i, last)
                    v = maps[j].entries.get(c)
                    if not v:
                        break
                    if odd[j] and before % 2:
                        coef = -coef
                    before += cdeg[c]
                    vecs.append(v)
                else:
                    for k, x in op(n, vecs).items():
                        add_term(acc, k, coef * x)
        if acc:
            cols[ck] = acc
    return GradedMap(C.space, dst, degree, cols)


class ConvolutionAlgebra:
    def __init__(self, C: CdgCoalgebra, L: LInfinityAlgebra, name: str = ""):
        if not C.is_one_reduced():
            raise ValueError("convolution source must be one-reduced")
        self.C = C
        self.L = L
        self.name = name or f"Hom({C.name},{L.name})"
        self._window: int | None = None
        self._arity: int | None = None
        # what the gauge decision derives from the algebra alone and from
        # the tail restrictions of its points (gauge._algebra_memo,
        # gauge.PointRecord.tail); modelio keeps the records of C and L
        # there, and hopf the records of the strict maps it pushed
        self.algebra_memo: dict = {}

    @cached_property
    def carrier(self) -> GradedSpace:
        """Basis pairs (c, x) by degree |x| - |c|, built on first use: an
        algebra over an extension that never lists its basis (the
        component search's) never asks for it."""
        by_deg: dict[int, list] = {}
        for ck in self.C.space.all_keys():
            for lk in self.L.space.all_keys():
                d = self.L.space.degree_of[lk] - self.C.space.degree_of[ck]
                by_deg.setdefault(d, []).append((ck, lk))
        return GradedSpace(by_deg, name=self.name)

    # -- elements --------------------------------------------------------

    def elementary(self, ck: Key, lk: Key) -> GradedMap:
        d = self.L.space.degree_of[lk] - self.C.space.degree_of[ck]
        return GradedMap(self.C.space, self.L.space, d, {ck: {lk: ONE}})

    def to_vec(self, f: GradedMap) -> Vec:
        out: Vec = {}
        for ck, col in f.entries.items():
            for lk, c in col.items():
                if c:
                    out[(ck, lk)] = c
        return out

    def to_map(self, v: Vec, degree: int | None = None) -> GradedMap:
        if degree is None:
            degree = self.carrier.degree_of_vector(v)
            if degree is None:
                degree = 0
        cols: dict[Key, Vec] = {}
        for (ck, lk), c in v.items():
            add_term(cols.setdefault(ck, {}), lk, c)
        return GradedMap(self.C.space, self.L.space, degree, cols)

    def zero_map(self, degree: int = 0) -> GradedMap:
        return GradedMap(self.C.space, self.L.space, degree)

    # -- structure -------------------------------------------------------

    def _l1_of(self, x: Key) -> Vec:
        """l_1 of L on one basis key: the vector L keeps for the one-letter
        word, which is sorted, so only the keys some map touches are ever
        computed, which matters on extensions whose basis is never listed.
        Callers only read it."""
        return self.L.sorted_value(1, (x,))

    def differential_of(self, f: GradedMap) -> GradedMap:
        cols: dict[Key, Vec] = {}
        for ck, col in f.entries.items():
            img: Vec = {}
            for lk, c in col.items():
                for y, v in self._l1_of(lk).items():
                    add_term(img, y, c * v)
            cols[ck] = img
        out = GradedMap(f.src, self.L.space, f.degree - 1, cols)
        fd = f.compose(self.C.d)
        if f.degree % 2:
            return out + fd
        return out - fd

    def coproduct_window(self) -> int:
        """Largest n with a nonzero (n-1)-fold iterated coproduct; 1 for
        primitively generated sources with vanishing coproduct."""
        if self._window is None:
            n = 1
            cap = max(2, self.C.space.total_dim() + 1)
            while n <= cap:
                if not any(self.C.iterated_coproduct(k, n + 1)
                           for k in self.C.space.all_keys()):
                    break
                n += 1
            self._window = n
        return self._window

    def arity_window(self) -> int:
        if self._arity is None:
            self._arity = min(self.coproduct_window(), self.L.max_arity())
        return self._arity

    @cached_property
    def tail_keys(self) -> frozenset:
        """The source keys at position 2 or later of a word of the
        iterated coproduct Delta^(n-1)(c), for some c and 2 <= n <= the
        arity window: the only columns of tau that twisted_columns
        reads."""
        return frozenset(w for ck in self.C.space.all_keys()
                         for n in range(2, self.arity_window() + 1)
                         for word in self.C.iterated_coproduct(ck, n)
                         for w in word[1:])

    def bracket(self, n: int, fs) -> GradedMap:
        """l_n of the convolution algebra on n homogeneous maps."""
        fs = list(fs)
        if len(fs) != n:
            raise ValueError("arity mismatch")
        if n == 1:
            return self.differential_of(fs[0])
        return convolve(self.C, fs, self.L.bracket_multi, self.L.space,
                        sum(f.degree for f in fs) - 1, {n: factorial(n)})

    def series(self, maps, degree: int, weight) -> GradedMap:
        """convolve with the brackets of L over the arities 2 through the
        arity window, with weight(n) on arity n."""
        return convolve(self.C, maps, self.L.bracket_multi, self.L.space,
                        degree, {n: weight(n)
                                 for n in range(2, self.arity_window() + 1)})

    def twisted_columns(self, tau: GradedMap, keys) -> dict[Key, Vec]:
        """The columns d^tau(e_k) of the twisted differential at the given
        carrier keys k = (c, x), as carrier vectors, in one walk over the
        coproduct words; zero columns are left out.

        d^tau(e_k) is l_1(e_k) plus, for each arity n >= 2, n sum_w
        gamma_w l_n^L(e_k(w_1), tau(w_2), ..., tau(w_n)): convolve with
        e_k in the first slot and weight n.  e_k(w_1) is x when w_1 = c
        and zero otherwise, so the first letter of a word picks the
        columns it feeds and its tail is read off tau, once for all of
        them.  No slot carries a sign: nothing stands in front of e_k and
        tau has degree 0, so eps_w = +1.  l_1(e_k) = d_L o e_k -
        (-1)^{|e_k|} e_k o d_C is l1(x) at c and -(-1)^{|e_k|} d_C(c')_c x
        at every c'.

        Tail lemma: tau is read only at the letters w_2 ... w_n of the
        words walked here, which are tail_keys, so the columns, and with
        them the twisted complex and the flow rates, depend on tau only
        through its restriction to tail_keys.
        """
        if tau.degree != 0:
            raise ValueError("tau must have degree 0")
        C, L = self.C, self.L
        cdeg, ldeg = C.space.degree_of, L.space.degree_of
        by_first: dict[Key, list] = {}
        cols: dict[Key, Vec] = {}
        for c, x in keys:
            by_first.setdefault(c, []).append(x)
            col = cols[(c, x)] = {}
            for lk, v in self._l1_of(x).items():
                add_term(col, (c, lk), v)
        for ck, dcol in C.d.entries.items():
            for c, v in dcol.items():
                for x in by_first.get(c, ()):
                    add_term(cols[(c, x)], (ck, x),
                             v if (ldeg[x] - cdeg[c]) % 2 else -v)
        for ck in C.space.all_keys():
            for n in range(2, self.arity_window() + 1):
                tails: dict[Key, Vec] = {}
                for word, gamma in C.iterated_coproduct(ck, n).items():
                    if word[0] not in by_first:
                        continue
                    acc = tails.setdefault(word[0], {})
                    for args, coef in tensor_terms(
                            (tau.entries.get(w, {}) for w in word[1:]),
                            n * gamma):
                        add_term(acc, args, coef)
                for c, acc in tails.items():
                    for x in by_first[c]:
                        col = cols[(c, x)]
                        for args, coef in acc.items():
                            for lk, v in L.bracket(n, (x,) + args).items():
                                add_term(col, (ck, lk), coef * v)
        return {k: col for k, col in cols.items() if col}

    def twisted_differential(self, tau: GradedMap, f: GradedMap) -> GradedMap:
        """d^tau(f) = l_1(f) + sum 1/(n-1)! l_n(f, tau, ..., tau), for tau
        of degree 0: sum_k f_k d^tau(e_k) over the support of f."""
        fv = self.to_vec(f)
        cols = self.twisted_columns(tau, fv)
        out: Vec = {}
        for k, c in fv.items():
            for kk, v in cols.get(k, {}).items():
                add_term(out, kk, c * v)
        return self.to_map(out, f.degree - 1)

    # -- Maurer-Cartan ---------------------------------------------------

    def mc_check(self, tau: GradedMap) -> GradedMap:
        """The residual sum 1/n! l_n(tau, ..., tau); zero iff tau is MC."""
        if tau.degree != 0:
            raise ValueError("Maurer-Cartan candidates must have degree 0")
        return self.differential_of(tau) + self.series([tau], -1,
                                                       lambda n: ONE)

    def twist(self, x) -> ChainComplex:
        """The carrier with the differential twisted by the Maurer-Cartan
        element x.x of the record x (a gauge.PointRecord, which checked
        it): d^x(f) = sum 1/n! l_{n+1}(f, x, ..., x).  Refuses a record of
        another algebra; d o d = 0 is still asserted."""
        if x.conv is not self:
            raise ValueError(f"cannot twist {self.name} by an element of "
                             f"{x.conv.name}")
        d = GradedMap(self.carrier, self.carrier, -1,
                      self.twisted_columns(x.x, self.carrier.all_keys()),
                      name="d^tau")
        if not d.compose(d).is_zero():
            raise AssertionError("twisted differential does not square to zero")
        return ChainComplex(self.carrier, d, name=f"{self.name} twisted")


class NotAMorphism(ValueError):
    """A map that check_coalgebra_morphism refuses."""


def check_coalgebra_morphism(Cp: CdgCoalgebra, C: CdgCoalgebra,
                             h: GradedMap):
    """h is a degree-0 chain map with (h (x) h) o Delta' = Delta o h;
    raises NotAMorphism where it is not."""
    if h.degree != 0:
        raise NotAMorphism("coalgebra morphisms have degree 0")
    if (h.src.degree_of != Cp.space.degree_of
            or h.dst.degree_of != C.space.degree_of):
        raise NotAMorphism("morphism endpoints do not match the coalgebras")
    if not (h.compose(Cp.d) - C.d.compose(h)).is_zero():
        raise NotAMorphism("map does not commute with the differentials")
    for k in Cp.space.all_keys():
        lhs = C.delta_apply(h.apply({k: ONE}))
        rhs: Vec = {}
        for (a, b), c in Cp.delta.get(k, {}).items():
            for pair, cc in tensor_terms((h.column(a), h.column(b)), c):
                add_term(rhs, pair, cc)
        if lhs != rhs:
            raise NotAMorphism(f"coproducts disagree after the map at {k!r}")
