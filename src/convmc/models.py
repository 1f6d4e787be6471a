"""Model containers: coalgebras, shifted L-infinity algebras, free Lie
models, and extension of scalars by a commutative dg algebra.

Grading conventions, fixed once for the whole package:

  * Coalgebras are counital in spirit but stored reduced: the basis spans
    the coaugmentation ideal and delta is the reduced coproduct.
  * L-infinity algebras use the shifted presentation: every operation
    l_n has degree -1 and is graded symmetric.  Maurer-Cartan elements of
    convolution algebras built on these have degree 0.
  * Free Lie models (Quillen models) carry classical degrees internally;
    as_linfty() exposes the shifted presentation, raising all degrees by
    one and twisting the bracket by (-1)^{shifted degree of the first
    argument}.

SymmetricOperations is the one table of graded symmetric operations on
sorted words, with one lookup and one multilinear extension: the
brackets of LInfinityAlgebra (degree -1) and the components of
transfer.InfinityMorphism (degree 0).  extended() extends either over
scalars, and modelio.operation_rows writes either out.

Extension of scalars tensors an L-infinity algebra L with a finite
graded-commutative dg algebra A.  A is any object that provides
degree(a), product(a, b) -> (key, coeff) or None when the product dies,
d(a) -> vector, and `a in A`; one that can list its basis also provides
keys().  extended() is the one extended n-ary operation over A, and it
reads only degree and product.  Three places use it:

  * gauge paths: A is IntervalForms, the polynomial forms on the
    interval, and a path is a Maurer-Cartan element of Hom(C, A (x) L);
  * transfer.push_path: the components of an infinity-morphism extended
    over the same forms;
  * the component search (mapping._residual_polynomials): A is
    TruncatedPolynomials, Q[c_0..c_(m-1)] cut at the arity window, and
    the residual of the generic element sum_i c_i e_i is read off
    Hom(C, A (x) L).  Its monomials are never listed.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Sequence

from . import words as wd
from .freelie import FreeLie
from .graded import (ChainComplex, GradedMap, GradedSpace, Key, TensorSpace,
                     Vec, add_term, entries_signature, exact_repr,
                     tensor_terms, vec_add, vec_scale)
from .matrices import ONE, scalar


# ---------------------------------------------------------------------------
# coalgebras

class CdgCoalgebra:
    """Cocommutative differential graded coalgebra, stored reduced.

    delta maps each basis key to a vector over ordered pairs of keys; it
    must be cocommutative on the nose (tau delta = delta with the Koszul
    flip), coassociative, and compatible with the differential.  A
    coalgebra is not changed after construction: its iterated coproducts
    and its signature are kept.
    """

    def __init__(self, space: GradedSpace, d: GradedMap,
                 delta: dict[Key, Vec], name: str = ""):
        self.space = space
        self.d = d
        self.delta = {k: {p: scalar(c) for p, c in v.items() if c}
                      for k, v in delta.items() if v}
        self.name = name or space.name
        self._coproducts: dict[tuple[Key, int], Vec] = {}

    @cached_property
    def signature(self) -> tuple:
        """The structural key of the coalgebra: its name, basis by degree,
        d and coproduct, in the sorted form of entries_signature, so two
        equal coalgebras built independently have the same key."""
        sp = self.space
        basis = tuple((d, tuple(sp.basis(d))) for d in sorted(sp.degrees()))
        return (self.name, basis, entries_signature(self.d.entries),
                entries_signature(self.delta))

    def delta_apply(self, v: Vec) -> Vec:
        out: Vec = {}
        for k, c in v.items():
            for pair, cc in self.delta.get(k, {}).items():
                add_term(out, pair, c * cc)
        return out

    def iterated_coproduct(self, key: Key, n: int) -> Vec:
        """Right-normed n-fold coproduct, as a vector over n-tuples.

        Memoised per (key, n), so callers must not mutate the result."""
        if n < 1:
            raise ValueError("need n >= 1")
        memo = self._coproducts.get((key, n))
        if memo is not None:
            return memo
        if n == 1:
            cur: Vec = {(key,): ONE}
        else:
            cur = {}
            for tup, c in self.iterated_coproduct(key, n - 1).items():
                # coproduct has degree 0: no slot sign
                for pair, cc in self.delta.get(tup[-1], {}).items():
                    add_term(cur, tup[:-1] + pair, c * cc)
        self._coproducts[(key, n)] = cur
        return cur

    def is_one_reduced(self) -> bool:
        return all(n >= 2 for n in self.space.degrees())

    def validate(self):
        ChainComplex(self.space, self.d, self.name).validate()
        degf = self.space.degree_of
        for k, v in self.delta.items():
            for (a, b) in v:
                if degf[a] + degf[b] != degf[k]:
                    raise ValueError(f"coproduct of {k!r} is not degree 0")
        # cocommutativity: delta = flip delta
        for k, v in self.delta.items():
            flipped: Vec = {}
            for (a, b), c in v.items():
                s = -ONE if (degf[a] * degf[b]) % 2 else ONE
                add_term(flipped, (b, a), s * c)
            if flipped != v:
                raise ValueError(f"coproduct not cocommutative at {k!r}")
        # coassociativity: (delta (x) id) delta = (id (x) delta) delta
        for k in self.delta:
            left: Vec = {}
            for (a, b), c in self.delta[k].items():
                for (a1, a2), c2 in self.delta.get(a, {}).items():
                    add_term(left, (a1, a2, b), c * c2)
            if left != self.iterated_coproduct(k, 3):
                raise ValueError(f"coproduct not coassociative at {k!r}")
        # d is a coderivation: delta d = (d (x) id + id (x) d) delta
        for k in self.space.all_keys():
            lhs = self.delta_apply(self.d.column(k))
            rhs: Vec = {}
            for (a, b), c in self.delta.get(k, {}).items():
                for a2, c2 in self.d.column(a).items():
                    add_term(rhs, (a2, b), c * c2)
                s = -ONE if degf[a] % 2 else ONE
                for b2, c2 in self.d.column(b).items():
                    add_term(rhs, (a, b2), s * c * c2)
            if lhs != rhs:
                raise ValueError(f"differential is not a coderivation at {k!r}")


# ---------------------------------------------------------------------------
# L-infinity algebras (shifted presentation)

class JacobiError(ValueError):
    """A generalized Jacobi sum that is not zero: the sorted word it was
    evaluated on and the residue vector."""

    def __init__(self, word: tuple, residue: Vec):
        super().__init__(f"Jacobi fails on {word!r}: residue "
                         f"{exact_repr(residue)}")
        self.word = word
        self.residue = residue


class SymmetricOperations:
    """Graded symmetric operations of one degree, one per arity, stored
    by their values on sorted basis words of space and landing in
    codomain.  The tables are checked as sorted and non-vanishing.

    An optional compute hook supplies the values of the arities listed
    in arities on demand (for structures whose full table would be
    wasteful to materialize); computed values are degree-checked and
    cached in the tables.  value sorts its letters, then reads
    sorted_value, the lookup on a sorted word; only callers that hold
    sorted blocks (the Jacobi and transfer coderivation sums) call it,
    and they must not change the cached vector it returns.
    """

    symbol = "op"

    def __init__(self, space: GradedSpace, codomain: GradedSpace,
                 degree: int,
                 tables: dict[int, dict[tuple, Vec]] | None = None,
                 name: str = "",
                 arities: Sequence[int] | None = None,
                 compute: Callable[[int, tuple], Vec] | None = None):
        self.space = space
        self.codomain = codomain
        self.degree = degree
        self.name = name
        self.compute = compute
        self.tables: dict[int, dict[tuple, Vec]] = {}
        for n, table in (tables or {}).items():
            clean: dict[tuple, Vec] = {}
            for word, v in table.items():
                sw = wd.sort_letters(space, word)
                if sw is None:
                    raise ValueError(f"bracket stored on vanishing word {word!r}")
                if sw[0] != word:
                    raise ValueError(f"bracket word {word!r} is not sorted")
                val = {k: scalar(c) for k, c in v.items() if c}
                if val:
                    clean[word] = val
            if clean:
                self.tables[n] = clean
        self.arities = sorted(set(arities) if arities is not None
                              else self.tables)

    def _check_degree(self, n: int, word: tuple, val: Vec) -> None:
        want = sum(self.space.degree_of[k] for k in word) + self.degree
        degf = self.codomain.degree_of
        for k in val:
            if degf[k] != want:
                raise ValueError(f"{self.symbol}_{n}{word!r} lands in "
                                 f"degree {degf[k]}, expected {want}")

    def value(self, n: int, args: Sequence[Key]) -> Vec:
        """The arity-n operation on basis letters in any order: the Koszul
        sort sign times the stored or computed value on the sorted word
        (a repeated odd letter gives zero)."""
        args = tuple(args)
        if len(args) != n:
            raise ValueError(f"arity-{n} operation on {len(args)} letters")
        sw = wd.sort_letters(self.space, args)
        val = sw and self.sorted_value(n, sw[0])
        return vec_scale(sw[1], val) if val else {}

    def sorted_value(self, n: int, word: tuple) -> Vec:
        """The stored or computed value on a sorted n-letter word."""
        table = self.tables.setdefault(n, {})
        val = table.get(word)
        if val is None:
            if self.compute is None or n not in self.arities:
                return {}
            val = {k: scalar(c) for k, c in self.compute(n, word).items()
                   if c}
            self._check_degree(n, word, val)
            table[word] = val
        return val

    def multi(self, n: int, vecs: Sequence[Vec]) -> Vec:
        """Multilinear extension of the arity-n operation to vectors."""
        if len(vecs) != n:
            raise ValueError(f"arity-{n} operation on {len(vecs)} vectors")
        out: Vec = {}
        for args, c in tensor_terms(vecs):
            for k, cc in self.value(n, args).items():
                add_term(out, k, c * cc)
        return out

    def max_arity(self) -> int:
        return max(self.arities, default=0)


class LInfinityAlgebra(SymmetricOperations):
    """Shifted L-infinity algebra: the graded symmetric operations l_n on
    one space, all of degree -1, stored as brackets on sorted words."""

    symbol = "l"
    brackets = property(lambda self: self.tables)
    bracket = SymmetricOperations.value
    bracket_multi = SymmetricOperations.multi

    def __init__(self, space: GradedSpace,
                 brackets: dict[int, dict[tuple, Vec]] | None = None,
                 name: str = "",
                 arities: Sequence[int] | None = None,
                 compute: Callable[[int, tuple], Vec] | None = None):
        super().__init__(space, space, -1, brackets, name or space.name,
                         arities, compute)

    def l1(self) -> GradedMap:
        cols = {k: self.bracket(1, (k,)) for k in self.space.all_keys()}
        return GradedMap(self.space, self.space, -1, cols, name="l1")

    def as_chain_complex(self) -> ChainComplex:
        return ChainComplex(self.space, self.l1(), name=self.name)

    # -- axioms ----------------------------------------------------------

    def jacobiator(self, word: tuple) -> Vec:
        """Value of the generalized Jacobi sum on a sorted basis word: for
        each split of the positions, the inner bracket feeds the outer one.
        Zero for every word iff the operations form an L-infinity structure
        (on the span of the given letters)."""
        degs = [self.space.degree_of[k] for k in word]
        inner = [j for j in range(1, len(word) + 1)
                 if j in self.arities or self.tables.get(j)]
        out: Vec = {}
        for seq, c in wd.coderivation_terms(self.sorted_value, inner, degs,
                                            word):
            for k, cc in self.bracket(len(seq), seq).items():
                add_term(out, k, c * cc)
        return out

    def validate(self, arity_max: int | None = None):
        """Check the stored brackets' arities and degrees, then the
        generalized Jacobi identities on every word of at most arity_max
        letters (default twice the top arity) and degree at most
        deg_max + 2, lowest degree first, then shortest, then canonical,
        so cli.cmd_transfer can blame the first residue's degree on the
        cobar window.  Values a compute hook supplies are degree-checked
        as they are stored, so the Jacobi pass checks those it evaluates.

        Words above degree deg_max + 2 of the carrier are not visited:
        every l_n has degree -1, so the Jacobi sum on a word w lies in
        degree |w| - 2, where the carrier has no basis element, and each
        of its terms is a degree-checked value.  No bracket that can be
        nonzero goes unchecked: a word of degree <= deg_max + 1 is itself
        visited, and the j = m term of its sum evaluates l_m on it.
        """
        if arity_max is None:
            arity_max = max((2 * n for n in self.arities), default=2)
        if arity_max < 1:
            raise ValueError("arity_max must be at least 1")
        for n, table in self.tables.items():
            for word, v in table.items():
                if len(word) != n:
                    raise ValueError(f"bracket arity mismatch on {word!r}")
                self._check_degree(n, word, v)
        for word in wd.word_space(self.space, self.space.deg_max + 2,
                                  arity_max).all_keys():
            jac = self.jacobiator(word)
            if jac:
                raise JacobiError(word, jac)


def abelian_linfty(space: GradedSpace, d: GradedMap | None = None,
                   name: str = "") -> LInfinityAlgebra:
    """Chain complex viewed as an L-infinity algebra with no higher brackets."""
    brackets: dict[int, dict[tuple, Vec]] = {}
    if d is not None:
        if d.degree != -1:
            raise ValueError("differential must have degree -1")
        brackets[1] = {(k,): d.column(k) for k in space.all_keys()
                       if d.column(k)}
    return LInfinityAlgebra(space, brackets, name=name, arities=[1])


# ---------------------------------------------------------------------------
# free Lie (Quillen) models

class QuillenModel:
    """Free Lie algebra on a letter space with a square-zero derivation
    differential, in classical degrees.  validate checks that delta is
    the derivation its values on the letters determine (the Leibniz
    rule) and that it squares to zero."""

    def __init__(self, fl: FreeLie, delta: GradedMap, name: str = ""):
        if delta.src is not fl.space or delta.degree != -1:
            raise ValueError("differential must be a degree -1 endomap")
        self.fl = fl
        self.delta = delta
        self.name = name
        self._linfty: LInfinityAlgebra | None = None

    def leibniz_defect(self):
        """The first basis word, in basis order, where delta differs from
        the derivation extending its values on the letters; None when
        delta is that derivation."""
        letters = {k: col for k in self.fl.letters.all_keys()
                   if (col := self.delta.entries.get(k))}
        derived = self.fl.derivation(letters, -1)
        return next((e for e in self.fl.space.all_keys()
                     if self.delta.entries.get(e, {})
                     != derived.entries.get(e, {})), None)

    def validate(self):
        bad = self.leibniz_defect()
        if bad is not None:
            raise ValueError(f"delta of {self.name!r} is not a derivation, "
                             f"first at {bad!r}")
        ChainComplex(self.fl.space, self.delta, self.name).validate()

    def as_chain_complex(self) -> ChainComplex:
        return ChainComplex(self.fl.space, self.delta, name=self.name)

    def as_linfty(self) -> LInfinityAlgebra:
        """Shifted presentation: degrees go up by one, l1 is the
        differential, and l2(x, y) = (-1)^{|x|} [x, y] with the shifted
        degree of x (graded symmetric by classical antisymmetry).  Built
        once per model and kept, with its bracket cache."""
        if self._linfty is not None:
            return self._linfty
        cls = self.fl.space
        shifted = GradedSpace(
            {n + 1: list(cls.basis(n)) for n in cls.degrees()},
            name=self.name or cls.name)
        l1 = {(k,): dict(self.delta.column(k)) for k in cls.all_keys()
              if self.delta.column(k)}

        def compute(n: int, word: tuple) -> Vec:
            # l1 lookups of keys with zero differential reach here too
            if n != 2:
                return {}
            x, y = word
            if cls.degree_of[x] + cls.degree_of[y] > self.fl.deg_max:
                return {}
            val = self.fl.bracket({x: ONE}, {y: ONE})
            return vec_scale(-ONE, val) if shifted.degree_of[x] % 2 else val

        self._linfty = LInfinityAlgebra(shifted, {1: l1} if l1 else {},
                                        name=self.name, arities=[1, 2],
                                        compute=compute)
        return self._linfty


# ---------------------------------------------------------------------------
# extension of scalars

class IntervalForms:
    """Q[t] + Q[t] dt, truncated at a fixed polynomial degree.

    Keys: ("p", k) for t^k, ("q", k) for t^k dt; dt has degree -1, so the
    q-part sits in degree -1.  Products that would exceed the polynomial
    bound raise, so callers must pick the bound from their nilpotency depth.
    """

    name = "Omega"

    def __init__(self, poly_bound: int):
        self.poly_bound = poly_bound

    def __contains__(self, key) -> bool:
        return len(key) == 2 and key[0] in ("p", "q") and \
            0 <= key[1] <= self.poly_bound

    def keys(self) -> list:
        return [(kind, k) for kind in "pq" for k in range(self.poly_bound + 1)]

    def degree(self, key) -> int:
        return 0 if key[0] == "p" else -1

    def product(self, a, b) -> tuple | None:
        """Product of two basis forms: (key, coeff) or None when it dies
        (two dt factors)."""
        ta, ka = a
        tb, kb = b
        if ta == "q" and tb == "q":
            return None
        k = ka + kb
        if k > self.poly_bound:
            raise ValueError(
                f"polynomial degree {k} exceeds bound {self.poly_bound}")
        kind = "q" if ("q" in (ta, tb)) else "p"
        return ((kind, k), ONE)

    def d(self, key) -> Vec:
        kind, k = key
        if kind == "p" and k > 0:
            return {("q", k - 1): k}
        return {}


class TruncatedPolynomials:
    """Q[c_0, ..., c_(m-1)] in degree 0 with d = 0, cut at a total degree.

    Keys are exponent tuples, of any degree: the bound cuts products,
    and a product above it raises, so no term is ever dropped and the
    bound must cover every product the caller forms.  The monomials are
    never listed (there is no keys()).
    """

    name = "Q[c]"

    def __init__(self, m: int, bound: int):
        self.m = m
        self.bound = bound

    def __contains__(self, key) -> bool:
        return len(key) == self.m and min(key, default=0) >= 0

    def degree(self, key) -> int:
        return 0

    def product(self, a, b) -> tuple:
        k = tuple(x + y for x, y in zip(a, b))
        if sum(k) > self.bound:
            raise ValueError(
                f"polynomial degree {sum(k)} exceeds bound {self.bound}")
        return k, ONE

    def d(self, key) -> Vec:
        return {}


def extended(A, ops: SymmetricOperations, n: int, vecs) -> Vec:
    """The arity-n operation of ops extended over A, on vectors over keys
    (a, x) and multilinear in them.

    On a basis word (a_1, x_1) ... (a_n, x_n) the value is the product
    a_1 ... a_n in front of the operation on (x_1, ..., x_n), with the
    Koszul sign of each odd a_i passing x_1 ... x_(i-1) (degrees read off
    ops.space), and for an operation of odd degree the sign of the
    operation passing the whole block of forms; a word whose product dies
    gives zero.  Only A.degree and A.product are read.
    """
    letter_degree = ops.space.degree_of
    odd = ops.degree % 2
    out: Vec = {}
    for keys, coef in tensor_terms(vecs):
        before = 0
        parity = 0
        prod = None
        for a, x in keys:
            da = A.degree(a)
            if da % 2 and before % 2:
                coef = -coef
            before += letter_degree[x]
            parity += da
            if prod is None:
                prod = a
                continue
            step = A.product(prod, a)
            if step is None:
                break
            prod, c = step
            coef *= c
        else:
            if odd and parity % 2:
                coef = -coef
            for y, c in ops.value(n, tuple(x for _, x in keys)).items():
                add_term(out, (prod, y), coef * c)
    return out


def extension_of_scalars(L: LInfinityAlgebra, A) -> LInfinityAlgebra:
    """A (x) L for a graded-commutative dg algebra A (see the module
    docstring for what A provides), on the TensorSpace of keys (a, x).

    l_1 is d_A (x) id + id (x) l_1, the second term with the sign of l_1
    passing a; l_n for n >= 2 is the bracket of L extended over A, the odd
    l_n passing the block of forms.  Values are computed per sorted word
    on first use and cached, so no table is materialized.
    """
    space = TensorSpace(A, L.space, name=f"{A.name}({L.name})")

    def compute(n: int, word: tuple) -> Vec:
        a, x = word[0]
        d_part = {(a2, x): c for a2, c in A.d(a).items()} if n == 1 else {}
        return vec_add(d_part, extended(A, L, n, [{k: ONE} for k in word]))

    return LInfinityAlgebra(space, {}, name=space.name,
                            arities=sorted(set(L.arities) | {1}),
                            compute=compute)
