"""Model containers: coalgebras, shifted L-infinity algebras, free Lie
models, and polynomial interval forms.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from . import words as wd
from .freelie import FreeLie
from .graded import (ChainComplex, GradedMap, GradedSpace, Key, Vec, add_term,
                     tensor_terms, vec_scale)
from .matrices import ONE, ZERO


@dataclass(frozen=True)
class Truncation:
    """Finite computation window: degrees, bracket arity, polynomial degree
    for interval coefficients."""
    deg_min: int
    deg_max: int
    arity_max: int
    poly_bound: int = 8

    def __post_init__(self):
        if self.deg_min > self.deg_max:
            raise ValueError("empty degree window")
        if self.arity_max < 1:
            raise ValueError("arity_max must be at least 1")


# ---------------------------------------------------------------------------
# coalgebras

class CdgCoalgebra:
    """Cocommutative differential graded coalgebra, stored reduced.

    delta maps each basis key to a vector over ordered pairs of keys; it
    must be cocommutative on the nose (tau delta = delta with the Koszul
    flip), coassociative, and compatible with the differential.
    """

    def __init__(self, space: GradedSpace, d: GradedMap,
                 delta: dict[Key, Vec], name: str = ""):
        self.space = space
        self.d = d
        self.delta = {k: {p: Fraction(c) for p, c in v.items() if c}
                      for k, v in delta.items() if v}
        self.name = name or space.name
        self._coproducts: dict[tuple[Key, int], Vec] = {}

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
        # coassociativity
        for k in self.delta:
            left: Vec = {}
            right: Vec = {}
            for (a, b), c in self.delta[k].items():
                for (a1, a2), c2 in self.delta.get(a, {}).items():
                    add_term(left, (a1, a2, b), c * c2)
                for (b1, b2), c2 in self.delta.get(b, {}).items():
                    add_term(right, (a, b1, b2), c * c2)
            if left != right:
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
        super().__init__(f"Jacobi fails on {word!r}: residue {residue!r}")
        self.word = word
        self.residue = residue


class LInfinityAlgebra:
    """Shifted L-infinity algebra: graded symmetric operations, all of
    degree -1, stored by their values on sorted basis words.

    An optional compute hook supplies bracket values on demand (used for
    extensions of scalars whose full bracket table would be wasteful to
    materialize); computed values are cached.
    """

    def __init__(self, space: GradedSpace,
                 brackets: dict[int, dict[tuple, Vec]] | None = None,
                 name: str = "",
                 arities: Sequence[int] | None = None,
                 compute: Callable[[int, tuple], Vec] | None = None):
        self.space = space
        self.name = name or space.name
        self.brackets: dict[int, dict[tuple, Vec]] = {}
        self.compute = compute
        for n, table in (brackets or {}).items():
            clean: dict[tuple, Vec] = {}
            for word, v in table.items():
                sw = wd.sort_letters(space, word)
                if sw is None:
                    raise ValueError(f"bracket stored on vanishing word {word!r}")
                sword, sgn = sw
                if sword != word:
                    raise ValueError(f"bracket word {word!r} is not sorted")
                val = {k: Fraction(c) for k, c in v.items() if c}
                if val:
                    clean[word] = val
            if clean:
                self.brackets[n] = clean
        if arities is not None:
            self.arities = sorted(set(arities))
        else:
            self.arities = sorted(self.brackets)

    # -- evaluation ------------------------------------------------------

    def _check_degree(self, n: int, word: tuple, val: Vec) -> None:
        degf = self.space.degree_of
        want = sum(degf[k] for k in word) - 1
        for k in val:
            if degf[k] != want:
                raise ValueError(f"l_{n}{word!r} lands in degree {degf[k]}, "
                                 f"expected {want}")

    def _lookup(self, n: int, word: tuple) -> Vec:
        table = self.brackets.setdefault(n, {})
        if word in table:
            return table[word]
        if self.compute is not None and n in self.arities:
            val = {k: Fraction(c) for k, c in self.compute(n, word).items()
                   if c}
            self._check_degree(n, word, val)
            table[word] = val
            return val
        return {}

    def bracket(self, n: int, args: Sequence[Key]) -> Vec:
        """l_n on basis letters, in any order (the Koszul sort sign is
        applied; a repeated odd argument gives zero)."""
        if len(args) != n:
            raise ValueError("arity mismatch")
        sw = wd.sort_letters(self.space, tuple(args))
        if sw is None:
            return {}
        word, sgn = sw
        val = self._lookup(n, word)
        return vec_scale(Fraction(sgn), val) if val else {}

    def bracket_multi(self, n: int, vecs: Sequence[Vec]) -> Vec:
        """Multilinear extension of l_n to vectors."""
        if len(vecs) != n:
            raise ValueError("arity mismatch")
        out: Vec = {}
        for args, c in tensor_terms(vecs):
            for k, cc in self.bracket(n, args).items():
                add_term(out, k, c * cc)
        return out

    # -- structure queries ----------------------------------------------

    def max_arity(self) -> int:
        return max(self.arities, default=0)

    def is_strict(self) -> bool:
        return all(n <= 2 for n in self.arities)

    def is_abelian_beyond_l1(self) -> bool:
        return all(n == 1 for n in self.arities)

    def l1(self) -> GradedMap:
        cols = {k: self._lookup(1, (k,)) for k in self.space.all_keys()}
        return GradedMap(self.space, self.space, -1, cols, name="l1")

    def as_chain_complex(self) -> ChainComplex:
        return ChainComplex(self.space, self.l1(), name=self.name)

    # -- axioms ----------------------------------------------------------

    def jacobiator(self, word: tuple) -> Vec:
        """Value of the generalized Jacobi sum on a sorted basis word: for
        each split of the positions, the inner bracket feeds the outer one.
        Zero for every word iff the operations form an L-infinity structure
        (on the span of the given letters)."""
        m = len(word)
        degs = [self.space.degree_of[k] for k in word]
        out: Vec = {}
        for j in range(1, m + 1):
            outer = m - j + 1
            if j not in self.arities and not self.brackets.get(j):
                continue
            for block, rest, sgn in wd.unshuffles(degs, word, j):
                for let, c in self.bracket(j, block).items():
                    for k, cc in self.bracket(outer, (let,) + rest).items():
                        add_term(out, k, sgn * c * cc)
        return out

    def validate(self, truncation: Truncation | None = None):
        """Check the stored brackets' arities and degrees, then the
        generalized Jacobi identities on every word in the truncation.
        Values a compute hook supplies are degree-checked as they are
        stored, so the Jacobi pass checks those it evaluates.

        Words above degree deg_max + 2 of the carrier are not visited:
        every l_n has degree -1, so the Jacobi sum on a word w lies in
        degree |w| - 2, where the carrier has no basis element, and each
        of its terms is a degree-checked value.  No bracket that can be
        nonzero goes unchecked: a word of degree <= deg_max + 1 is itself
        visited, and the j = m term of its sum evaluates l_m on it.
        """
        for n, table in self.brackets.items():
            for word, v in table.items():
                if len(word) != n:
                    raise ValueError(f"bracket arity mismatch on {word!r}")
                self._check_degree(n, word, v)
        arity_cap = truncation.arity_max if truncation else max(
            (2 * n for n in self.arities), default=2)
        top = self.space.deg_max + 2
        if min(self.space.degrees(), default=1) >= 1:
            deg_cap = truncation.deg_max if truncation \
                else self.space.deg_max * arity_cap
            words = wd.word_space(self.space, deg_max=min(deg_cap, top),
                                  max_length=arity_cap).all_keys()
        else:
            # letters in degrees < 1: enumerate words directly
            words = (word for m in range(1, arity_cap + 1)
                     for word in wd.canonical_words(self.space, m, top))
        for word in words:
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
    differential, in classical degrees."""

    def __init__(self, fl: FreeLie, delta: GradedMap, name: str = ""):
        if delta.src is not fl.space or delta.degree != -1:
            raise ValueError("differential must be a degree -1 endomap")
        self.fl = fl
        self.delta = delta
        self.name = name

    def validate(self):
        ChainComplex(self.fl.space, self.delta, self.name).validate()

    def as_chain_complex(self) -> ChainComplex:
        return ChainComplex(self.fl.space, self.delta, name=self.name)

    def as_linfty(self) -> LInfinityAlgebra:
        """Shifted presentation: degrees go up by one, l1 is the
        differential, and l2(x, y) = (-1)^{|x|} [x, y] with the shifted
        degree of x (graded symmetric by classical antisymmetry)."""
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

        return LInfinityAlgebra(shifted, {1: l1} if l1 else {},
                                name=self.name, arities=[1, 2],
                                compute=compute)


# ---------------------------------------------------------------------------
# polynomial forms on the interval

class IntervalForms:
    """Q[t] + Q[t] dt, truncated at a fixed polynomial degree.

    Keys: ("p", k) for t^k, ("q", k) for t^k dt; dt has degree -1, so the
    q-part sits in degree -1.  Products that would exceed the polynomial
    bound raise, so callers must pick the bound from their nilpotency depth.
    """

    def __init__(self, poly_bound: int):
        self.poly_bound = poly_bound

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

    def collapse(self, forms, letter_degrees) -> tuple | None:
        """Multiply out the forms of a1 x1 (x) ... (x) an xn, with ai a
        form and xi a letter of the given degree: (form key, sign) for
        the product a1 ... an in front of the letters, where the sign is
        the Koszul sign of each odd ai passing x1 ... x(i-1), or None
        when the product dies."""
        sign = ONE
        before = 0
        for fk, d in zip(forms, letter_degrees):
            if self.degree(fk) % 2 and before % 2:
                sign = -sign
            before += d
        acc = forms[0]
        for fk in forms[1:]:
            prod = self.product(acc, fk)
            if prod is None:
                return None
            acc, c = prod
            sign *= c
        return acc, sign

    def d(self, key) -> Vec:
        kind, k = key
        if kind == "p" and k > 0:
            return {("q", k - 1): Fraction(k)}
        return {}

    def evaluate(self, key, t_value: Fraction) -> Fraction:
        """Evaluate a form at an endpoint (dt goes to zero)."""
        kind, k = key
        if kind == "q":
            return ZERO
        return Fraction(t_value) ** k if k else ONE

    def integrate_to_t(self, key) -> Vec:
        """Indefinite integral from 0: t^k dt goes to t^{k+1}/(k+1);
        polynomial parts integrate to zero (only the dt part is a 1-form)."""
        kind, k = key
        if kind != "q":
            return {}
        if k + 1 > self.poly_bound:
            raise ValueError(
                f"integration needs polynomial degree {k + 1}, "
                f"bound is {self.poly_bound}")
        return {("p", k + 1): Fraction(1, k + 1)}


def extension_of_scalars(L: LInfinityAlgebra, poly_bound: int
                         ) -> tuple[LInfinityAlgebra, GradedMap, GradedMap]:
    """Interval forms tensor L, with evaluation maps at both endpoints.

    Carrier keys are (form_key, letter); brackets multiply the form parts
    and apply l_n to the letters, with the Koszul sign from moving forms
    past letters.  Returns (extended algebra, ev0, ev1).
    """
    omega = IntervalForms(poly_bound)
    form_keys = [("p", k) for k in range(poly_bound + 1)] + \
                [("q", k) for k in range(poly_bound + 1)]
    by_deg: dict[int, list] = {}
    for fk in form_keys:
        for let in L.space.all_keys():
            d = omega.degree(fk) + L.space.degree_of[let]
            by_deg.setdefault(d, []).append((fk, let))
    ext_space = GradedSpace(by_deg, name=f"Omega({L.name})")

    def compute(n: int, word: tuple) -> Vec:
        forms = [k[0] for k in word]
        lets = [k[1] for k in word]
        out: Vec = {}
        if n == 1:
            # l1 = d_Omega (x) id + id (x) l1 with the usual sign
            for fk2, c in omega.d(forms[0]).items():
                add_term(out, (fk2, lets[0]), c)
            s = -ONE if omega.degree(forms[0]) % 2 else ONE
            for let2, c in L.bracket(1, (lets[0],)).items():
                add_term(out, (forms[0], let2), s * c)
            return out
        prod = omega.collapse(forms, [L.space.degree_of[x] for x in lets])
        if prod is None:
            return {}
        fk, sgn = prod
        # the odd operation l_n also passes the whole block of forms
        if sum(omega.degree(fk2) for fk2 in forms) % 2:
            sgn = -sgn
        for let2, c in L.bracket(n, tuple(lets)).items():
            add_term(out, (fk, let2), sgn * c)
        return out

    ext = LInfinityAlgebra(ext_space, {}, name=f"Omega({L.name})",
                           arities=sorted(set(L.arities) | {1}),
                           compute=compute)

    def ev(t_value: Fraction) -> GradedMap:
        cols = {}
        for key in ext_space.all_keys():
            fk, let = key
            c = omega.evaluate(fk, t_value)
            if c:
                cols[key] = {let: c}
        return GradedMap(ext_space, L.space, 0, cols,
                         name=f"ev{t_value}")

    return ext, ev(ZERO), ev(ONE)
