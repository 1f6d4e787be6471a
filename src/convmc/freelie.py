"""Free graded Lie algebras realized inside the tensor algebra.

Everything here uses classical homological conventions: the bracket has
degree 0, [u, v] = u(x)v - (-1)^{|u||v|} v(x)u on tensor words, and a
degree-r derivation satisfies d[u, v] = [du, v] + (-1)^{r|u|}[u, dv].
The shifted bookkeeping used by the rest of the package is a thin wrapper
applied where the Lie algebra is consumed, not here.

Bracket expressions are nested tuples ("br", left, right) over letter keys.
Left-normed expressions span the free Lie algebra, so bases are chosen by
expanding left-normed words degree by degree, in the order of the tensor
words of that degree, and keeping the ones that grow the rank
(deterministic, so every run picks the same basis).  A word's expansion
is the commutator of its prefix's with its last letter; commutator is
also the one rule expand and bracket use.

Blocks.  The letter content of a tensor word is the multiset of its
letters, written as a count per letter.  A commutator of two words is a
sum of words with the joint content, so a left-normed word expands inside
its own content and the free Lie algebra is the direct sum of its blocks
L_beta, one per content beta.  A word grows the rank of its degree
exactly when it grows the rank of its block, so one echelon per content
picks the same basis, in the same order, as one echelon per degree; and
express reduces each content part of a vector against its own block.

Block dimensions come from PBW in plain integers.  The enveloping algebra
of the free Lie algebra on V is the tensor algebra T(V), and by PBW it
is, as a multigraded space, the product of S(L_beta) over even beta and
of the exterior algebras of L_beta over odd beta (parity of the degree).
In commuting variables t_i, one per letter, the Hilbert series are

    1 / (1 - sum_i t_i)
        = prod_{beta even} (1 - t^beta)^{-dim L_beta}
          prod_{beta odd} (1 + t^beta)^{dim L_beta}.

Taking logarithms and reading the coefficient of t^beta gives the super
Witt formula, with W(beta) the number of words of content beta, |beta|
its length and s(u) = -1 for odd and +1 for even degree:

    W(beta) = sum_{k | gcd(beta)} (|beta| / k) s(beta/k)^{k+1} dim L_{beta/k}.

The k = 1 term is |beta| dim L_beta, so each block's dimension follows
from those of the contents beta/k below it by one exact division.  Once a
block holds that many basis elements, the later words of its content are
skipped without being expanded; a skipped word's expansion is built only
when a later word needs it as a prefix.

A FreeLie keeps two memos for its lifetime, so they go wherever the
instance goes (a loop model in hopf's model cache keeps them with it):

- the tensor expansion of each basis element, keyed by the element, kept
  by the basis scan that computed it; one entry per basis element.
- the bracket of each pair of basis elements in the basis, keyed by the
  pair (a, b) and filled on the first bracket that needs it.  A pair
  above the window raises before anything is stored, so it holds at most
  one entry per pair whose degrees sum to at most deg_max.

bracket is bilinear over the second memo and returns a fresh dict; no
memo entry is handed to a caller.
"""

from __future__ import annotations

from functools import reduce
from math import comb, gcd

from . import matrices
from .graded import (GradedMap, GradedSpace, Key, Vec, add_term, vec_add,
                     vec_scale)
from .matrices import ONE

BR = "br"


def is_bracket(e) -> bool:
    return isinstance(e, tuple) and len(e) == 3 and e[0] == BR


def br(a, b):
    return (BR, a, b)


def expr_degree(letters: GradedSpace, e) -> int:
    if is_bracket(e):
        return expr_degree(letters, e[1]) + expr_degree(letters, e[2])
    return letters.degree_of[e]


def expand(letters: GradedSpace, e) -> Vec:
    """Expansion in the tensor algebra; keys are flat letter tuples."""
    if not is_bracket(e):
        return {(e,): ONE}
    return commutator(letters, expand(letters, e[1]), expand(letters, e[2]))


def commutator(letters: GradedSpace, u: Vec, v: Vec) -> Vec:
    """u (x) v - (-1)^{|u||v|} v (x) u for homogeneous tensor vectors."""
    if not u or not v:
        return {}
    du = sum(letters.degree_of[x] for x in next(iter(u)))
    dv = sum(letters.degree_of[x] for x in next(iter(v)))
    sign = ONE if (du * dv) % 2 else -ONE
    out: Vec = {}
    for tu, cu in u.items():
        for tv, cv in v.items():
            c = cu * cv
            add_term(out, tu + tv, c)
            add_term(out, tv + tu, sign * c)
    return out


def _tensor_words(letters: GradedSpace, deg_max: int) -> dict[int, list[tuple]]:
    """Tensor words by degree up to deg_max, each degree ordered by length
    and then lexicographically in the letters' sort order: the order in
    which FreeLie offers their left-normed brackets to the basis."""
    keys = sorted(letters.all_keys(), key=letters.sort_key)
    min_deg = min((letters.degree_of[k] for k in keys), default=1)
    if min_deg < 1:
        raise ValueError("free Lie letters must sit in degrees >= 1")
    by_deg: dict[int, list[tuple]] = {}
    frontier: list[tuple[tuple, int]] = [((), 0)]
    while frontier:
        nxt = []
        for word, d in frontier:
            for k in keys:
                nd = d + letters.degree_of[k]
                if nd > deg_max:
                    continue
                w = word + (k,)
                by_deg.setdefault(nd, []).append(w)
                nxt.append((w, nd))
        frontier = nxt
    for d in by_deg:
        by_deg[d].sort(key=lambda w: (len(w), [letters.sort_key(x) for x in w]))
    return by_deg


class FreeLie:
    """Free graded Lie algebra on a letter space, truncated in degree."""

    def __init__(self, letters: GradedSpace, deg_max: int):
        for k in letters.all_keys():
            if isinstance(k, tuple) and len(k) == 3 and k[0] == BR:
                raise ValueError("letter key collides with bracket tag")
        self.letters = letters
        self.deg_max = deg_max
        self._index = {k: i for i, k in enumerate(letters.all_keys())}
        basis_by_deg: dict[int, list] = {}
        # per content: the echelon of its accepted expansions, and the
        # basis elements they are, in order
        self._blocks: dict[tuple, tuple[matrices.Echelon, list]] = {}
        self._expansions: dict = {}
        self._brackets: dict[tuple, Vec] = {}
        words = _tensor_words(letters, deg_max)
        self._degrees = set(words)
        dims: dict[tuple, int] = {}
        words_ex: dict[tuple, Vec] = {}   # the ones scanned or needed

        def expansion(word: tuple) -> Vec:
            ex = words_ex.get(word)
            if ex is None:
                ex = words_ex[word] = {word: ONE} if len(word) == 1 else \
                    commutator(letters, expansion(word[:-1]),
                               {word[-1:]: ONE})
            return ex

        for d, scan in sorted(words.items()):
            for word in scan:
                content = self._content(word)
                block = self._blocks.get(content)
                if block is None:
                    block = self._blocks[content] = (matrices.Echelon(), [])
                ech, elements = block
                if ech.rank == self._witt_dim(content, dims):
                    continue
                ex = expansion(word)
                if ech.add(ex):
                    e = reduce(br, word)   # left-normed: [[w1, w2], w3] ...
                    elements.append(e)
                    basis_by_deg.setdefault(d, []).append(e)
                    self._expansions[e] = ex
        self.space = GradedSpace(basis_by_deg, name=f"L({letters.name})")

    def _content(self, word: tuple) -> tuple:
        """The letter content of a tensor word: its count of each letter."""
        counts = [0] * len(self._index)
        for x in word:
            counts[self._index[x]] += 1
        return tuple(counts)

    def _witt_dim(self, content: tuple, dims: dict) -> int:
        """dim L_content by the super Witt formula (module docstring),
        memoized in dims together with the contents content/k it reads."""
        dim = dims.get(content)
        if dim is not None:
            return dim
        length = sum(content)
        words, seen = 1, 0   # the multinomial coefficient W(content)
        for c in content:
            seen += c
            words *= comb(seen, c)
        rest = words
        degrees = [self.letters.degree_of[k] for k in self._index]
        for k in range(2, gcd(*content) + 1):
            if any(c % k for c in content):
                continue
            sub = tuple(c // k for c in content)
            odd = sum(c * d for c, d in zip(sub, degrees)) % 2
            sign = -1 if odd and k % 2 == 0 else 1
            rest -= (length // k) * sign * self._witt_dim(sub, dims)
        dim, remainder = divmod(rest, length)
        if remainder:
            raise AssertionError(f"Witt formula leaves {remainder} over "
                                 f"{length} at letter content {content}")
        dims[content] = dim
        return dim

    def dim(self, n: int) -> int:
        return self.space.dim(n)

    def express(self, tv: Vec) -> Vec:
        """Write a tensor vector in the chosen Lie basis; raises when the
        vector is not in the Lie span, naming the lowest degree that
        fails."""
        parts: dict[int, dict[tuple, Vec]] = {}
        for w, c in tv.items():
            d = sum(self.letters.degree_of[x] for x in w)
            parts.setdefault(d, {}).setdefault(self._content(w), {})[w] = c
        out: Vec = {}
        for d in sorted(parts):
            if d not in self._degrees:
                raise ValueError(f"degree {d} is outside the truncation")
            for content, part in parts[d].items():
                ech, elements = self._blocks[content]
                sol = ech.coords(part)
                if sol is None:
                    raise ValueError(
                        f"vector is not in the Lie span in degree {d}")
                for e, c in zip(elements, sol):
                    if c:
                        out[e] = c
        return {e: out[e] for e in sorted(out, key=self.space.sort_key)}

    def bracket(self, u: Vec, v: Vec) -> Vec:
        """Classical bracket of two vectors in basis coordinates, expressed
        in the basis: bilinear over the memo of basis-pair brackets."""
        out: Vec = {}
        for a, ca in u.items():
            if not ca:
                continue
            for b, cb in v.items():
                if cb:
                    c = ca * cb
                    for e, ce in self._basis_bracket(a, b).items():
                        add_term(out, e, c * ce)
        return {e: out[e] for e in sorted(out, key=self.space.sort_key)}

    def _basis_bracket(self, a, b) -> Vec:
        """[a, b] of two basis elements in the basis, computed once."""
        val = self._brackets.get((a, b))
        if val is not None:
            return val
        da = expr_degree(self.letters, a)
        db = expr_degree(self.letters, b)
        if da + db > self.deg_max:
            raise ValueError("bracket leaves the truncation window")
        val = self._brackets[(a, b)] = self.express(
            commutator(self.letters, self._expansions[a],
                       self._expansions[b]))
        return val

    def derivation(self, letter_values: dict[Key, Vec], degree: int,
                   name: str = "") -> GradedMap:
        """Extend values on letters to a degree-r derivation of the free Lie
        algebra, as a map in the chosen basis."""

        memo: dict = {}

        def coords(e) -> Vec:
            if e in self._expansions:
                return {e: ONE}
            return self.express(expand(self.letters, e))

        def value(e) -> Vec:
            if e in memo:
                return memo[e]
            if not is_bracket(e):
                out = dict(letter_values.get(e, {}))
            else:
                a, b = e[1], e[2]
                da = expr_degree(self.letters, a)
                va = value(a)
                vb = value(b)
                out = self.bracket(va, coords(b)) if va else {}
                if vb:
                    term = self.bracket(coords(a), vb)
                    sgn = -ONE if (degree * da) % 2 else ONE
                    out = vec_add(out, vec_scale(sgn, term))
            memo[e] = out
            return out

        cols = {e: value(e) for e in self.space.all_keys()}
        return GradedMap(self.space, self.space, degree, cols, name=name)
