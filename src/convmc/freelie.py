"""Free graded Lie algebras realized inside the tensor algebra.

Everything here uses classical homological conventions: the bracket has
degree 0, [u, v] = u(x)v - (-1)^{|u||v|} v(x)u on tensor words, and a
degree-r derivation satisfies d[u, v] = [du, v] + (-1)^{r|u|}[u, dv].
The shifted bookkeeping used by the rest of the package is a thin wrapper
applied where the Lie algebra is consumed, not here.

Bracket expressions are nested tuples ("br", left, right) over letter keys.
The basis of each degree is greedy: the left-normed brackets of its tensor
words, by length and then lexicographically (letters in sort order), each
kept when it grows the rank.  A word's expansion is the commutator of its
prefix's with its last letter; commutator is also the one rule expand and
bracket use.

Blocks.  A commutator of words is a sum of words of the joint letter
content (count of each letter), so the algebra is the direct sum of blocks
L_beta, one per content beta, and a word grows the rank of its degree
exactly when it grows the rank of its block.  A block's words have one
length, so the scan takes each block alone, in lexicographic order (next
permutation of the sorted multiset), until it holds dim L_beta elements;
sorting the kept words by (length, word) gives the greedy basis in order.
express reduces each content part against its block, and the bracket of
two basis elements reads their commutator in the block of their joint
content.

Sizes, before any word is built.  A content of one letter x has dimension
1 for x, 1 for x x when x is odd and 0 past that ([x, x] = 0 for even x,
[x, [x, x]] = 0), so x^n is never listed for n > 2.  Any other content
through deg_max holds a Lyndon word, so its dimension is at least 1; the
super Witt formula, the logarithm of PBW (U(L(V)) = T(V)), gives it from
W(beta), the number of words of content beta, its length |beta| and the
sign s(u), -1 for odd and +1 for even degree:

    W(beta) = sum_{k | gcd(beta)} (|beta| / k) s(beta/k)^{k+1} dim L_{beta/k}.

The k = 1 term is |beta| dim L_beta: one exact division.  Once the sizes
sum past BASIS_CAP = 2^15, the listing stops and raises BasisTooLarge, a
ValueError.  Each element keeps its expansion, up to 2^(n-1) words at
length n, so the cap bounds memory: on 2 vCPUs, cobar of S2vS2vS2 at
window 12 (25,545 elements) takes 49 s and 1.5 GB; window 13 (69,765)
is refused.

A FreeLie keeps, for its lifetime (a loop model in hopf's model cache
keeps them with it), the expansion and content of each basis element and
a memo of the bracket of each pair (a, b) of basis elements in the basis.
For each kept word p x whose prefix's bracket p is a basis element, the
scan stores [p, x] = {p x: 1}, an identity of expansions; any other pair
is filled on the first bracket that needs it.  A pair above the window
raises first, so the memo holds at most one entry per pair whose degrees
sum to at most deg_max.  bracket is bilinear over the memo and returns a
fresh dict; no memo entry is handed to a caller.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain
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


# the most basis elements, over all degrees, a FreeLie builds (see above)
BASIS_CAP = 1 << 15


class BasisTooLarge(ValueError):
    """The Witt dimensions through the window sum past BASIS_CAP."""


def _contents(degrees: list[int], room: int):
    """Every letter content of degree at most room on letters of the
    given degrees, as counts per letter, the empty one included."""
    if not degrees:
        yield ()
        return
    for c in range(room // degrees[0] + 1):
        for rest in _contents(degrees[1:], room - c * degrees[0]):
            yield (c,) + rest


def _arrangements(word: list):
    """A sorted list's distinct rearrangements, by next permutation."""
    while True:
        yield tuple(word)
        i = max((i for i in range(len(word) - 1) if word[i] < word[i + 1]),
                default=-1)
        if i < 0:
            return
        j = max(j for j in range(i + 1, len(word)) if word[j] > word[i])
        word[i], word[j] = word[j], word[i]
        word[i + 1:] = reversed(word[i + 1:])


class FreeLie:
    """Free graded Lie algebra on a letter space, truncated in degree."""

    def __init__(self, letters: GradedSpace, deg_max: int):
        keys = self._keys = letters.all_keys()
        for k in keys:
            if isinstance(k, tuple) and len(k) == 3 and k[0] == BR:
                raise ValueError("letter key collides with bracket tag")
        degrees = self._degrees = [letters.degree_of[k] for k in keys]
        if min(degrees, default=1) < 1:
            raise ValueError("free Lie letters must sit in degrees >= 1")
        self.letters = letters
        self.deg_max = deg_max
        # per content: the echelon of its accepted expansions, and the
        # basis elements they are, in order
        self._blocks: dict[tuple, tuple[matrices.Echelon, list]] = {}
        self._content_of: dict = {}
        self._expansions: dict = {}
        self._brackets: dict[tuple, Vec] = {}
        words_ex: dict[tuple, Vec] = {}   # the ones scanned or needed

        def expansion(word: tuple) -> Vec:
            ex = words_ex.get(word)
            if ex is None:
                ex = words_ex[word] = {word: ONE} if len(word) == 1 else \
                    commutator(letters, expansion(word[:-1]),
                               {word[-1:]: ONE})
            return ex

        sized, total, dims = [], 0, {}
        # one letter: x, and x x for odd x; then two letters or more, the
        # first of them i, each content listed once
        ones = (((0,) * i + (n,) + (0,) * (len(keys) - i - 1), 1)
                for i, d in enumerate(degrees) for n in (1, 2)
                if n * d <= deg_max and (n == 1 or d % 2))
        mixed = ((c, self._witt_dim(c, dims)) for c in (
            (0,) * i + (n,) + rest for i, d in enumerate(degrees)
            for n in range(1, (deg_max - min(degrees[i + 1:],
                                             default=deg_max + 1)) // d + 1)
            for rest in _contents(degrees[i + 1:], deg_max - n * d)
            if any(rest)))
        for content, dim in chain(ones, mixed):
            total += dim
            if total > BASIS_CAP:
                raise BasisTooLarge(f"the free Lie basis through degree "
                                    f"{deg_max} passes {BASIS_CAP} elements")
            if dim:
                sized.append((content, dim))
        accepted = []
        for content, dim in sized:
            ech, elements = self._blocks[content] = (matrices.Echelon(), [])
            degree = sum(c * d for c, d in zip(content, degrees))
            for iw in _arrangements([i for i, c in enumerate(content)
                                     for _ in range(c)]):
                word = tuple(keys[i] for i in iw)
                if ech.add(ex := expansion(word)):
                    e = reduce(br, word)   # left-normed: [[w1, w2], w3] ...
                    elements.append(e)
                    self._content_of[e], self._expansions[e] = content, ex
                    accepted.append((degree, len(iw), iw, e))
                    if ech.rank == dim:
                        break
            else:
                raise AssertionError(f"letter content {content} holds "
                                     f"{ech.rank} basis elements, not {dim}")
        basis_by_deg: dict[int, list] = {}
        for degree, _, _, e in sorted(accepted):
            basis_by_deg.setdefault(degree, []).append(e)
            if is_bracket(e) and e[1] in self._expansions:
                self._brackets[e[1], e[2]] = {e: ONE}
        self.space = GradedSpace(basis_by_deg, name=f"L({letters.name})")

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
        rest, g = words, gcd(*content)
        for k in [k for k in range(2, g + 1) if g % k == 0]:
            sub = tuple(c // k for c in content)
            odd = sum(c * d for c, d in zip(sub, self._degrees)) % 2
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
            content = tuple(map(w.count, self._keys))
            parts.setdefault(d, {}).setdefault(content, {})[w] = c
        out: Vec = {}
        for d in sorted(parts):
            if not 0 < d <= self.deg_max:
                raise ValueError(f"degree {d} is outside the truncation")
            for content, part in parts[d].items():
                out.update(self._in_block(content, part, d))
        return {e: out[e] for e in sorted(out, key=self.space.sort_key)}

    def _in_block(self, content: tuple, tv: Vec, degree: int) -> Vec:
        """A tensor vector of one content in its block's basis, in basis
        order; raises when it is not in the Lie span."""
        ech, elements = self._blocks.get(content) or (matrices.Echelon(), [])
        sol = ech.coords(tv)
        if sol is None:
            raise ValueError(f"vector is not in the Lie span in degree {degree}")
        return {e: c for e, c in zip(elements, sol) if c}

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
        d = self.space.degree_of[a] + self.space.degree_of[b]
        if d > self.deg_max:
            raise ValueError("bracket leaves the truncation window")
        content = tuple(map(sum, zip(self._content_of[a],
                                     self._content_of[b])))
        val = self._brackets[(a, b)] = self._in_block(
            content, commutator(self.letters, self._expansions[a],
                                self._expansions[b]), d)
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
