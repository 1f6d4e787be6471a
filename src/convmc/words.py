"""Symmetric word combinatorics for bar-side constructions.

A word over a graded letter space is a sorted tuple of basis letters; the
canonical order is the letter space's (degree, position) order.  A word with
a repeated odd letter is zero and never appears as a basis key.  Coproducts,
coderivations and coalgebra morphisms are all sums over position subsets or
partitions of the sorted word, with Koszul signs computed from the letter
degrees.

Conventions pinned here and relied on everywhere downstream:

  * unshuffles is the single enumeration of position subsets: for each
    k-subset, in combinations order, the chosen block, the rest and the
    Koszul sign of moving the block to the front.
  * reduced_coproduct_terms sums over proper nonempty position subsets, so
    a squared even letter x gives  x.x |-> 2 (x (x) x).
  * coderivation applies the arity-n component to the chosen front block,
    each unordered position subset counted once.
  * symmetrize is the averaged inclusion into tensors, (1/n!) sum of signed
    permutations, and wordify is its left inverse (sort with sign).  No
    computation path calls symmetrize: the transfer lifts its homotopy to
    words by a weighted sum over unshuffles instead of n! orderings.  It
    stays as the reference the tests check that sum against.
  * canonical_words is the single enumeration of basis words: every sorted
    n-letter word with no repeated odd letter, in the order of
    combinations_with_replacement over the letters in canonical order.
    Given deg_max it lists only the words of degree <= deg_max, in the same
    order, and never builds one above it.  A caller that evaluates an
    operation of degree k on all words passes the bound at which the value
    can still land in a carrier whose top degree is D: D - k.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from typing import Callable, Iterator, Sequence

from .graded import GradedMap, GradedSpace, Key, Vec, add_term, tensor_terms


def sort_letters(letters: GradedSpace, seq: Sequence[Key]):
    """Sort a tuple of letters into canonical order with the Koszul sign.

    Returns (word, sign), or None when the word vanishes because of a
    repeated odd letter.
    """
    sign = 1
    out: list = []
    for let in seq:
        d = letters.degree_of[let]
        k = letters.sort_key(let)
        j = len(out)
        while j > 0 and letters.sort_key(out[j - 1]) > k:
            if (d * letters.degree_of[out[j - 1]]) % 2:
                sign = -sign
            j -= 1
        out.insert(j, let)
    for a, b in zip(out, out[1:]):
        if a == b and letters.degree_of[a] % 2:
            return None
    return tuple(out), sign


def word_degree(letters: GradedSpace, word: tuple) -> int:
    return sum(letters.degree_of[let] for let in word)


def canonical_words(letters: GradedSpace, n: int,
                    deg_max: int | None = None) -> Iterator[tuple]:
    """Every sorted n-letter word with no repeated odd letter, in the order
    of combinations_with_replacement over the letters sorted by sort_key,
    and of degree at most deg_max when it is given.

    sort_letters leaves such a word as it is, so these are exactly the
    basis words of arity n.  sort_key sorts by degree first, so a branch
    whose next letter, taken for every letter still to place, already
    exceeds the degree left is cut with all the heavier letters after it.
    """
    keys = sorted(letters.all_keys(), key=letters.sort_key)
    degs = [letters.degree_of[k] for k in keys]
    if deg_max is None:
        deg_max = n * max(degs, default=0)

    def extend(lo: int, left: int, budget: int) -> Iterator[tuple]:
        if not left:
            if budget >= 0:
                yield ()
            return
        for i in range(lo, len(keys)):
            d = degs[i]
            if d * left > budget:
                return
            # an odd letter cannot repeat: the next one starts after it
            for rest in extend(i + d % 2, left - 1, budget - d):
                yield (keys[i],) + rest

    return extend(0, n, deg_max)


def word_space(letters: GradedSpace, deg_max: int, max_length: int | None = None,
               name: str = "") -> GradedSpace:
    """All nonzero words of length >= 1 and degree <= deg_max.

    Letters must sit in degrees >= 1 so that the degree cap keeps the word
    count finite; pass a truncated letter space otherwise.
    """
    if not letters.degree_of:
        return GradedSpace({}, name=name)
    min_deg = letters.deg_min
    if min_deg < 1:
        raise ValueError("word_space needs letters in degrees >= 1; truncate first")
    by_deg: dict[int, list] = {}
    n = 1
    while n * min_deg <= deg_max and (max_length is None or n <= max_length):
        for combo in canonical_words(letters, n, deg_max):
            by_deg.setdefault(word_degree(letters, combo), []).append(combo)
        n += 1
    for d in by_deg:
        by_deg[d].sort(key=lambda w: (len(w), [letters.sort_key(x) for x in w]))
    return GradedSpace(by_deg, name=name or f"words({letters.name})")


def wordify(letters: GradedSpace, tensor_vec: Vec) -> Vec:
    """Collapse tensor tuples to sorted words (the map called rho in the
    transfer machinery).  Left inverse of symmetrize."""
    out: Vec = {}
    for tup, c in tensor_vec.items():
        sw = sort_letters(letters, tup)
        if sw is None:
            continue
        word, sign = sw
        add_term(out, word, sign * c)
    return out


def symmetrize(letters: GradedSpace, word: tuple) -> Vec:
    """Averaged inclusion of a word into the tensor power: (1/n!) times the
    signed sum over all position permutations."""
    n = len(word)
    degs = [letters.degree_of[let] for let in word]
    coeff = Fraction(1)
    for k in range(2, n + 1):
        coeff /= k
    out: Vec = {}
    for perm in permutations(range(n)):
        add_term(out, tuple(word[p] for p in perm),
                 blocks_sign(degs, [perm]) * coeff)
    return out


def unshuffle_sign(degs: Sequence[int], subset: Sequence[int]) -> int:
    """Koszul sign of moving the selected positions to the front, preserving
    the relative order on both sides."""
    chosen = set(subset)
    sign = 1
    for a in subset:
        for b in range(a):
            if b not in chosen and (degs[a] * degs[b]) % 2:
                sign = -sign
    return sign


def unshuffles(degs: Sequence[int], word: tuple, k: int
               ) -> Iterator[tuple[tuple, tuple, int]]:
    """(block, rest, sign) for each k-subset of the positions of word, in
    combinations order: block holds the chosen letters and rest the
    others, both in word order, and sign is the Koszul sign of moving the
    block to the front.  degs[i] is the degree of word[i]."""
    n = len(word)
    for subset in combinations(range(n), k):
        chosen = set(subset)
        yield (tuple(word[i] for i in subset),
               tuple(word[i] for i in range(n) if i not in chosen),
               unshuffle_sign(degs, subset))


def reduced_coproduct_terms(letters: GradedSpace, word: tuple):
    """[( (left_word, right_word), coeff )] over proper nonempty position
    subsets.  Both halves of a sorted word stay sorted, so no resorting is
    needed, only the unshuffle sign."""
    degs = [letters.degree_of[let] for let in word]
    return [((left, right), Fraction(sign))
            for k in range(1, len(word))
            for left, right, sign in unshuffles(degs, word, k)]


def insert_letter(letters: GradedSpace, word: tuple, let: Key):
    """Sort one letter into an already sorted word.  Returns (word, sign) or
    None when the result has a repeated odd letter."""
    return sort_letters(letters, (let,) + word)


def coderivation(components: dict[int, Callable[[tuple], Vec]],
                 words: GradedSpace, letters: GradedSpace, degree: int,
                 name: str = "") -> GradedMap:
    """Coderivation of the cofree cocommutative coalgebra determined by its
    corestrictions.

    components[n] maps a sorted n-letter word to a letter vector, homogeneous
    of the given degree.  On a word w the coderivation is the sum over
    position subsets S of size n of

        sign(S) . (components[n](w_S) sorted into w without S),

    the sign being the Koszul unshuffle sign; the component acts on the front
    block so it crosses nothing.
    """
    out = GradedMap(words, words, degree, name=name)
    for word in words.all_keys():
        n = len(word)
        degs = [letters.degree_of[let] for let in word]
        col: Vec = {}
        for arity, comp in components.items():
            if arity > n:
                continue
            for block, rest, sign in unshuffles(degs, word, arity):
                for let, c in comp(block).items():
                    ins = insert_letter(letters, rest, let)
                    if ins is None:
                        continue
                    new_word, s2 = ins
                    add_term(col, new_word, sign * s2 * c)
        if col:
            out.set_column(word, col)
    return out


def set_partitions(n: int) -> Iterator[list[tuple[int, ...]]]:
    """Unordered set partitions of range(n), blocks listed by least element,
    in a fixed deterministic order."""
    if n == 0:
        yield []
        return

    def rec(i: int, blocks: list[list[int]]):
        if i == n:
            yield [tuple(b) for b in blocks]
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1, blocks)
            b.pop()
        blocks.append([i])
        yield from rec(i + 1, blocks)
        blocks.pop()

    yield from rec(0, [])


def blocks_sign(degs: Sequence[int], blocks: Sequence[tuple[int, ...]]) -> int:
    """Koszul sign of rearranging the word into the concatenation of the
    blocks (each block keeps its internal order); with one block, the
    sign of that permutation of the positions."""
    order = [i for b in blocks for i in b]
    sign = 1
    for i in range(len(order)):
        for j in range(i + 1, len(order)):
            if order[i] > order[j] and (degs[order[i]] * degs[order[j]]) % 2:
                sign = -sign
    return sign


def coalgebra_morphism(components: dict[int, Callable[[tuple], Vec]],
                       src_words: GradedSpace, src_letters: GradedSpace,
                       dst_words: GradedSpace, dst_letters: GradedSpace,
                       name: str = "") -> GradedMap:
    """Coalgebra morphism of cofree cocommutative coalgebras from its
    corestrictions (all of degree 0).

    components[n] maps a sorted n-letter source word to a target letter
    vector.  On a word the morphism sums over unordered set partitions of
    the positions, applies one component per block and multiplies the
    resulting letters into a target word.  A partition with a block size
    that has no component contributes nothing.
    """
    out = GradedMap(src_words, dst_words, 0, name=name)
    for word in src_words.all_keys():
        n = len(word)
        degs = [src_letters.degree_of[let] for let in word]
        col: Vec = {}
        for blocks in set_partitions(n):
            if any(len(b) not in components for b in blocks):
                continue
            images = (components[len(b)](tuple(word[i] for i in b))
                      for b in blocks)
            for tup, c in tensor_terms(images,
                                       Fraction(blocks_sign(degs, blocks))):
                sw = sort_letters(dst_letters, tup)
                if sw is None:
                    continue
                word2, s2 = sw
                add_term(col, word2, s2 * c)
        if col:
            out.set_column(word, col)
    return out
