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
  * reduced_coproduct_terms is the sum over proper nonempty position
    subsets, so a squared even letter x gives  x.x |-> 2 (x (x) x), read
    off the sub-multisets instead: a word with m_i copies of each letter
    has prod (m_i + 1) splits, with coefficients prod C(m_i, k_i).
  * coderivation_terms is the single coderivation sum: each arity-n
    corestriction acts on the chosen front block, each unordered position
    subset counted once, and its letter goes in front of the rest.  The
    blocks of a sorted word are sorted.  The whole word and the single
    letters, skipped where their value is zero, are split directly, each
    value read once; only the arities between go through unshuffles.  The
    bar differential (coderivation), the Jacobi sum of an L-infinity
    algebra and the transfer's bracket coderivation all read it, and so
    does the source side of the infinity-morphism identity in the tests.
  * blocks_sign is the Koszul sign of rearranging a word into blocks.
    The coalgebra-morphism sum over unordered set partitions reads it too.
    No computation evaluates a coalgebra morphism of words, so that sum
    lives in tests/test_words.py as a reference, next to its tests; the
    target side of the infinity-morphism identity in tests/test_transfer.py
    reads it.
  * add_word is the single sort-and-accumulate: a letter tuple goes into a
    vector of words with its Koszul sort sign, and vanishes on a repeated
    odd letter.
  * symmetrize is the averaged inclusion into tensors, (1/n!) sum of signed
    permutations; its left inverse, wordify (add_word over a tensor
    vector), is in tests/test_words.py.  No computation path calls
    symmetrize: the transfer lifts its homotopy to words by a weighted sum
    over unshuffles instead of n! orderings.  It stays as the reference
    the tests check that sum against.
  * canonical_words is the single enumeration of basis words: every sorted
    n-letter word with no repeated odd letter, in the order of
    combinations_with_replacement over the letters in canonical order.
    Given deg_max it lists only the words of degree <= deg_max, in the same
    order, and never builds one above it.  A caller that evaluates an
    operation of degree k on all words passes the bound at which the value
    can still land in a carrier whose top degree is D: D - k.
"""

from __future__ import annotations

from itertools import combinations, groupby, permutations, product
from math import comb, factorial
from typing import Callable, Iterable, Iterator, Sequence

from .graded import GradedMap, GradedSpace, Key, Vec, add_term
from .matrices import inverse


def sort_letters(letters: GradedSpace, seq: Sequence[Key]):
    """Sort a tuple of letters into canonical order with the Koszul sign.

    Returns (word, sign), or None when the word vanishes because of a
    repeated odd letter.  Each letter's sort key and parity are read once.
    """
    sign = 1
    out: list = []
    keys: list = []
    odds: list = []
    for let in seq:
        k = letters.sort_key(let)
        odd = letters.degree_of[let] % 2
        j = len(keys)
        while j and keys[j - 1] > k:
            j -= 1
            if odd and odds[j]:
                sign = -sign
        if odd and j and keys[j - 1] == k:
            return None
        out.insert(j, let)
        keys.insert(j, k)
        odds.insert(j, odd)
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
    """All nonzero words of length 1..max_length and degree <= deg_max,
    each degree's words shortest first, then in canonical order.

    Letters in degrees >= 1 keep the word count finite through the degree
    cap alone; letters below degree 1 need max_length.
    """
    if not letters.degree_of:
        return GradedSpace({}, name=name)
    if max_length is None:
        if letters.deg_min < 1:
            raise ValueError("word_space needs a max_length for letters below degree 1")
        max_length = deg_max // letters.deg_min
    by_deg: dict[int, list] = {}
    for n in range(1, max_length + 1):
        for combo in canonical_words(letters, n, deg_max):
            by_deg.setdefault(word_degree(letters, combo), []).append(combo)
    for d in by_deg:
        by_deg[d].sort(key=lambda w: (len(w), [letters.sort_key(x) for x in w]))
    return GradedSpace(by_deg, name=name or f"words({letters.name})")


def add_word(letters: GradedSpace, acc: Vec, seq: Sequence[Key],
             coeff) -> None:
    """Add coeff times the letter tuple seq into acc as a sorted word, with
    the Koszul sort sign; a tuple with a repeated odd letter adds nothing."""
    if not coeff:
        return
    sw = sort_letters(letters, seq)
    if sw is not None:
        add_term(acc, sw[0], sw[1] * coeff)


def symmetrize(letters: GradedSpace, word: tuple) -> Vec:
    """Averaged inclusion of a word into the tensor power: (1/n!) times the
    signed sum over all position permutations."""
    n = len(word)
    degs = [letters.degree_of[let] for let in word]
    coeff = inverse(factorial(n))
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
    """[((left_word, right_word), coeff)], the reduced coproduct of a
    sorted word summed over its position subsets: one term per proper
    nonempty sub-multiset, in the order the subsets of unshuffles first
    reach it.  Taking k of the m copies of a letter to the left happens
    in C(m, k) ways; an odd letter never repeats, and taking it crosses
    the odd letters left behind before it.  Both halves stay sorted."""
    runs = [(let, len(list(g)), letters.degree_of[let] % 2)
            for let, g in groupby(word)]
    terms = []
    # how many copies of each letter go left: by total, then from most
    for ks in sorted(product(*(range(m, -1, -1) for _, m, _ in runs)),
                     key=sum)[1:-1]:
        coeff, crossed, left, right = 1, 0, (), ()
        for (let, m, odd), k in zip(runs, ks):
            coeff *= -comb(m, k) if odd and k and crossed else comb(m, k)
            crossed ^= odd and not k
            left += (let,) * k
            right += (let,) * (m - k)
        terms.append(((left, right), coeff))
    return terms


def coderivation_terms(op: Callable[[int, tuple], Vec], arities: Iterable[int],
                       degs: Sequence[int], word: tuple
                       ) -> Iterator[tuple]:
    """Terms of the coderivation with corestrictions op on a sorted word.

    For each n in arities, in the given order, and each n-subset of the
    positions, in unshuffles order, op(n, block) is put in front of the
    rest with the unshuffle sign; op acts on the front block, so it
    crosses nothing.  Yields (letters, coeff) with letters unsorted:
    (let,) + rest.  degs[i] is the degree of word[i].
    """
    for n in arities:
        if n == len(word):
            for let, c in op(n, word).items():
                yield (let,), c
        elif n == 1:
            before = 0  # degree of the letters before position i
            for i, let in enumerate(word):
                for k, c in op(1, (let,)).items():
                    yield ((k,) + word[:i] + word[i + 1:],
                           -c if before * degs[i] % 2 else c)
                before += degs[i]
        else:
            for block, rest, sign in unshuffles(degs, word, n):
                for let, c in op(n, block).items():
                    yield (let,) + rest, sign * c


def coderivation(components: dict[int, Callable[[tuple], Vec]],
                 words: GradedSpace, letters: GradedSpace, degree: int,
                 name: str = "") -> GradedMap:
    """Coderivation of the cofree cocommutative coalgebra determined by its
    corestrictions.

    components[n] maps a sorted n-letter word to a letter vector,
    homogeneous of the given degree; the value on a word sums
    coderivation_terms sorted back into words.
    """
    out = GradedMap(words, words, degree, name=name)
    for word in words.all_keys():
        degs = [letters.degree_of[let] for let in word]
        col: Vec = {}
        for seq, c in coderivation_terms(lambda n, b: components[n](b),
                                         components, degs, word):
            add_word(letters, col, seq, c)
        if col:
            out.set_column(word, col)
    return out


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
