from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from convmc import cli, matrices
from convmc.freelie import FreeLie, br, commutator, expand, expr_degree
from convmc.graded import (ChainComplex, GradedSpace, add_term,
                           contraction_from_complex)

F = Fraction


def test_expand_commutator_signs():
    L = GradedSpace({1: ["a"], 2: ["u"]}, name="V")
    # odd letter: [a, a] = 2 a(x)a
    assert expand(L, br("a", "a")) == {("a", "a"): F(2)}
    # even letter: [u, u] = 0
    assert expand(L, br("u", "u")) == {}
    # mixed: [a, u] = a(x)u - u(x)a
    assert expand(L, br("a", "u")) == {("a", "u"): F(1), ("u", "a"): F(-1)}


def test_dims_one_even_generator():
    L = GradedSpace({2: ["u"]}, name="V")
    fl = FreeLie(L, deg_max=6)
    assert [fl.dim(n) for n in range(1, 7)] == [0, 1, 0, 0, 0, 0]


def test_dims_one_odd_generator():
    L = GradedSpace({1: ["a"]}, name="V")
    fl = FreeLie(L, deg_max=4)
    # degree 2 holds [a,a]; the triple bracket vanishes over Q
    assert [fl.dim(n) for n in range(1, 5)] == [1, 1, 0, 0]


def test_dims_two_odd_generators():
    # Hilbert series: U(L) = T(V) forces dims 2, 3, 2, 3 in degrees 1..4
    L = GradedSpace({1: ["a", "b"]}, name="V")
    fl = FreeLie(L, deg_max=4)
    assert [fl.dim(n) for n in range(1, 5)] == [2, 3, 2, 3]


def test_dims_two_even_generators():
    # ungraded Witt numbers in even degrees: 2, 1, 2 for weights 1..3
    L = GradedSpace({2: ["u", "v"]}, name="V")
    fl = FreeLie(L, deg_max=6)
    assert [fl.dim(n) for n in (2, 4, 6)] == [2, 1, 2]


def projective_plane_letters():
    # desuspended cell letters of the complex projective plane
    return GradedSpace({1: ["a"], 3: ["b"]}, name="V")


def test_dims_projective_plane_letters():
    fl = FreeLie(projective_plane_letters(), deg_max=5)
    # degree 5 is one dimensional: [[a,a],b] = 2[a,[a,b]] by Jacobi
    assert [fl.dim(n) for n in range(1, 6)] == [1, 1, 1, 1, 1]


def test_express_and_bracket_consistency():
    L = GradedSpace({1: ["a", "b"]}, name="V")
    fl = FreeLie(L, deg_max=4)
    u = {"a": F(1)}
    v = {"b": F(1)}
    w = fl.bracket(u, v)
    # [a, b] must expand back to a(x)b + b(x)a (both odd)
    assert expand_vec(fl, w) == {("a", "b"): F(1), ("b", "a"): F(1)}
    # triple bracket identity [a,[a,a]] = 0
    aa = fl.bracket(u, u)
    assert fl.bracket(u, aa) == {}


def test_express_rejects_non_lie_vectors():
    L = GradedSpace({1: ["a", "b"]}, name="V")
    fl = FreeLie(L, deg_max=4)
    with pytest.raises(ValueError):
        fl.express({("a", "b"): F(1)})  # a(x)b alone is not a Lie element


def test_derivation_leibniz_and_square():
    # the quadratic cobar differential of the projective plane:
    # d(a) = 0, d(b) = -[a, a]
    fl = FreeLie(projective_plane_letters(), deg_max=5)
    aa = fl.bracket({"a": F(1)}, {"a": F(1)})
    d = fl.derivation({"b": {k: -c for k, c in aa.items()}}, degree=-1)
    assert d.compose(d).is_zero()
    # d[a,b] = -[a, d b] = [a, [a,a]] = 0
    assert d.column(br("a", "b")) == {}
    cx = ChainComplex(fl.space, d)
    cx.validate()
    H = contraction_from_complex(cx).small.space
    # classes of the desuspended generator and the quintic bracket cycle
    assert [H.dim(n) for n in range(1, 6)] == [1, 0, 0, 1, 1]
    assert expr_degree(projective_plane_letters(), br("a", "b")) == 4


def pbw_dims(letter_degrees, top):
    """dim L_n for n <= top from PBW alone, in plain integers: the tensor
    algebra T(V), with Hilbert series 1 / (1 - V(t)), equals
    prod_n (1 + t^n)^{dim L_n} for odd n times (1 - t^n)^{-dim L_n} for
    even n.  The factor of degree n is the first to reach t^n with a
    linear term, so dim L_n is the gap between T(V) and the product of the
    factors below n, read at t^n."""
    tensor = [1] + [0] * top
    for n in range(1, top + 1):
        tensor[n] = sum(tensor[n - d] for d in letter_degrees if d <= n)
    prod = [1] + [0] * top
    dims = {}
    for n in range(1, top + 1):
        dims[n] = tensor[n] - prod[n]
        for _ in range(dims[n]):
            if n % 2:   # times (1 + t^n): update from the top down
                for i in range(top, n - 1, -1):
                    prod[i] += prod[i - n]
            else:       # divided by (1 - t^n): update from the bottom up
                for i in range(n, top + 1):
                    prod[i] += prod[i - n]
    return dims


def test_pbw_oracle_on_known_dims():
    # the hand-checked cases above, read off the oracle
    assert pbw_dims([1, 1], 4) == {1: 2, 2: 3, 3: 2, 4: 3}
    assert pbw_dims([1, 3], 5) == {1: 1, 2: 1, 3: 1, 4: 1, 5: 1}
    assert pbw_dims([2, 2], 6) == {1: 0, 2: 2, 3: 0, 4: 1, 5: 0, 6: 2}


@pytest.mark.parametrize("by_degree,deg_max", [
    # the desuspended cell letters of CP5, as cobar(CP5) sees them
    ({1: ["a1"], 3: ["a2"], 5: ["a3"], 7: ["a4"], 9: ["a5"]}, 12),
    # two odd letters and an even one
    ({1: ["a", "b"], 2: ["u"]}, 7),
], ids=["cp5-letters", "mixed"])
def test_dims_match_pbw(by_degree, deg_max):
    fl = FreeLie(GradedSpace(by_degree, name="V"), deg_max=deg_max)
    degrees = [d for d, keys in by_degree.items() for _ in keys]
    expected = pbw_dims(degrees, deg_max)
    assert {n: fl.dim(n) for n in range(1, deg_max + 1)} == expected


def expand_vec(fl, ev):
    """A vector in basis coordinates, expanded into the tensor algebra."""
    out = {}
    for e, c in ev.items():
        for w, cc in expand(fl.letters, e).items():
            add_term(out, w, c * cc)
    return out


def reference_bracket(fl, u, v):
    """The bracket computed directly, as before the memo: expand both
    arguments into the tensor algebra, take the commutator word by word
    with the window check, and express the result in the basis."""
    def deg(w):
        return sum(fl.letters.degree_of[x] for x in w)

    out = {}
    for tu, cu in expand_vec(fl, u).items():
        for tv, cv in expand_vec(fl, v).items():
            if deg(tu) + deg(tv) > fl.deg_max:
                raise ValueError("bracket leaves the truncation window")
            c = cu * cv
            add_term(out, tu + tv, c)
            add_term(out, tv + tu, c if (deg(tu) * deg(tv)) % 2 else -c)
    return fl.express(out)


def tensor_word_count(degrees, deg_max):
    count = [1] + [0] * deg_max
    for n in range(1, deg_max + 1):
        count[n] = sum(count[n - d] for d in degrees if d <= n)
    return sum(count[1:])


@st.composite
def letter_spaces(draw, top=8, most_words=400):
    """Odd and even letters, one to three in each of a nonempty set of
    degrees in 1..4, a window of at most top, and at most most_words
    tensor words, so that the unpruned scan runs quickly."""
    per_degree = draw(st.dictionaries(st.integers(1, 4), st.integers(1, 3),
                                      min_size=1))
    deg_max = draw(st.integers(min(per_degree), top))
    degrees = [d for d, m in per_degree.items() for _ in range(m)]
    assume(tensor_word_count(degrees, deg_max) <= most_words)
    return GradedSpace({d: [f"x{d}_{i}" for i in range(m)]
                        for d, m in per_degree.items()}, name="V"), deg_max


def free_lie_algebras():
    return letter_spaces(top=7, most_words=300).map(lambda s: FreeLie(*s))


def basis_vectors(keys):
    # a basis element, or a combination with zero coefficients kept as
    # explicit entries
    return st.one_of(
        st.sampled_from(keys).map(lambda k: {k: F(1)}),
        st.dictionaries(st.sampled_from(keys),
                        st.sampled_from([F(0), F(1), F(-2), F(1, 3)]),
                        max_size=3))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_memoized_bracket_matches_the_direct_computation(data):
    fl = data.draw(free_lie_algebras())
    deg = fl.space.degree_of
    keys = fl.space.all_keys()
    # brackets of these never leave the window
    low = [k for k in keys if 2 * deg[k] <= fl.deg_max] or keys
    for pool in (low, low, low, keys):
        u = data.draw(basis_vectors(pool))
        v = data.draw(basis_vectors(pool))
        stored = dict(fl._brackets)
        try:
            want = list(reference_bracket(fl, u, v).items())
        except ValueError as exc:
            assert str(exc) == "bracket leaves the truncation window"
            with pytest.raises(ValueError, match="leaves the truncation"):
                fl.bracket(u, v)
            continue
        got = fl.bracket(u, v)
        # the same entries in the same (basis) order, whatever the order
        # of the arguments' entries
        assert list(got.items()) == want
        backwards = dict(reversed(list(u.items())))
        assert list(fl.bracket(backwards, v).items()) == want
        # a caller that mutates its result changes no later call
        for k in got:
            got[k] *= 3
        got[keys[0]] = F(7)
        assert list(fl.bracket(u, v).items()) == want
        assert all(stored[k] == fl._brackets[k] for k in stored)
    # a pair above the window raises and stores nothing
    top = keys[-1]
    stored = dict(fl._brackets)
    if 2 * deg[top] > fl.deg_max:
        with pytest.raises(ValueError,
                           match="bracket leaves the truncation window"):
            fl.bracket({top: F(1)}, {top: F(1)})
        assert fl._brackets == stored
    # the table is bounded by the pairs of basis elements in the window
    assert all(a in fl.space and b in fl.space
               and deg[a] + deg[b] <= fl.deg_max for a, b in fl._brackets)


def _tensor_words(letters: GradedSpace, deg_max: int) -> dict[int, list]:
    """Tensor words by degree up to deg_max, each degree ordered by length
    and then lexicographically in the letters' sort order: the order in
    which the reference scan offers their left-normed brackets."""
    keys = sorted(letters.all_keys(), key=letters.sort_key)
    by_deg: dict[int, list] = {}
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


class ReferenceFreeLie:
    """The unpruned scan: every tensor word's left-normed bracket is
    offered, in the scan order, to one echelon per degree, and express
    reduces each degree part against its degree's echelon.  Its bracket
    is reference_bracket(ref, u, v)."""

    def __init__(self, letters, deg_max):
        self.letters = letters
        self.deg_max = deg_max
        self.basis: dict[int, list] = {}
        self.expansions: dict = {}
        self.echelons: dict[int, matrices.Echelon] = {}
        words_ex: dict = {}
        for d, words in sorted(_tensor_words(letters, deg_max).items()):
            ech = self.echelons[d] = matrices.Echelon()
            for word in words:
                ex = words_ex[word] = {word: F(1)} if len(word) == 1 else \
                    commutator(letters, words_ex[word[:-1]],
                               {word[-1:]: F(1)})
                if ech.add(ex):
                    e = reduce(br, word)
                    self.basis.setdefault(d, []).append(e)
                    self.expansions[e] = ex

    def degree(self, word) -> int:
        return sum(self.letters.degree_of[x] for x in word)

    def express(self, tv):
        out = {}
        for d in sorted({self.degree(w) for w in tv}):
            part = {w: c for w, c in tv.items() if self.degree(w) == d}
            if d not in self.echelons:
                raise ValueError(f"degree {d} is outside the truncation")
            sol = self.echelons[d].coords(part)
            if sol is None:
                raise ValueError(
                    f"vector is not in the Lie span in degree {d}")
            out.update((e, c) for e, c in zip(self.basis.get(d, []), sol)
                       if c)
        return out


def content_of(fl, word):
    return tuple(sum(1 for x in word if x == k)
                 for k in fl.letters.all_keys())


def letters_of(e):
    return [x for part in e[1:] for x in letters_of(part)] \
        if isinstance(e, tuple) and e[:1] == ("br",) else [e]


def assert_same_outcome(got, want):
    """Two calls give the same dict, in the same order, or raise
    ValueErrors with the same message."""
    results = []
    for call in (got, want):
        try:
            results.append(("value", list(call().items())))
        except ValueError as exc:
            results.append(("error", str(exc)))
    assert results[0] == results[1]


@settings(max_examples=60, deadline=None)
@given(letter_spaces())
def test_witt_block_dims_are_the_ranks_of_the_unpruned_scan(space):
    letters, deg_max = space
    fl = FreeLie(letters, deg_max)
    ref = ReferenceFreeLie(letters, deg_max)
    ranks: dict = {}
    for elements in ref.basis.values():
        for e in elements:
            c = content_of(fl, letters_of(e))
            ranks[c] = ranks.get(c, 0) + 1
    contents = {content_of(fl, w) for words in
                _tensor_words(letters, deg_max).values() for w in words}
    assert {c: fl._witt_dim(c, {}) for c in contents} == \
        {c: ranks.get(c, 0) for c in contents}


@settings(max_examples=60, deadline=None)
@given(letter_spaces())
def test_pruned_basis_is_the_unpruned_basis_in_order(space):
    letters, deg_max = space
    fl = FreeLie(letters, deg_max)
    ref = ReferenceFreeLie(letters, deg_max)
    assert {d: list(fl.space.basis(d)) for d in fl.space.degrees()} == \
        ref.basis
    assert fl._expansions == ref.expansions


@settings(max_examples=60, deadline=None)
@given(letter_spaces(), st.data())
def test_express_and_bracket_agree_with_the_unpruned_scan(space, data):
    letters, deg_max = space
    fl = FreeLie(letters, deg_max)
    ref = ReferenceFreeLie(letters, deg_max)
    keys = fl.space.all_keys()
    # tensor words through one letter past the window, so that some lie
    # outside the truncation
    words = [w for ws in _tensor_words(
        letters, deg_max + max(letters.degrees())).values() for w in ws]
    coefficient = st.sampled_from([F(0), F(1), F(-2), F(1, 3)])
    for _ in range(6):
        tv = {}
        for e in data.draw(st.lists(st.sampled_from(keys), max_size=3)):
            c = data.draw(coefficient)
            for w, cw in fl._expansions[e].items():
                add_term(tv, w, c * cw)
        # a stray word, mostly outside the Lie span or the window; an
        # explicit zero coefficient is kept as an entry
        for w in data.draw(st.lists(st.sampled_from(words), max_size=2)):
            tv[w] = tv.get(w, F(0)) + data.draw(coefficient)
        assert_same_outcome(lambda: fl.express(tv), lambda: ref.express(tv))
        u = data.draw(basis_vectors(keys))
        v = data.draw(basis_vectors(keys))
        assert_same_outcome(lambda: fl.bracket(u, v),
                            lambda: reference_bracket(ref, u, v))


@pytest.mark.parametrize("tv,message", [
    # degree 3 is out of the span, degree 2 is fine: degree 3 is named
    ({("a", "b"): F(1), ("b", "a"): F(1), ("a", "a", "b"): F(1)},
     "vector is not in the Lie span in degree 3"),
    # degree 2 fails before degree 5 is reached
    ({("a", "b"): F(1), ("a", "a", "a", "a", "a"): F(1)},
     "vector is not in the Lie span in degree 2"),
    ({("a", "b", "a", "b", "a"): F(1), ("a", "a"): F(2)},
     "degree 5 is outside the truncation"),
], ids=["span-3", "span-2-first", "outside-5"])
def test_express_names_the_first_failing_degree(tv, message):
    letters = GradedSpace({1: ["a", "b"]}, name="V")
    fl = FreeLie(letters, deg_max=4)
    with pytest.raises(ValueError) as exc:
        fl.express(tv)
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        ReferenceFreeLie(letters, 4).express(tv)
    assert str(exc.value) == message


@settings(max_examples=60, deadline=None)
@given(letter_spaces().filter(
    lambda space: len({d % 2 for d in space[0].degrees()}) == 2))
def test_content_scan_fills_every_block_and_reads_successors_off(space):
    letters, deg_max = space
    fl = FreeLie(letters, deg_max)
    deg = fl.space.degree_of
    # every block holds its Witt dimension, and the blocks hold the basis
    for content, (ech, elements) in fl._blocks.items():
        assert ech.rank == len(elements) == fl._witt_dim(content, {}) > 0
    assert sum(len(b[1]) for b in fl._blocks.values()) == \
        fl.space.total_dim()
    # before any bracket, the table holds the successor entries alone:
    # [p, x] = p x for each basis element p x whose prefix p is one too
    successors = {(e[1], e[2]): {e: F(1)} for e in fl.space.all_keys()
                  if e[:1] == ("br",) and e[1] in fl.space}
    assert fl._brackets == successors
    for (p, x), value in successors.items():
        assert list(reference_bracket(fl, {p: F(1)}, {x: F(1)}).items()) \
            == list(value.items())
    assert all(a in fl.space and b in fl.space
               and deg[a] + deg[b] <= fl.deg_max for a, b in fl._brackets)


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_one_letter_blocks_follow_the_closed_form(degree):
    # x, and [x, x] for odd x: the scan never lists a longer power of one
    # letter, and the Witt recursion agrees that each is zero
    fl = FreeLie(GradedSpace({degree: ["x"]}, name="V"), deg_max=8 * degree)
    for count in range(1, 9):
        closed = int(count == 1 or (count == 2 and degree % 2 == 1))
        assert fl._witt_dim((count,), {}) == closed
        assert fl.dim(count * degree) == closed


def test_a_huge_window_on_one_letter_answers_at_once():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    env.pop(cli.WINDOW_ENV, None)
    done = subprocess.run(
        [sys.executable, "-m", "convmc", "cobar", "s2", "--window",
         "100000000"], env=env, capture_output=True, text=True, timeout=10)
    assert "Traceback" not in done.stderr
    assert done.returncode == 0 or (
        done.returncode == 2
        and json.loads(done.stderr)["where"] == "--window")


@pytest.mark.parametrize("argv", [
    ["cobar", "s2vs3", "--window", "40"],
    ["transfer", "s2vs3", "--window", "40"],
    ["cobar", "s2xs2", "--window", "1000000"]], ids=["cobar", "transfer",
                                                     "cobar-huge"])
def test_a_window_past_the_basis_cap_is_refused(capsys, monkeypatch, argv):
    monkeypatch.delenv(cli.WINDOW_ENV, raising=False)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["where"] == "--window"
    assert "passes 32768 elements" in err["error"]
