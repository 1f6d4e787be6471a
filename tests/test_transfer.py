"""Homotopy transfer, the two infinity-morphisms, and pushforward.

Frozen values were derived by hand before running the code.  On the
cobar construction of the four-cell two-cone, the homology carries one
class alpha in degree 2 and one class gamma in degree 5; the secondary
bracket is forced by the tree formula with negated homotopy on the
internal edge, l'3(alpha, alpha, alpha) = -3 p l2(h l2(i a, i a), i a):
with d b = -1/2 [a, a] the homotopy gives h[a, a] = -2b, and the class
of [a, b] generates degree 5, so the value is exactly 6 gamma.  The
matching inclusion correction is i'2(alpha, alpha) = -h l2(i a, i a)
= +2b.  Coherence of both morphisms is the identity the checker below
evaluates independently of the perturbation series.
"""

import functools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from convmc import mapping
from convmc import words as wd
from convmc.barcobar import cobar, twisting_residual
from convmc.convolution import ConvolutionAlgebra
from convmc.gauge import gauge_flow
from convmc.graded import (ChainComplex, Contraction, GradedMap, GradedSpace,
                           add_term, contraction_from_complex, tensor_terms)
from convmc.library import (abelian_pair_with_d, builtin_model,
                            cp2_coalgebra, pi_s2, sphere_coalgebra,
                            wedge_s2_s3_coalgebra)
from convmc.matrices import solve_matrix
from convmc.models import LInfinityAlgebra, abelian_linfty
from convmc.transfer import (InfinityMorphism, TransferredLInfinity,
                             homology_contraction, push_mc, push_path,
                             transfer_linfty)
from test_words import morphism_terms, wordify

scalars = st.fractions(min_value=-5, max_value=5, max_denominator=3)


# -- the infinity-morphism identity, evaluated independently ---------------
#
# No command checks an infinity-morphism: the transfer's are coherent by
# construction.  The identity is evaluated here word by word, so the
# series' sign convention is tested rather than trusted.

def coherence_residual(m: InfinityMorphism, word) -> dict:
    """Difference of the two sides of the morphism identity on a sorted
    source word; the components form a morphism on a window iff this
    vanishes for every word in it.

    One side sends the word through all unordered partitions into
    component blocks and applies a target bracket to the block values;
    the other distributes every source bracket over the word and feeds
    the contraction back through a single component.  At arity 1 this
    reduces to the chain-map condition.
    """
    word = tuple(word)
    degs = [m.source.space.degree_of[k] for k in word]
    out: dict = {}
    for vecs, sign in morphism_terms(m.component, degs, word):
        for k, c in m.target.bracket_multi(len(vecs), vecs).items():
            add_term(out, k, sign * c)
    for seq, c in wd.coderivation_terms(m.source.bracket,
                                        range(1, len(word) + 1), degs, word):
        for k, ck in m.component(len(seq), seq).items():
            add_term(out, k, -c * ck)
    return out


def from_tables(source, target, tables) -> InfinityMorphism:
    """An infinity-morphism with fixed component tables {n: {word: vec}},
    nothing checked, so broken candidates can be built."""
    def compute(n, word):
        return tables.get(n, {}).get(word, {})

    return InfinityMorphism(source, target, sorted(tables), compute)


def strict_infinity(source: LInfinityAlgebra, target: LInfinityAlgebra,
                    g: GradedMap) -> InfinityMorphism:
    """A plain degree-0 map viewed as an infinity-morphism concentrated
    in arity 1; coherence_residual vets it like a transferred one."""
    def compute(n, word):
        return g.entries.get(word[0], {}) if n == 1 else {}

    return InfinityMorphism(source, target, [1], compute)


def is_strict(m: InfinityMorphism) -> bool:
    """No component above arity 1."""
    return all(n <= 1 for n in m.arities)


def acyclic_pair_target():
    """Same probe as in the gauge tests: x2, y3, u4, w4, v5 with
    l1(u) = y, l1(v) = w; its homology is the single line spanned by x."""
    sp = GradedSpace({2: ["x"], 3: ["y"], 4: ["u", "w"], 5: ["v"]},
                     name="Lpair")
    br = {1: {("u",): {"y": F(1)}, ("v",): {"w": F(1)}},
          2: {("x", "x"): {"y": F(1)}, ("x", "y"): {"w": F(1)},
              ("x", "u"): {"v": F(-1)}},
          3: {("x", "x", "x"): {"v": F(-3)}}}
    return LInfinityAlgebra(sp, br, name="Lpair", arities=[1, 2, 3])


def cp2_transfer(degree_max=6, arity_max=3):
    return transfer_linfty(cobar(cp2_coalgebra(), degree_max=degree_max),
                           arity_max=arity_max)


def window_words(space, arity_max, deg_cap):
    """All sorted words up to the arity bound; multi-letter words are
    capped in total degree so every bracket they need stays inside the
    truncation-trusted zone."""
    out = []
    for n in range(1, arity_max + 1):
        for combo in wd.canonical_words(space, n):
            if n > 1 and sum(space.degree_of[k] for k in combo) > deg_cap:
                continue
            out.append(combo)
    return out


def test_zero_homotopy_transfer_is_restriction():
    L = pi_s2()
    T = transfer_linfty(L, arity_max=3)
    k = T.contraction
    assert k.h.is_zero()
    x, = k.small.space.basis(2)
    y, = k.small.space.basis(3)
    direct = k.p.apply(L.bracket_multi(2, [k.i.entries[x], k.i.entries[x]]))
    assert T.algebra.bracket(2, (x, x)) == direct == {y: F(1)}
    assert T.algebra.bracket(3, (x, x, x)) == {}
    T.validate()


def test_zero_homotopy_morphisms_are_strict():
    T = transfer_linfty(pi_s2(), arity_max=3)
    inc = T.inclusion_infinity()
    proj = T.projection_infinity()
    x, = T.algebra.space.basis(2)
    y, = T.algebra.space.basis(3)
    assert inc.component(1, (x,)) == T.contraction.i.entries[x]
    assert inc.component(2, (x, x)) == {}
    assert proj.component(2, ("x", "y")) == {}
    assert not any(coherence_residual(inc, w)
                   for w in [(x,), (y,), (x, x), (x, y), (x, x, x)])
    assert not any(coherence_residual(proj, w)
                   for w in [("x",), ("y",), ("x", "x"), ("x", "y"),
                             ("x", "x", "x")])


def test_acyclic_ambient_transfers_to_nothing():
    T = transfer_linfty(abelian_pair_with_d(), arity_max=3)
    assert T.algebra.space.total_dim() == 0
    T.validate()
    s2 = sphere_coalgebra(2)
    conv = ConvolutionAlgebra(s2, abelian_pair_with_d())
    tau = conv.to_map({("a", "u"): F(1)}, degree=0)
    assert push_mc(T.projection_infinity(), s2, tau).is_zero()


def test_mismatched_contraction_is_rejected():
    k = homology_contraction(abelian_pair_with_d())
    with pytest.raises(ValueError):
        TransferredLInfinity(pi_s2(), k, arity_max=2)


def test_cp2_cobar_homology_and_bracket_constants():
    T = cp2_transfer()
    H = T.algebra.space
    assert H.basis(2) == ("H2_0",) and H.basis(5) == ("H5_0",)
    assert T.algebra.bracket(2, ("H2_0", "H2_0")) == {}
    assert T.algebra.bracket(3, ("H2_0",) * 3) == {"H5_0": F(6)}
    T.validate()


def test_cp2_secondary_bracket_matches_tree_formula():
    """The series value must agree with the three-equal-trees formula
    -3 p l2(h l2(i a, i a), i a), computed here without touching the
    perturbation machinery at all."""
    T = cp2_transfer()
    k = T.contraction
    W = T.ambient
    ia = k.i.entries["H2_0"]
    inner = k.h.apply(W.bracket_multi(2, [ia, ia]))
    oracle = {x: -3 * c for x, c in
              k.p.apply(W.bracket_multi(2, [inner, ia])).items()}
    assert oracle == {"H5_0": F(6)}
    assert T.algebra.bracket(3, ("H2_0",) * 3) == oracle


def test_cp2_inclusion_components_frozen():
    T = cp2_transfer()
    inc = T.inclusion_infinity()
    assert inc.component(1, ("H2_0",)) == {"a": F(1)}
    assert inc.component(2, ("H2_0", "H2_0")) == {"b": F(2)}
    assert inc.component(3, ("H2_0",) * 3) == {}


def test_cp2_morphisms_coherent_inside_window():
    T = cp2_transfer()
    inc = T.inclusion_infinity()
    proj = T.projection_infinity()
    small_words = window_words(T.algebra.space, 3, deg_cap=12)
    assert small_words
    assert not any(coherence_residual(inc, w) for w in small_words)
    big_words = window_words(T.ambient.space, 3, deg_cap=6)
    assert len(big_words) >= 9
    assert not any(coherence_residual(proj, w) for w in big_words)


def test_truncation_edge_heals_when_deepened():
    """At degree bound 6 the word ([a,a], b) sits at total degree 7 and
    its identity needs l2(b, b) above the cut, so the residual is honest
    nonzero; rebuilding two degrees deeper makes it exactly zero."""
    shallow = cp2_transfer(degree_max=6).projection_infinity()
    sp = shallow.source.space
    aa, = sp.basis(3)
    b = [x for x in sp.basis(4)][0]
    assert coherence_residual(shallow, (aa, b))
    deep = cp2_transfer(degree_max=8)
    assert deep.algebra.bracket(3, ("H2_0",) * 3) == {"H5_0": F(6)}
    sp8 = deep.ambient.space
    aa8, = sp8.basis(3)
    b8 = [x for x in sp8.basis(4)][0]
    assert coherence_residual(deep.projection_infinity(), (aa8, b8)) == {}


def test_word_level_homotopy_identity():
    """Insurance behind the series: the lifted contraction data satisfy
    d h^ + h^ d = id - i^ p^ word by word, with d acting as the
    coderivation of l1 alone."""
    T = cp2_transfer()
    big = T.ambient.space
    d = T.contraction.big.d

    def d1(wv):
        out = {}
        for word, c in wv.items():
            degs = [big.degree_of[x] for x in word]
            for j in range(len(word)):
                img = d.entries.get(word[j])
                if not img:
                    continue
                sgn = wd.unshuffle_sign(degs, (j,))
                rest = word[:j] + word[j + 1:]
                for let, ck in img.items():
                    sw = wd.sort_letters(big, (let,) + rest)
                    if sw is None:
                        continue
                    w2, s2 = sw
                    new = out.get(w2, F(0)) + sgn * s2 * ck * c
                    if new:
                        out[w2] = new
                    else:
                        out.pop(w2, None)
        return out

    for word in window_words(big, 3, deg_cap=6):
        wv = {word: F(1)}
        acc = {}
        for part in (d1(T._apply_hhat(wv)), T._apply_hhat(d1(wv))):
            for w2, c in part.items():
                acc[w2] = acc.get(w2, F(0)) + c
        acc[word] = acc.get(word, F(0)) - F(1)
        ip_w = T._letterwise(T.contraction.i,
                             T._letterwise(T.contraction.p, wv))
        for w2, c in ip_w.items():
            acc[w2] = acc.get(w2, F(0)) + c
        assert not {w2: c for w2, c in acc.items() if c}, word


def test_strict_morphism_wrapper_and_identity_push():
    T = cp2_transfer()
    W = T.ambient
    ident = strict_infinity(W, W, GradedMap.identity(W.space))
    assert is_strict(ident)
    assert not any(coherence_residual(ident, w)
                   for w in window_words(W.space, 2, deg_cap=6))
    cp2 = cp2_coalgebra()
    conv = ConvolutionAlgebra(cp2, W)
    tau = conv.to_map({("a", "a"): F(1), ("b", "b"): F(2)}, degree=0)
    assert conv.mc_check(tau).is_zero()
    assert push_mc(ident, cp2, tau).equals(tau)
    assert push_mc(ident, cp2, conv.zero_map(0)).is_zero()


def test_push_mc_rejects_non_mc_input():
    T = cp2_transfer()
    conv = ConvolutionAlgebra(cp2_coalgebra(), T.ambient)
    bad = conv.to_map({("a", "a"): F(1), ("b", "b"): F(1)}, degree=0)
    assert not conv.mc_check(bad).is_zero()
    with pytest.raises(ValueError):
        push_mc(T.projection_infinity(), cp2_coalgebra(), bad)


def test_push_to_homology_is_mc_exactly():
    T = cp2_transfer()
    cp2 = cp2_coalgebra()
    conv = ConvolutionAlgebra(cp2, T.ambient)
    tau = conv.to_map({("a", "a"): F(1), ("b", "b"): F(2)}, degree=0)
    sigma = push_mc(T.projection_infinity(), cp2, tau)
    assert dict(sigma.entries) == {"a": {"H2_0": F(1)}}
    small_conv = ConvolutionAlgebra(cp2, T.algebra)
    assert small_conv.mc_check(sigma).is_zero()


def test_push_up_inclusion_lands_in_divided_power_normalization():
    """Pushing back up the inclusion produces (a -> a, b -> b), which is
    Maurer-Cartan for the divided-power residual but not for the literal
    one; the split mirrors the adjunction normalization and pins where
    each condition is preserved."""
    T = cp2_transfer()
    cp2 = cp2_coalgebra()
    conv = ConvolutionAlgebra(cp2, T.ambient)
    tau = conv.to_map({("a", "a"): F(1), ("b", "b"): F(2)}, degree=0)
    sigma = push_mc(T.projection_infinity(), cp2, tau)
    back = push_mc(T.inclusion_infinity(), cp2, sigma)
    assert dict(back.entries) == {"a": {"a": F(1)}, "b": {"b": F(1)}}
    assert twisting_residual(conv, back).is_zero()
    assert not conv.mc_check(back).is_zero()


@settings(max_examples=12, deadline=None)
@given(scalars)
def test_push_to_homology_mc_family(s):
    T = cp2_transfer()
    cp2 = cp2_coalgebra()
    conv = ConvolutionAlgebra(cp2, T.ambient)
    ent = {}
    if s:
        ent[("a", "a")] = s
        ent[("b", "b")] = 2 * s * s
    tau = conv.to_map(ent, degree=0)
    assert conv.mc_check(tau).is_zero()
    sigma = push_mc(T.projection_infinity(), cp2, tau)
    expect = {"a": {"H2_0": s}} if s else {}
    assert dict(sigma.entries) == expect
    assert ConvolutionAlgebra(cp2, T.algebra).mc_check(sigma).is_zero()


@functools.lru_cache(maxsize=None)
def solved_families(target, source, side):
    """The transfer of target at window 6, and the Maurer-Cartan families
    the component search solves in Hom(source, side) with side the
    transferred algebra or the ambient cobar one: (T, pairs, branches)."""
    T = transfer_linfty(cobar(builtin_model(target), degree_max=6),
                        arity_max=3)
    conv = ConvolutionAlgebra(builtin_model(source), getattr(T, side))
    pairs = conv.carrier.basis(0)
    eqs = [p for p in mapping._residual_polynomials(conv, pairs).values()
           if p]
    return T, pairs, mapping._solve_preferring_polynomial(eqs, len(pairs))


@settings(max_examples=30, deadline=None)
@given(target=st.sampled_from(["cp2", "s2vs3"]),
       source=st.sampled_from(["cp2", "s2xs2", "s2vs3"]),
       side=st.sampled_from(["algebra", "ambient"]), data=st.data())
def test_push_mc_preserves_mc_on_solved_families(target, source, side,
                                                 data):
    """A point of a solved family, at any rational parameters, pushes to a
    Maurer-Cartan point: down the projection under the literal residual,
    up the inclusion under the divided-power one, as push_mc documents."""
    T, pairs, branches = solved_families(target, source, side)
    free, _, at, _ = data.draw(st.sampled_from(branches))
    point = at([data.draw(scalars) for _ in free])
    C = builtin_model(source)
    conv = ConvolutionAlgebra(C, getattr(T, side))
    tau = conv.to_map(dict(zip(pairs, point)), degree=0)
    assert conv.mc_check(tau).is_zero()
    if side == "ambient":
        sigma = push_mc(T.projection_infinity(), C, tau)
        assert ConvolutionAlgebra(C, T.algebra).mc_check(sigma).is_zero()
    else:
        sigma = push_mc(T.inclusion_infinity(), C, tau)
        assert twisting_residual(ConvolutionAlgebra(C, T.ambient),
                                 sigma).is_zero()


@settings(max_examples=10, deadline=None)
@given(scalars, scalars)
def test_push_collapses_gauge_direction(alpha, gamma):
    """The whole (alpha, gamma) Maurer-Cartan family over the two-cone
    pushes to alpha times the homology line: u and w both die in
    homology, so gauge-equivalent pairs land on the same point."""
    L = acyclic_pair_target()
    T = transfer_linfty(L, arity_max=3)
    cp2 = cp2_coalgebra()
    conv = ConvolutionAlgebra(cp2, L)
    ent = {}
    if alpha:
        ent[("a", "x")] = alpha
        ent[("b", "u")] = -alpha * alpha
    if gamma:
        ent[("b", "w")] = gamma
    tau = conv.to_map(ent, degree=0)
    assert conv.mc_check(tau).is_zero()
    sigma = push_mc(T.projection_infinity(), cp2, tau)
    hx, = T.algebra.space.basis(2)
    expect = {"a": {hx: alpha}} if alpha else {}
    assert dict(sigma.entries) == expect


def test_push_path_transports_flow():
    L = acyclic_pair_target()
    T = transfer_linfty(L, arity_max=3)
    proj = T.projection_infinity()
    cp2 = cp2_coalgebra()
    conv = ConvolutionAlgebra(cp2, L)
    x0 = conv.to_map({("a", "x"): F(1), ("b", "u"): F(-1)}, degree=0)
    lam = conv.to_map({("b", "v"): F(1)}, degree=1)
    path = gauge_flow(conv, x0, lam)
    assert path.path_check().is_zero()
    pushed = push_path(proj, path)
    assert pushed.path_check().is_zero()
    assert pushed.endpoint(0).equals(push_mc(proj, cp2, path.endpoint(0)))
    assert pushed.endpoint(1).equals(push_mc(proj, cp2, path.endpoint(1)))


def test_push_path_along_identity_contraction_is_identity():
    L = acyclic_pair_target()
    cx = L.as_chain_complex()
    sp = L.space
    kid = Contraction(big=cx, small=cx, i=GradedMap.identity(sp),
                      p=GradedMap.identity(sp),
                      h=GradedMap(sp, sp, 1, {}, name="h0"),
                      fingerprint="identity")
    kid.validate()
    T = TransferredLInfinity(L, kid, arity_max=3)
    cp2 = cp2_coalgebra()
    conv = ConvolutionAlgebra(cp2, L)
    x0 = conv.to_map({("a", "x"): F(1), ("b", "u"): F(-1)}, degree=0)
    lam = conv.to_map({("b", "v"): F(1)}, degree=1)
    path = gauge_flow(conv, x0, lam)
    pushed = push_path(T.projection_infinity(), path)
    assert set(pushed.p_parts) == set(path.p_parts)
    assert set(pushed.q_parts) == set(path.q_parts)
    assert all(pushed.p_parts[k].equals(path.p_parts[k])
               for k in path.p_parts)
    assert all(pushed.q_parts[k].equals(path.q_parts[k])
               for k in path.q_parts)


def test_transfer_morphism_entry_point():
    inc = transfer_linfty(cobar(cp2_coalgebra(), degree_max=6)
                          ).inclusion_infinity()
    assert inc.component(1, ("H2_0",)) == {"a": F(1)}
    assert inc.component(2, ("H2_0", "H2_0")) == {"b": F(2)}


def test_broken_component_fails_coherence():
    T = cp2_transfer()
    good = T.inclusion_infinity()
    tables = {1: {("H2_0",): good.component(1, ("H2_0",)),
                  ("H5_0",): good.component(1, ("H5_0",))},
              2: {("H2_0", "H2_0"): {"b": F(3)}}}
    bad = from_tables(T.algebra, T.ambient, tables)
    assert coherence_residual(bad, ("H2_0", "H2_0"))


def test_validate_checks_the_degree_of_computed_brackets():
    """A bracket the compute hook supplies is degree-checked when it is
    stored, so validate sees it although the tables start empty."""
    T = transfer_linfty(cobar(wedge_s2_s3_coalgebra(), degree_max=6),
                        arity_max=2)
    honest = T.algebra.compute

    def compute(n, word):
        if word == ("H2_0", "H2_0"):
            return {"H2_0": F(1)}
        return honest(n, word)

    T.algebra.compute = compute
    with pytest.raises(ValueError,
                       match=r"lands in degree 2, expected 3"):
        T.validate()


@pytest.mark.parametrize("coalgebra,window,arity",
                         [(cp2_coalgebra, 8, 4),
                          (wedge_s2_s3_coalgebra, 8, 3)],
                         ids=["cp2", "s2vs3"])
def test_validate_evaluates_every_bracket_the_full_degree_pass_does(
        coalgebra, window, arity):
    """validate() skips words above degree deg_max + 2; the brackets it
    evaluates on the way must still be every nonzero one that a pass over
    all words of degree up to top * arity evaluates."""
    def nonzero_tables(T):
        return {n: {w: v for w, v in table.items() if v}
                for n, table in T.algebra.brackets.items()
                if any(table.values())}

    cut = transfer_linfty(cobar(coalgebra(), degree_max=window),
                          arity_max=arity)
    cut.validate()
    full = transfer_linfty(cobar(coalgebra(), degree_max=window),
                           arity_max=arity)
    space = full.algebra.space
    for word in wd.word_space(space, space.deg_max * arity,
                              arity).all_keys():
        assert not full.algebra.jacobiator(word)
    assert nonzero_tables(cut) == nonzero_tables(full)
    assert nonzero_tables(cut)


# -- generated contractions -----------------------------------------------------

# degrees of a generated complex: the differential runs from 2 to 1 and
# from 5 to 4, so h is nonzero on odd letters (degree 1) and on even ones
# (degree 4), and the isolated degree 3 gives more odd letters to cross
GEN_DEGREES = (1, 2, 3, 4, 5)
small_int = st.integers(-2, 2)


@st.composite
def two_term_complexes(draw):
    """A chain complex whose differential has two blocks that cannot
    compose, so any matrices square to zero; some entry is nonzero."""
    sp = GradedSpace({n: [f"e{n}_{j}" for j in range(draw(st.integers(1, 2)))]
                      for n in GEN_DEGREES}, name="gen")
    cols = {}
    for top in (2, 5):
        for src in sp.basis(top):
            col = {dst: F(draw(small_int)) for dst in sp.basis(top - 1)}
            cols[src] = {k: c for k, c in col.items() if c}
    if not any(cols.values()):
        cols[sp.basis(2)[0]] = {sp.basis(1)[0]: F(1)}
    return ChainComplex(sp, GradedMap(sp, sp, -1, cols, name="d"))


@st.composite
def words_on(draw, space, max_len=5):
    """A nonzero sorted word of 1..max_len letters of space."""
    seq = draw(st.lists(st.sampled_from(space.all_keys()), min_size=1,
                        max_size=max_len))
    # an odd letter may appear only once; even ones may repeat
    odd = [k for k in dict.fromkeys(seq) if space.degree_of[k] % 2]
    even = [k for k in seq if not space.degree_of[k] % 2]
    return wd.sort_letters(space, tuple(odd + even))[0]


def hhat_by_orderings(T, word):
    """The lifted homotopy as the average over all n! orderings of the
    word: h in one slot, the identity before it, i p after it, each term
    signed by h crossing the letters in front and sorted back to a
    word."""
    letters = T.ambient.space
    h = T.contraction.h.entries
    ip = T.contraction.i.compose(T.contraction.p).entries
    tensors = {}
    for tup, c0 in wd.symmetrize(letters, word).items():
        prefix = 0
        for j, a in enumerate(tup):
            images = ([{x: F(1)} for x in tup[:j]] + [h.get(a, {})]
                      + [ip.get(x, {}) for x in tup[j + 1:]])
            sign = -1 if prefix % 2 else 1
            for seq, c in tensor_terms(images, sign * c0):
                add_term(tensors, seq, c)
            prefix += letters.degree_of[a]
    return wordify(letters, tensors)


@settings(max_examples=60, deadline=None)
@given(two_term_complexes(), st.data())
def test_hhat_matches_the_average_over_orderings(cx, data):
    k = contraction_from_complex(cx)
    assert not k.h.is_zero()
    T = TransferredLInfinity(abelian_linfty(cx.space, cx.d), k, arity_max=1)
    word = data.draw(words_on(cx.space))
    c = F(data.draw(st.integers(1, 3)), 2)
    assert T._apply_hhat({word: c}) == {
        w: c * v for w, v in hhat_by_orderings(T, word).items()}


@st.composite
def zero_homotopy_transfers(draw):
    """An ambient algebra with zero differential and random brackets of
    arity 2 and 3, retracted by h = 0 onto a copy of itself through a
    random unitriangular change of basis i with inverse p.  The series
    identity l'_n = p l_n i does not use the Jacobi identity, so the
    brackets need not satisfy it."""
    big = GradedSpace({n: [f"b{n}_{j}" for j in range(draw(st.integers(1, 2)))]
                       for n in (1, 2, 3)}, name="big")
    small = GradedSpace({n: [f"s{k[1:]}" for k in big.basis(n)]
                         for n in big.degrees()}, name="small")
    i_cols, p_cols = {}, {}
    for n in big.degrees():
        bks, sks = big.basis(n), small.basis(n)
        m = len(bks)
        a = [[F(1) if r == col else F(draw(small_int)) if r < col else F(0)
              for col in range(m)] for r in range(m)]
        inv = solve_matrix(a, [[F(int(r == c)) for c in range(m)]
                                for r in range(m)])
        for col in range(m):
            i_cols[sks[col]] = {bks[r]: a[r][col] for r in range(m)
                                if a[r][col]}
            p_cols[bks[col]] = {sks[r]: inv[r][col] for r in range(m)
                                if inv[r][col]}
    brackets = {}
    for n in (2, 3):
        for word in wd.canonical_words(big, n):
            want = wd.word_degree(big, word) - 1
            val = {x: F(draw(small_int)) for x in big.basis(want)}
            if any(val.values()):
                brackets.setdefault(n, {})[word] = val
    L = LInfinityAlgebra(big, brackets, name="amb", arities=[1, 2, 3])
    k = Contraction(ChainComplex(big, GradedMap.zero(big, big, -1)),
                    ChainComplex(small, GradedMap.zero(small, small, -1)),
                    GradedMap(small, big, 0, i_cols),
                    GradedMap(big, small, 0, p_cols),
                    GradedMap.zero(big, big, 1))
    k.validate()
    return L, k


@settings(max_examples=25, deadline=None)
@given(zero_homotopy_transfers())
def test_zero_homotopy_transfer_is_conjugation(case):
    """With h = 0 the series is one delta: l'_n = p l_n i, and both
    infinity-morphisms are strict."""
    L, k = case
    T = transfer_linfty(L, k, arity_max=4)
    inc, proj = T.inclusion_infinity(), T.projection_infinity()
    for n in range(2, 5):
        for word in wd.canonical_words(k.small.space, n):
            direct = k.p.apply(L.bracket_multi(
                n, [k.i.entries[x] for x in word]))
            assert T.algebra.bracket(n, word) == direct
            assert inc.component(n, word) == {}
        for word in wd.canonical_words(L.space, n):
            assert proj.component(n, word) == {}
