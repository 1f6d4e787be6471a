"""The Lie operad seen inside the free Lie algebra: LIE(n) is the
multilinear part of the free Lie algebra on n letters of degree 0, so its
dimension, its antisymmetry and its composition rule are checked on the
tensor-algebra expansions of `convmc.freelie`."""

from itertools import permutations

from convmc import matrices
from convmc.freelie import br, expand, expr_degree
from convmc.graded import GradedSpace, vec_eq, vec_sub
from convmc.matrices import ONE

LETTERS = GradedSpace({0: [1, 2, 3, 4]}, name="X")


def _left_normed(letters):
    e = letters[0]
    for x in letters[1:]:
        e = br(e, x)
    return e


def _multilinear_dim(n):
    """Rank of all left-normed brackets of x_1..x_n in the tensor algebra."""
    exprs = [_left_normed(p) for p in permutations(range(1, n + 1))]
    assert {expr_degree(LETTERS, e) for e in exprs} == {0}
    vecs = [expand(LETTERS, e) for e in exprs]
    words = sorted({w for v in vecs for w in v})
    return matrices.rank([[v.get(w, 0) for w in words] for v in vecs])


def test_lie_dimensions():
    assert [_multilinear_dim(n) for n in range(1, 5)] == [1, 1, 2, 6]


def test_lie_antisymmetry():
    # the transposition (2, 1) acts on [x1, x2] by -1
    assert vec_eq(expand(LETTERS, br(2, 1)),
                  {k: -c for k, c in expand(LETTERS, br(1, 2)).items()})
    assert expand(LETTERS, br(1, 2)) == {(1, 2): ONE, (2, 1): -ONE}


def test_lie_slot_two_composition():
    # [x1, [x2, x3]] rewritten into the left-normed basis; the classical
    # Jacobi identity gives [[x1,x2],x3] - [[x1,x3],x2]
    lhs = expand(LETTERS, br(1, br(2, 3)))
    rhs = vec_sub(expand(LETTERS, br(br(1, 2), 3)),
                  expand(LETTERS, br(br(1, 3), 2)))
    assert vec_eq(lhs, rhs)
