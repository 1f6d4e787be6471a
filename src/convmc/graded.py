"""Graded vector spaces, graded maps, chain complexes, contractions.

The ground field is Q, scalars are fractions.Fraction.  Grading is
homological: differentials lower degree by one.  A vector is a plain dict
{basis_key: Fraction}; keys are hashable labels (strings for user-facing
models, tuples for tensor and word spaces).  A GradedMap keeps sparse
columns and knows its source, target and degree, so the sums built on
it can apply the Koszul sign rule mechanically.  A TensorSpace A (x) V
reads the degree and order of its pair keys off the two factors and
lists its basis only on request.

Sign conventions used throughout the package:

  (f (x) g)(x (x) y) = (-1)^{|g||x|} f(x) (x) g(y)

and more generally a tensor product of maps picks up
(-1)^{sum_{j<i} |f_i||x_j|}.  Composition of maps carries no sign.

Every signed sum over sparse vectors in the package goes through two
helpers: add_term (defined in matrices, whose Echelon reduces with it,
and re-exported here) is the only way to accumulate a term into a vector
(a coefficient that sums to zero drops its key), and tensor_terms is the
only expansion of a tensor product of vectors into its terms.  The
bounded caches of the package (loop models, pushed maps, decided points)
take their least-recently-used step from lru.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from fractions import Fraction
from functools import cached_property
from typing import Hashable, Iterable, Sequence

from . import matrices
from .matrices import ONE, add_term

Key = Hashable
Vec = dict  # dict[Key, Fraction]


def lru(cache: OrderedDict, cap: int, key, build):
    """cache[key], built on a miss and then kept among the cap most
    recently used entries.  A build that raises stores nothing."""
    if key in cache:
        cache.move_to_end(key)
        return cache[key]
    value = cache[key] = build()
    if len(cache) > cap:
        cache.popitem(last=False)
    return value


# ---------------------------------------------------------------------------
# vectors

def basis_vec(key: Key) -> Vec:
    return {key: ONE}


def tensor_terms(vecs: Iterable[Vec], c=ONE) -> list[tuple[tuple, Fraction]]:
    """The (key_tuple, coeff) terms of c . v_1 (x) ... (x) v_n, over the
    supports of the factors in product order; empty as soon as one factor
    is empty, so a lazy iterable of factors stops being consumed there."""
    terms: list[tuple[tuple, Fraction]] = [((), c)]
    for v in vecs:
        terms = [(keys + (k,), cc * ck)
                 for keys, cc in terms for k, ck in v.items() if ck]
        if not terms:
            return []
    return terms


def vec_add(*vs: Vec) -> Vec:
    out: Vec = {}
    for v in vs:
        for k, c in v.items():
            add_term(out, k, c)
    return out


def vec_sub(a: Vec, b: Vec) -> Vec:
    return vec_add(a, vec_scale(-ONE, b))


def vec_scale(c, v: Vec) -> Vec:
    c = Fraction(c)
    if not c:
        return {}
    return {k: c * x for k, x in v.items()}


def vec_is_zero(v: Vec) -> bool:
    return all(c == 0 for c in v.values())


def vec_eq(a: Vec, b: Vec) -> bool:
    """Equality as vectors: explicit zero entries do not count."""
    return ({k: c for k, c in a.items() if c}
            == {k: c for k, c in b.items() if c})


# ---------------------------------------------------------------------------
# spaces

class GradedSpace:
    """Finite graded vector space with an ordered, named basis per degree."""

    def __init__(self, basis_by_degree: dict[int, Sequence[Key]], name: str = ""):
        self.name = name
        self.by_degree: dict[int, tuple] = {}
        self.degree_of: dict[Key, int] = {}
        self._pos: dict[Key, int] = {}
        for n in sorted(basis_by_degree):
            keys = tuple(basis_by_degree[n])
            if not keys:
                continue
            self.by_degree[n] = keys
            for j, k in enumerate(keys):
                if k in self.degree_of:
                    raise ValueError(f"duplicate basis key {k!r}")
                self.degree_of[k] = n
                self._pos[k] = j

    # -- queries ---------------------------------------------------------

    def degrees(self) -> list[int]:
        return sorted(self.by_degree)

    @property
    def deg_min(self) -> int:
        return min(self.by_degree) if self.by_degree else 0

    @property
    def deg_max(self) -> int:
        return max(self.by_degree) if self.by_degree else 0

    def dim(self, n: int) -> int:
        return len(self.by_degree.get(n, ()))

    def total_dim(self) -> int:
        return sum(map(len, self.by_degree.values()))

    def basis(self, n: int) -> tuple:
        return self.by_degree.get(n, ())

    def all_keys(self) -> list:
        return [k for n in self.degrees() for k in self.by_degree[n]]

    def __contains__(self, key: Key) -> bool:
        return key in self.degree_of

    def sort_key(self, key: Key) -> tuple[int, int]:
        """Canonical total order on the basis: by degree, then position."""
        return (self.degree_of[key], self._pos[key])

    def degree_of_vector(self, v: Vec) -> int | None:
        """Degree of a homogeneous vector, None for the zero vector."""
        degs = {self.degree_of[k] for k, c in v.items() if c}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError(f"vector is not homogeneous: degrees {sorted(degs)}")
        return degs.pop()

    def __repr__(self):
        dims = ", ".join(f"{n}:{self.dim(n)}" for n in self.degrees())
        return f"GradedSpace({self.name or '?'}; {dims})"


class TensorSpace(GradedSpace):
    """A (x) V for a graded algebra A and a graded space V, with keys
    (a, v).

    A provides degree(a), `a in A` and, if its basis can be listed,
    keys().  A key's degree is the sum of its factors' degrees, and keys
    sort by degree, then by a, then by v in V's order, so neither needs
    the basis.  The basis is listed, in that order, only when a caller
    asks for it: a polynomial ring in many variables is never listed.
    """

    def __init__(self, A, V: GradedSpace, name: str = ""):
        self.A = A
        self.V = V
        self.name = name
        # degree_of[key] and `key in degree_of` are read off the factors
        self.degree_of = self

    def __getitem__(self, key) -> int:
        return self.A.degree(key[0]) + self.V.degree_of[key[1]]

    def __contains__(self, key) -> bool:
        return (isinstance(key, tuple) and len(key) == 2
                and key[0] in self.A and key[1] in self.V.degree_of)

    def sort_key(self, key: Key) -> tuple:
        return (self.degree_of[key], key[0], self.V.sort_key(key[1]))

    @cached_property
    def by_degree(self) -> dict[int, tuple]:
        by_deg: dict[int, list] = {}
        for key in sorted(((a, v) for a in self.A.keys()
                           for v in self.V.all_keys()), key=self.sort_key):
            by_deg.setdefault(self.degree_of[key], []).append(key)
        return {n: tuple(keys) for n, keys in by_deg.items()}


# ---------------------------------------------------------------------------
# maps

class GradedMap:
    """Linear map of graded spaces, homogeneous of a fixed degree."""

    def __init__(self, src: GradedSpace, dst: GradedSpace, degree: int,
                 entries: dict[Key, Vec] | None = None, name: str = ""):
        self.src = src
        self.dst = dst
        self.degree = degree
        self.name = name
        self.entries: dict[Key, Vec] = {}
        if entries:
            for k, v in entries.items():
                self.set_column(k, v)

    @classmethod
    def zero(cls, src: GradedSpace, dst: GradedSpace, degree: int = 0) -> "GradedMap":
        return cls(src, dst, degree)

    @classmethod
    def identity(cls, sp: GradedSpace) -> "GradedMap":
        return cls(sp, sp, 0, {k: basis_vec(k) for k in sp.all_keys()})

    def set_column(self, key: Key, value: Vec):
        if key not in self.src.degree_of:
            raise ValueError(f"source key {key!r} not in {self.src.name!r}")
        value = {k: Fraction(c) for k, c in value.items() if c}
        want = self.src.degree_of[key] + self.degree
        for k in value:
            if k not in self.dst.degree_of:
                raise ValueError(f"target key {k!r} not in {self.dst.name!r}")
            if self.dst.degree_of[k] != want:
                raise ValueError(
                    f"map {self.name or '?'}: image of {key!r} hits degree "
                    f"{self.dst.degree_of[k]}, expected {want}")
        if value:
            self.entries[key] = value
        else:
            self.entries.pop(key, None)

    def column(self, key: Key) -> Vec:
        return dict(self.entries.get(key, {}))

    def apply(self, v: Vec) -> Vec:
        out: Vec = {}
        for k, c in v.items():
            col = self.entries.get(k)
            if not col or not c:
                continue
            for kk, cc in col.items():
                add_term(out, kk, c * cc)
        return out

    __call__ = apply

    def compose(self, other: "GradedMap") -> "GradedMap":
        """self o other (apply other first)."""
        if other.dst is not self.src and other.dst.degree_of.keys() != self.src.degree_of.keys():
            raise ValueError("composition mismatch")
        out = GradedMap(other.src, self.dst, self.degree + other.degree)
        for k, col in other.entries.items():
            img = self.apply(col)
            if img:
                out.entries[k] = img
        return out

    def __add__(self, other: "GradedMap") -> "GradedMap":
        self._check_parallel(other)
        out = GradedMap(self.src, self.dst, self.degree)
        for k in set(self.entries) | set(other.entries):
            col = vec_add(self.column(k), other.column(k))
            if col:
                out.entries[k] = col
        return out

    def __sub__(self, other: "GradedMap") -> "GradedMap":
        return self + other.scale(-ONE)

    def scale(self, c) -> "GradedMap":
        c = Fraction(c)
        out = GradedMap(self.src, self.dst, self.degree)
        if c:
            for k, col in self.entries.items():
                out.entries[k] = vec_scale(c, col)
        return out

    def _check_parallel(self, other: "GradedMap"):
        if self.degree != other.degree:
            raise ValueError("maps are not parallel")
        for mine, theirs in ((self.src, other.src), (self.dst, other.dst)):
            if mine is not theirs and mine.degree_of != theirs.degree_of:
                raise ValueError("maps are not parallel")

    def is_zero(self) -> bool:
        return all(vec_is_zero(col) for col in self.entries.values())

    def equals(self, other: "GradedMap") -> bool:
        self._check_parallel(other)
        return all(vec_eq(self.entries.get(k, {}), other.entries.get(k, {}))
                   for k in self.entries.keys() | other.entries.keys())

    def __repr__(self):
        return (f"GradedMap({self.name or '?'}: {self.src.name or '?'} -> "
                f"{self.dst.name or '?'}, degree {self.degree})")


# ---------------------------------------------------------------------------
# chain complexes and homology

class ChainComplex:
    """A graded space with a square-zero degree -1 differential."""

    def __init__(self, space: GradedSpace, d: GradedMap, name: str = ""):
        if d.src is not space or d.dst is not space:
            raise ValueError("differential must be an endomap of the space")
        if d.degree != -1:
            raise ValueError("differential must have degree -1")
        self.space = space
        self.d = d
        self.name = name or space.name

    def validate(self):
        sq = self.d.compose(self.d)
        if not sq.is_zero():
            bad = sorted((k for k, col in sq.entries.items() if not vec_is_zero(col)),
                         key=self.space.sort_key)
            raise ValueError(f"d^2 != 0 on {self.name!r}, first at {bad[0]!r}")

    def betti(self) -> dict[int, int]:
        rank = {n: len(matrices.column_split(
            [self.d.entries.get(k, {}) for k in keys], keys)[0])
            for n, keys in self.space.by_degree.items()}
        return {n: self.space.dim(n) - rank[n] - rank.get(n + 1, 0)
                for n in self.space.degrees()}


class Contraction:
    """Deformation retraction data (i, p, h) between chain complexes.

    small --i--> big --p--> small, h: big -> big of degree +1, satisfying
    p i = id, id - i p = d h + h d, and the side conditions
    h h = 0, h i = 0, p h = 0.  i and p are chain maps.
    """

    def __init__(self, big: ChainComplex, small: ChainComplex,
                 i: GradedMap, p: GradedMap, h: GradedMap, fingerprint: str = ""):
        self.big = big
        self.small = small
        self.i = i
        self.p = p
        self.h = h
        self.fingerprint = fingerprint

    def validate(self):
        idS = GradedMap.identity(self.small.space)
        idB = GradedMap.identity(self.big.space)
        checks = {
            "p i = id": self.p.compose(self.i) - idS,
            "i chain map": self.i.compose(self.small.d) - self.big.d.compose(self.i),
            "p chain map": self.small.d.compose(self.p) - self.p.compose(self.big.d),
            "homotopy": (idB - self.i.compose(self.p)
                         - self.big.d.compose(self.h) - self.h.compose(self.big.d)),
            "h h = 0": self.h.compose(self.h),
            "h i = 0": self.h.compose(self.i),
            "p h = 0": self.p.compose(self.h),
        }
        bad = [name for name, m in checks.items() if not m.is_zero()]
        if bad:
            raise ValueError(f"contraction identities failed: {', '.join(bad)}")


def contraction_from_complex(cx: ChainComplex) -> Contraction:
    """Split a chain complex as boundaries + chosen cycles + a complement,
    with the canonical pivot choices, and package the result as a
    contraction onto homology (zero differential on the small side).

    In each degree n, column_split of d_n gives the pivot columns (each
    the first column independent of the columns before it, the greedy
    choice) and the kernel basis.  The boundaries are the pivot columns of
    d_{n+1}, with those columns upstairs as their preimages; the cycle
    representatives are the kernel vectors that extend them; the
    complement is spanned by the pivot basis vectors of d_n.  p and h read
    each basis vector's coordinates in [boundaries | reps | complement]
    off one echelon of those columns.  The fingerprint hashes the basis
    and the pivot columns, and depends on nothing else.

    The construction already satisfies the side conditions, so no
    post-processing of h is required; validate() is still the contract.
    """
    sp = cx.space
    degs = sp.degrees()
    split = {n: matrices.column_split(
        [cx.d.entries.get(k, {}) for k in sp.basis(n)], sp.basis(n))
        for n in degs}
    h_basis: dict[int, list] = {}
    i_cols: dict[Key, Vec] = {}
    p_cols: dict[Key, Vec] = {}
    h_cols: dict[Key, Vec] = {}
    pivot_record = []

    for n in degs:
        keys = sp.basis(n)
        pivots, cycles = split[n]
        preimages: list = []
        if n + 1 in split:
            up_pivots = split[n + 1][0]
            pivot_record.append((n + 1, up_pivots))
            preimages = [sp.basis(n + 1)[j] for j in up_pivots]
        span = matrices.Echelon()
        for key in preimages:
            span.add(cx.d.entries[key])
        reps = [z for z in cycles if span.add(z)]
        if not all(span.add({keys[j]: ONE}) for j in pivots):
            raise AssertionError("basis split is singular")
        nb = len(preimages)
        hkeys = h_basis[n] = [f"H{n}_{j}" for j in range(len(reps))]
        i_cols.update(zip(hkeys, reps))
        for key in keys:
            coords = span.coords({key: ONE})
            # p: the rep-block coordinates
            p_cols[key] = {hk: c for hk, c in zip(hkeys, coords[nb:]) if c}
            # h: boundary-block coordinates go to the chosen preimages
            # upstairs, which are distinct pivot columns of d_{n+1}
            h_cols[key] = {e: c for e, c in zip(preimages, coords) if c}

    h_space = GradedSpace(h_basis, name=f"H({sp.name})" if sp.name else "H")
    small = ChainComplex(h_space, GradedMap.zero(h_space, h_space, -1), name=h_space.name)
    i = GradedMap(h_space, sp, 0, i_cols, name="rep")
    p = GradedMap(sp, h_space, 0, p_cols, name="proj")
    h = GradedMap(sp, sp, 1, h_cols, name="htp")
    payload = {
        "space": {str(n): [str(k) for k in sp.basis(n)] for n in degs},
        "pivots": [[n, piv] for n, piv in pivot_record],
    }
    fp = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]
    return Contraction(cx, small, i, p, h, fingerprint=fp)
