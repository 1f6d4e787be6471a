"""Bundled example models: spheres, a wedge, the projective plane, a
product of spheres, and small homotopy targets.

Coalgebras are reduced homology coalgebras with the coproduct dual to the
cup product.  Targets are shifted presentations of rational homotopy:
pi_n contributes a basis element in degree n, and the binary bracket is
the Whitehead product.  The normalization l2(x, x) = y for the even
sphere is fixed here once; Hopf numbers depend on it.

Every model here is in the CLI registry below.  The ones only the tests
use (CP^3, the free Lie model of S^2 and the Hopf map's Maurer-Cartan
element) are built in tests/test_models.py.
"""

from __future__ import annotations

from .graded import GradedMap, GradedSpace
from .models import CdgCoalgebra, LInfinityAlgebra, abelian_linfty


def sphere_coalgebra(n: int) -> CdgCoalgebra:
    if n < 2:
        raise ValueError("spheres must be simply connected here")
    sp = GradedSpace({n: ["a"]}, name=f"S{n}")
    return CdgCoalgebra(sp, GradedMap.zero(sp, sp, -1), {}, name=f"S{n}")


def wedge_s2_s3_coalgebra() -> CdgCoalgebra:
    sp = GradedSpace({2: ["a"], 3: ["b"]}, name="S2vS3")
    return CdgCoalgebra(sp, GradedMap.zero(sp, sp, -1), {}, name="S2vS3")


def cp2_coalgebra() -> CdgCoalgebra:
    sp = GradedSpace({2: ["a"], 4: ["b"]}, name="CP2")
    delta = {"b": {("a", "a"): 1}}
    return CdgCoalgebra(sp, GradedMap.zero(sp, sp, -1), delta, name="CP2")


def s2xs2_coalgebra() -> CdgCoalgebra:
    sp = GradedSpace({2: ["a", "b"], 4: ["t"]}, name="S2xS2")
    delta = {"t": {("a", "b"): 1, ("b", "a"): 1}}
    return CdgCoalgebra(sp, GradedMap.zero(sp, sp, -1), delta, name="S2xS2")


def pi_s2() -> LInfinityAlgebra:
    """Rational homotopy of the 2-sphere: x in degree 2, y in degree 3,
    l2(x, x) = y (the Whitehead square normalization)."""
    sp = GradedSpace({2: ["x"], 3: ["y"]}, name="pi(S2)")
    return LInfinityAlgebra(sp, {2: {("x", "x"): {"y": 1}}},
                            name="pi(S2)", arities=[1, 2])


def pi_s3() -> LInfinityAlgebra:
    sp = GradedSpace({3: ["z"]}, name="pi(S3)")
    return LInfinityAlgebra(sp, {}, name="pi(S3)", arities=[1])


def abelian_two() -> LInfinityAlgebra:
    """One class in degree 2, no operations at all."""
    sp = GradedSpace({2: ["u"]}, name="ab2")
    return abelian_linfty(sp, name="ab2")


def abelian_pair_with_d() -> LInfinityAlgebra:
    """Two classes with l1(v) = u: an acyclic abelian target exercising
    the differential part of the convolution bracket."""
    sp = GradedSpace({2: ["u"], 3: ["v"]}, name="ab23")
    d = GradedMap(sp, sp, -1, {"v": {"u": 1}})
    return abelian_linfty(sp, d, name="ab23")


BUILTIN_COALGEBRAS = {
    "s2": lambda: sphere_coalgebra(2),
    "s3": lambda: sphere_coalgebra(3),
    "s4": lambda: sphere_coalgebra(4),
    "s2vs3": wedge_s2_s3_coalgebra,
    "cp2": cp2_coalgebra,
    "s2xs2": s2xs2_coalgebra,
}

BUILTIN_TARGETS = {
    "pi_s2": pi_s2,
    "pi_s3": pi_s3,
    "ab2": abelian_two,
    "ab23": abelian_pair_with_d,
}


def builtin_model(name: str):
    if name in BUILTIN_COALGEBRAS:
        return BUILTIN_COALGEBRAS[name]()
    if name in BUILTIN_TARGETS:
        return BUILTIN_TARGETS[name]()
    known = sorted(BUILTIN_COALGEBRAS) + sorted(BUILTIN_TARGETS)
    raise KeyError(f"unknown builtin model {name!r}; known: {', '.join(known)}")
