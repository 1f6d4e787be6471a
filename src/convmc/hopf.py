"""Algebraic Hopf invariants of pointed maps between coalgebra models.

A map is represented either as a strict morphism of coalgebra models or
directly as a Maurer-Cartan element over the source with values in the
loop homology of the target.  Its canonical Maurer-Cartan element is
computed, reduced to a moduli normal form, and stamped with the pivot
fingerprint of the contraction that chose the homology representatives:
invariants from different contractions fix different representative
sets, so comparing them is refused rather than guessed at.

The strict-morphism pipeline runs the whole composite through verified
machinery: the induced map of cobar constructions, precomposed with the
inclusion-side transfer of the source and pushed down the projection
of the target.  The middle leg lives in the divided-power normalization
(see the transfer module), so that push gates on the twisting residual;
the final result is checked against the literal Maurer-Cartan equation.

The sphere specialization computes homotopy groups of the target as
loop homology lines with representative addition as the group law, and
certifies that gauge classes over a sphere source coincide with
homology classes.
"""

from __future__ import annotations

from collections import OrderedDict
from fractions import Fraction

from .barcobar import cobar, cobar_map
from .convolution import ConvolutionAlgebra, check_coalgebra_morphism
from .gauge import (Distinct, Equal, ModuliClass, gauge_equivalent,
                    moduli_normal_form)
from .graded import GradedMap, GradedSpace
from .library import sphere_coalgebra
from .models import CdgCoalgebra
from .transfer import (InfinityMorphism, postcompose_strict, push_mc,
                       transfer_linfty)

F = Fraction


def _coalgebra_signature(C: CdgCoalgebra) -> tuple:
    sp = C.space
    basis = tuple((d, tuple(sp.basis(d))) for d in sorted(sp.degrees()))
    d_ent = tuple(sorted((repr(k), tuple(sorted((repr(x), str(c))
                                                for x, c in v.items())))
                         for k, v in C.d.entries.items()))
    delta_ent = tuple(sorted((repr(k), tuple(sorted((repr(x), str(c))
                                                    for x, c in v.items())))
                             for k, v in C.delta.items()))
    return (C.name, basis, d_ent, delta_ent)


class LoopHomology:
    """Transferred structure on the homology of the cobar construction
    of a target coalgebra, bundled with the contraction whose pivots fix
    the representatives.  Degrees above degree_max - 1 are truncation
    artifacts and carry no meaning."""

    def __init__(self, coalgebra: CdgCoalgebra, degree_max: int,
                 arity_max: int = 3):
        self.coalgebra = coalgebra
        self.degree_max = degree_max
        self.cobar = cobar(coalgebra, degree_max=degree_max)
        self.transfer = transfer_linfty(self.cobar, arity_max=arity_max)
        self.algebra = self.transfer.algebra
        self.ambient = self.transfer.ambient
        self.fingerprint = self.transfer.contraction.fingerprint
        self._inclusion = None
        self._projection = None

    def inclusion(self) -> InfinityMorphism:
        if self._inclusion is None:
            self._inclusion = self.transfer.inclusion_infinity()
        return self._inclusion

    def projection(self) -> InfinityMorphism:
        if self._projection is None:
            self._projection = self.transfer.projection_infinity()
        return self._projection


_MODELS: OrderedDict[tuple, LoopHomology] = OrderedDict()
_MODELS_CAP = 8


def loop_homology(coalgebra: CdgCoalgebra, degree_max: int,
                  arity_max: int = 3) -> LoopHomology:
    """Cached loop homology model; the cache key is structural, so two
    equal coalgebras built independently share one model and hence one
    fingerprint.  The cache keeps the _MODELS_CAP most recently used
    models."""
    key = (_coalgebra_signature(coalgebra), degree_max, arity_max)
    if key in _MODELS:
        _MODELS.move_to_end(key)
    else:
        _MODELS[key] = LoopHomology(coalgebra, degree_max,
                                    arity_max=arity_max)
        if len(_MODELS) > _MODELS_CAP:
            _MODELS.popitem(last=False)
    return _MODELS[key]


def _default_window(C: CdgCoalgebra) -> int:
    degrees = C.space.degrees()
    top = max(degrees, default=2)
    return top + 2


class MapRepresentation:
    """A pointed map in one of two input forms.

    Form "coalgebra" holds a strict morphism of coalgebra models, checked
    to commute with both the differential and the coproduct.  Form "mc"
    holds a Maurer-Cartan element over the source homology with values in
    the target's loop homology, checked against the literal equation.
    The second form is the primary user-facing one; the first exists to
    run the full composite through the cobar constructions.
    """

    def __init__(self, source: CdgCoalgebra, model: LoopHomology, kind: str,
                 morphism: GradedMap | None = None,
                 mc: GradedMap | None = None, name: str = ""):
        self.source = source
        self.model = model
        self.kind = kind
        self.morphism = morphism
        self.mc = mc
        self.name = name

    @classmethod
    def from_coalgebra_morphism(cls, source: CdgCoalgebra,
                                target: CdgCoalgebra, f: GradedMap,
                                degree_max: int | None = None,
                                name: str = "") -> "MapRepresentation":
        if f.degree != 0:
            raise ValueError("a coalgebra morphism must have degree 0")
        check_coalgebra_morphism(source, target, f)
        window = degree_max if degree_max is not None else max(
            _default_window(source), _default_window(target))
        model = loop_homology(target, window)
        return cls(source, model, "coalgebra", morphism=f,
                   name=name or f.name)

    @classmethod
    def from_mc(cls, source: CdgCoalgebra, model: LoopHomology,
                tau: GradedMap, name: str = "") -> "MapRepresentation":
        if tau.degree != 0:
            raise ValueError("a Maurer-Cartan element must have degree 0")
        if tau.dst.degree_of != model.algebra.space.degree_of:
            raise ValueError("values do not live in the model's homology")
        conv = ConvolutionAlgebra(source, model.algebra)
        res = conv.mc_check(tau)
        if not res.is_zero():
            raise ValueError("input fails the Maurer-Cartan equation on "
                             f"{sorted(res.entries)}")
        return cls(source, model, "mc", mc=tau, name=name or tau.name)


def mc_of_map(rep: MapRepresentation) -> GradedMap:
    """Canonical Maurer-Cartan element of a map, in Hom(H(C), H(loops D)).

    For the direct form this is the stored element.  For a strict
    morphism it is the composite: classes of the source homology are
    included into the source cobar construction by the transferred
    infinity-morphism, carried over by the induced map of cobar
    constructions, and pushed down to the target's homology along the
    projection.  The middle stage lives in the divided-power
    normalization; the result is checked to satisfy the literal
    Maurer-Cartan equation before being returned.
    """
    if rep.kind == "mc":
        return rep.mc
    model = rep.model
    C = rep.source
    source_model = loop_homology(C, model.degree_max)
    kc = source_model.transfer.contraction
    theta = kc.p.compose(source_model.cobar.inclusion())
    induced = cobar_map(rep.morphism, source_model.cobar, model.cobar)
    lifted = GradedMap(source_model.ambient.space, model.ambient.space, 0,
                       induced.entries, name=induced.name)
    carried = postcompose_strict(lifted, source_model.inclusion(),
                                 model.ambient)
    middle = push_mc(carried, C, theta)
    result = push_mc(model.projection(), C, middle, residual="twisting")
    conv = ConvolutionAlgebra(C, model.algebra)
    res = conv.mc_check(result)
    if not res.is_zero():
        raise ValueError("composite failed the Maurer-Cartan equation on "
                         f"{sorted(res.entries)}; enlarge the window")
    return result


class HopfInvariant:
    """Moduli normal form of a map's Maurer-Cartan element, stamped with
    the contraction fingerprint that fixes the homology representatives."""

    def __init__(self, moduli: ModuliClass, fingerprint: str,
                 source_name: str, target_name: str):
        self.moduli = moduli
        self.fingerprint = fingerprint
        self.source_name = source_name
        self.target_name = target_name

    @property
    def representative(self) -> GradedMap:
        return self.moduli.representative

    def verify(self) -> bool:
        return self.moduli.verify()

    def __repr__(self):
        ent = {k: dict(v) for k, v in self.representative.entries.items()}
        return (f"HopfInvariant({self.source_name} -> {self.target_name}, "
                f"rep={ent}, fingerprint={self.fingerprint})")


def hopf_invariant(rep: MapRepresentation) -> HopfInvariant:
    value = mc_of_map(rep)
    conv = ConvolutionAlgebra(rep.source, rep.model.algebra)
    moduli = moduli_normal_form(conv, value)
    return HopfInvariant(moduli, rep.model.fingerprint,
                         rep.source.name, rep.model.coalgebra.name)


def maps_homotopic(a: MapRepresentation, b: MapRepresentation):
    """Decide whether two maps are homotopic by comparing their canonical
    Maurer-Cartan elements up to gauge, returning the certificate.

    Comparisons across different sources, or across models built from
    different contraction fingerprints, are refused: the invariant fixes
    a set of representatives and is only meaningful relative to it.
    """
    if a.source.space.degree_of != b.source.space.degree_of:
        raise ValueError("maps with different sources are never comparable")
    if a.model.fingerprint != b.model.fingerprint:
        raise ValueError("invariants built from different contraction "
                         "fingerprints are not comparable; rebuild both "
                         "maps against one model")
    conv = ConvolutionAlgebra(a.source, a.model.algebra)
    return gauge_equivalent(conv, mc_of_map(a), mc_of_map(b))


class SphereHomotopyGroup:
    """A homotopy group of the target through its loop homology model:
    the carrier line(s), representative addition as the group law, and
    gauge certificates equating gauge classes with homology classes."""

    def __init__(self, degree: int, model: LoopHomology):
        self.degree = degree
        self.model = model
        self.sphere = sphere_coalgebra(degree)
        self.conv = ConvolutionAlgebra(self.sphere, model.algebra)
        self.basis = tuple(model.algebra.space.basis(degree)
                           if degree in model.algebra.space.degrees()
                           else ())
        self.space = GradedSpace({degree: list(self.basis)} if self.basis
                                 else {}, name=f"pi_{degree}")
        self.certificates = []
        self._certify()

    @property
    def dim(self) -> int:
        return len(self.basis)

    def zero(self) -> GradedMap:
        return self.conv.zero_map(0)

    def element(self, coeffs) -> GradedMap:
        """Representative map from a coefficient vector over the basis."""
        if isinstance(coeffs, dict):
            vec = {k: F(c) for k, c in coeffs.items() if c}
        else:
            vec = {k: F(c) for k, c in zip(self.basis, coeffs) if c}
        for k in vec:
            if k not in self.basis:
                raise ValueError(f"{k!r} is not a degree-{self.degree} class")
        if not vec:
            return self.zero()
        ent = {("a", k): c for k, c in vec.items()}
        return self.conv.to_map(ent, degree=0)

    def add(self, x: GradedMap, y: GradedMap) -> GradedMap:
        """Group law: addition of representatives (the pinch map sends a
        sphere class to the sum of its two copies)."""
        return x + y

    def decide(self, x: GradedMap, y: GradedMap):
        return gauge_equivalent(self.conv, x, y)

    def _certify(self) -> None:
        """Equate homology classes with gauge classes on this source:
        every basis class is distinct from zero with a homology witness,
        and homologous representatives are connected by a path."""
        zero = self.zero()
        for k in self.basis:
            cert = self.decide(self.element({k: 1}), zero)
            if not isinstance(cert, Distinct) or not cert.verify():
                raise AssertionError(
                    f"class {k!r} should be gauge-distinct from zero")
            self.certificates.append(cert)
        for idx, k in enumerate(self.basis):
            for k2 in self.basis[idx + 1:]:
                cert = self.decide(self.element({k: 1}), self.element({k2: 1}))
                if not isinstance(cert, Distinct) or not cert.verify():
                    raise AssertionError(
                        f"classes {k!r} and {k2!r} should be gauge-distinct")
                self.certificates.append(cert)
        if self.basis:
            k = self.basis[0]
            same = self.decide(self.element({k: 1}), self.element({k: 1}))
            if not isinstance(same, Equal) or not same.verify():
                raise AssertionError("a class should equal itself with a path")
            self.certificates.append(same)


def sphere_pi_n(target: CdgCoalgebra, n: int,
                degree_max: int | None = None) -> SphereHomotopyGroup:
    """Rational homotopy group pi_n of the target as the degree-n loop
    homology, with representative addition as the group law.

    The window must cover degree n with room to spare; the default
    n + 2 keeps the requested degree inside the trusted zone.
    """
    if n < 2:
        raise ValueError("homotopy groups are computed for degrees >= 2")
    window = degree_max if degree_max is not None else n + 2
    if window - 1 < n:
        raise ValueError(f"window {window} cannot certify degree {n}")
    model = loop_homology(target, window)
    return SphereHomotopyGroup(n, model)
