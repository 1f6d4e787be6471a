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

A loop model keeps what it has pushed.  LoopHomology.pushed holds the
canonical element of each of the _PUSHED_CAP most recently pushed strict
maps, keyed by the signatures of the source coalgebra and of the
morphism (sorted reprs of their tables, _entries_signature); each model
also keeps the twisting morphism theta = p o iota of its own coalgebra.
The key fixes every input of the composite, the target being the model,
so a hit returns what a rebuild would.  Every gate above (the chain-map
check of the induced cobar map, both pushforward gates and the final
Maurer-Cartan check) still runs in full the first time a distinct map
meets a model, and only a result that passed them all is stored, so a
failing map raises on every call.  The memo dies with its model when the
model cache evicts or clears it, and every call gets its own copy.

Over a sphere source S^n the invariant of a map is a class of pi_n of the
target, read as the degree-n loop homology with representative addition
as the group law.  That reading, and the certificates that gauge classes
over a sphere source coincide with homology classes, are checked in
tests/test_hopf.py, where SphereHomotopyGroup is the reference.
"""

from __future__ import annotations

from collections import OrderedDict

from .barcobar import cobar, cobar_map
from .convolution import ConvolutionAlgebra, check_coalgebra_morphism
from .gauge import ModuliClass, gauge_equivalent, moduli_normal_form
from .graded import GradedMap
from .models import CdgCoalgebra
from .transfer import (InfinityMorphism, postcompose_strict, push_mc,
                       transfer_linfty)


def _entries_signature(entries: dict) -> tuple:
    """Canonical form of a table of columns {key: {key: coefficient}}:
    sorted by repr, so it does not depend on insertion order."""
    return tuple(sorted((repr(k), tuple(sorted((repr(x), str(c))
                                               for x, c in v.items())))
                        for k, v in entries.items()))


def _coalgebra_signature(C: CdgCoalgebra) -> tuple:
    sp = C.space
    basis = tuple((d, tuple(sp.basis(d))) for d in sorted(sp.degrees()))
    return (C.name, basis, _entries_signature(C.d.entries),
            _entries_signature(C.delta))


def _lru(cache: OrderedDict, cap: int, key, build):
    """cache[key], built on a miss and then kept among the cap most
    recently used entries.  A build that raises stores nothing."""
    if key in cache:
        cache.move_to_end(key)
        return cache[key]
    value = cache[key] = build()
    if len(cache) > cap:
        cache.popitem(last=False)
    return value


class LoopHomology:
    """Transferred structure on the homology of the cobar construction
    of a target coalgebra, bundled with the contraction whose pivots fix
    the representatives.  Degrees above degree_max - 1 are truncation
    artifacts and carry no meaning."""

    def __init__(self, coalgebra: CdgCoalgebra, degree_max: int):
        self.coalgebra = coalgebra
        self.degree_max = degree_max
        self.cobar = cobar(coalgebra, degree_max=degree_max)
        self.transfer = transfer_linfty(self.cobar, arity_max=3)
        self.algebra = self.transfer.algebra
        self.ambient = self.transfer.ambient
        self.fingerprint = self.transfer.contraction.fingerprint
        self._inclusion = None
        self._projection = None
        self._theta = None
        # canonical Maurer-Cartan elements of the strict maps pushed into
        # this model, by (source signature, morphism signature); only
        # mc_of_map reads and fills it
        self.pushed: OrderedDict[tuple, GradedMap] = OrderedDict()

    def inclusion(self) -> InfinityMorphism:
        if self._inclusion is None:
            self._inclusion = self.transfer.inclusion_infinity()
        return self._inclusion

    def projection(self) -> InfinityMorphism:
        if self._projection is None:
            self._projection = self.transfer.projection_infinity()
        return self._projection

    def theta(self) -> GradedMap:
        """The canonical twisting morphism p o iota: C -> H(loops C) of the
        coalgebra this model was built from."""
        if self._theta is None:
            self._theta = self.transfer.contraction.p.compose(
                self.cobar.inclusion())
        return self._theta


_MODELS: OrderedDict[tuple, LoopHomology] = OrderedDict()
_MODELS_CAP = 8
_PUSHED_CAP = 64


def loop_homology(coalgebra: CdgCoalgebra, degree_max: int) -> LoopHomology:
    """Cached loop homology model; the cache key is structural, so two
    equal coalgebras built independently share one model and hence one
    fingerprint.  The cache keeps the _MODELS_CAP most recently used
    models."""
    return _lru(_MODELS, _MODELS_CAP,
                (_coalgebra_signature(coalgebra), degree_max),
                lambda: LoopHomology(coalgebra, degree_max))


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
                                model: LoopHomology, f: GradedMap,
                                name: str = "") -> "MapRepresentation":
        if f.degree != 0:
            raise ValueError("a coalgebra morphism must have degree 0")
        check_coalgebra_morphism(source, model.coalgebra, f)
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
    Maurer-Cartan equation before being returned.  The composite runs once
    per distinct map and target model (LoopHomology.pushed, see the module
    docstring); every call returns a fresh copy on the caller's source.
    """
    if rep.kind == "mc":
        return rep.mc
    key = (_coalgebra_signature(rep.source),
           _entries_signature(rep.morphism.entries))
    known = _lru(rep.model.pushed, _PUSHED_CAP, key, lambda: _push_map(rep))
    return GradedMap(rep.source.space, known.dst, 0, known.entries,
                     name=known.name)


def _push_map(rep: MapRepresentation) -> GradedMap:
    """The composite of mc_of_map for a strict morphism, every gate run."""
    model = rep.model
    C = rep.source
    source_model = loop_homology(C, model.degree_max)
    induced = cobar_map(rep.morphism, source_model.cobar, model.cobar)
    lifted = GradedMap(source_model.ambient.space, model.ambient.space, 0,
                       induced.entries, name=induced.name)
    carried = postcompose_strict(lifted, source_model.inclusion(),
                                 model.ambient)
    middle = push_mc(carried, C, source_model.theta())
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
