"""Algebraic Hopf invariants of pointed maps between coalgebra models.

A map enters as a record (see modelio): a strict morphism of coalgebra
models ("map"), or a Maurer-Cartan element over the source with values
in the loop homology of the target ("mc_element").  mc_of_map reads
either straight to its canonical Maurer-Cartan element: a morphism is
checked to commute with the differential and the coproduct and then
pushed, an element is checked against the literal Maurer-Cartan
equation.  The caller holds the target's loop model and the source, so
every element it compares lives in one convolution algebra, with the
homology representatives fixed by the pivot fingerprint of that model's
contraction (LoopHomology.fingerprint, which a report prints with the
moduli normal form).

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
from functools import cached_property

from .barcobar import cobar, cobar_map
from .convolution import ConvolutionAlgebra, check_coalgebra_morphism
from .gauge import gauge_equivalent
from .graded import GradedMap, lru
from .modelio import element_from_record
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
        # canonical Maurer-Cartan elements of the strict maps pushed into
        # this model, by (source signature, morphism signature); only
        # mc_of_map reads and fills it
        self.pushed: OrderedDict[tuple, GradedMap] = OrderedDict()

    @cached_property
    def inclusion(self) -> InfinityMorphism:
        return self.transfer.inclusion_infinity()

    @cached_property
    def projection(self) -> InfinityMorphism:
        return self.transfer.projection_infinity()

    @cached_property
    def theta(self) -> GradedMap:
        """The canonical twisting morphism p o iota: C -> H(loops C) of the
        coalgebra this model was built from."""
        return self.transfer.contraction.p.compose(self.cobar.inclusion())


_MODELS: OrderedDict[tuple, LoopHomology] = OrderedDict()
_MODELS_CAP = 8
_PUSHED_CAP = 64


def loop_homology(coalgebra: CdgCoalgebra, degree_max: int) -> LoopHomology:
    """Cached loop homology model; the cache key is structural, so two
    equal coalgebras built independently share one model and hence one
    fingerprint.  The cache keeps the _MODELS_CAP most recently used
    models."""
    return lru(_MODELS, _MODELS_CAP,
               (_coalgebra_signature(coalgebra), degree_max),
               lambda: LoopHomology(coalgebra, degree_max))


def mc_of_map(model: LoopHomology, source: CdgCoalgebra,
              rec: dict) -> GradedMap:
    """Canonical Maurer-Cartan element, in Hom(H(C), H(loops D)), of the
    map from source into the target of model that the record rec holds.

    An mc_element record is the element itself, returned once it passes
    the literal Maurer-Cartan equation.  A map record is a strict
    morphism of coalgebra models, checked to commute with both the
    differential and the coproduct; its element is the composite of
    _push_map: classes of the source homology are included into the
    source cobar construction by the transferred infinity-morphism,
    carried over by the induced map of cobar constructions, and pushed
    down to the target's homology along the projection.  The composite
    runs once per distinct map and target model (LoopHomology.pushed,
    see the module docstring); every call returns a fresh copy on the
    caller's source.
    """
    if rec["kind"] == "mc_element":
        tau = element_from_record(rec, source.space, model.algebra.space)
        if tau.degree != 0:
            raise ValueError("a Maurer-Cartan element must have degree 0")
        res = ConvolutionAlgebra(source, model.algebra).mc_check(tau)
        if not res.is_zero():
            raise ValueError("input fails the Maurer-Cartan equation on "
                             f"{sorted(res.entries)}")
        return tau
    f = element_from_record(rec, source.space, model.coalgebra.space)
    if f.degree != 0:
        raise ValueError("a coalgebra morphism must have degree 0")
    check_coalgebra_morphism(source, model.coalgebra, f)
    key = (_coalgebra_signature(source), _entries_signature(f.entries))
    known = lru(model.pushed, _PUSHED_CAP, key,
                lambda: _push_map(model, source, f))
    return GradedMap(source.space, known.dst, 0, known.entries,
                     name=known.name)


def _push_map(model: LoopHomology, C: CdgCoalgebra,
              f: GradedMap) -> GradedMap:
    """The composite of mc_of_map for a strict morphism, every gate run:
    the middle stage lives in the divided-power normalization, and the
    result is checked against the literal Maurer-Cartan equation."""
    source_model = loop_homology(C, model.degree_max)
    induced = cobar_map(f, source_model.cobar, model.cobar)
    lifted = GradedMap(source_model.ambient.space, model.ambient.space, 0,
                       induced.entries, name=induced.name)
    carried = postcompose_strict(lifted, source_model.inclusion,
                                 model.ambient)
    middle = push_mc(carried, C, source_model.theta)
    result = push_mc(model.projection, C, middle, residual="twisting")
    res = ConvolutionAlgebra(C, model.algebra).mc_check(result)
    if not res.is_zero():
        raise ValueError("composite failed the Maurer-Cartan equation on "
                         f"{sorted(res.entries)}; enlarge the window")
    return result


def maps_homotopic(model: LoopHomology, source: CdgCoalgebra,
                   x: GradedMap, y: GradedMap):
    """Decide whether two maps from source into the target of model are
    homotopic, given their canonical Maurer-Cartan elements (mc_of_map):
    the gauge certificate between them in Hom(H(C), H(loops D))."""
    return gauge_equivalent(ConvolutionAlgebra(source, model.algebra), x, y)
