"""Algebraic Hopf invariants of pointed maps between coalgebra models.

A map enters as a record (see modelio): a strict morphism of coalgebra
models ("map"), or a Maurer-Cartan element over the source with values
in the loop homology of the target ("mc_element").  mc_of_map reads
either straight to its canonical Maurer-Cartan element, checked as a
gauge.PointRecord: a morphism is checked to commute with the
differential and the coproduct and then pushed, an element is checked
against the literal Maurer-Cartan equation.  The caller holds the
target's loop model and the source, so every element it compares lives
in one convolution algebra, with the homology representatives fixed by
the pivot fingerprint of that model's contraction
(LoopHomology.fingerprint, which a report prints with the moduli normal
form).

The strict-morphism pipeline runs the whole composite through verified
machinery: the induced map of cobar constructions, precomposed with the
inclusion-side transfer of the source and pushed down the projection
of the target.  The middle leg lives in the divided-power normalization
(see the transfer module), so that push gates on the twisting residual;
the final result is checked against the literal Maurer-Cartan equation.

A loop model keeps what depends only on it and a source.  Each
LoopHomology holds, in bounded LRUs:

- homs: the convolution algebra Hom(source, model.algebra) of each of
  the _HOMS_CAP most recently used sources, keyed by the signature of the
  source coalgebra (its name and sorted reprs of its basis, d and
  coproduct, CdgCoalgebra.signature), so structurally equal sources share
  one algebra and write the same certificate records.  mc_of_map and
  _push_map make their records in it.  The algebra's own memos live as
  long as the model keeps the algebra; a record lives as long as its
  holder, the algebra or the caller, keeps it.  The algebra's memo
  "pushed" holds the record of the canonical element of each of the
  _PUSHED_CAP most recently pushed strict maps from its source, keyed by
  the signature of the morphism's table (graded.entries_signature), so
  an evicted algebra takes its pushed maps with it;
- theta = p o iota of its own coalgebra.

The final Maurer-Cartan check of _push_map and the check of an
mc_element record are the construction of the point's record, which
maps_homotopic and the hopf command then take as it is.  The
coalgebra-morphism check of a map runs once per push, in
barcobar.cobar_map, after the source's loop model is built or read from
the cache: a map that is not a morphism is refused once that model
exists.  A push memo key, with the algebra that holds it, fixes every
input of the composite and of the morphism check: the source (the
algebra's signature), the morphism's entries, and the target, which is
the model.  Only a map that passed the morphism check and every gate of
the composite (the chain-map check of the induced cobar map, both
pushforward gates and the final Maurer-Cartan check) is stored, so a hit
needs no check again, a failing map raises on every call, and every gate
still runs in full the first time a distinct map meets an algebra.  The
memos die with their algebra when the model evicts it, or with the model
when the model cache evicts or clears it.  A hit hands out the stored
record, not a copy: nothing writes into the map of a record.

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
from .convolution import ConvolutionAlgebra
from .gauge import NotMaurerCartan, PointRecord, gauge_equivalent
from .graded import GradedMap, entries_signature, lru
from .modelio import element_from_record
from .models import CdgCoalgebra
from .transfer import (InfinityMorphism, postcompose_strict, push_mc,
                       transfer_linfty)


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
        # Hom(source, algebra) by source signature (hom)
        self.homs: OrderedDict[tuple, ConvolutionAlgebra] = OrderedDict()

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

    def hom(self, source: CdgCoalgebra) -> ConvolutionAlgebra:
        """The convolution algebra Hom(source, self.algebra), one per source
        signature among the _HOMS_CAP most recently used."""
        return lru(self.homs, _HOMS_CAP, source.signature,
                   lambda: ConvolutionAlgebra(source, self.algebra))


_MODELS: OrderedDict[tuple, LoopHomology] = OrderedDict()
_MODELS_CAP = 8
_PUSHED_CAP = 64
_HOMS_CAP = 8


def loop_homology(coalgebra: CdgCoalgebra, degree_max: int) -> LoopHomology:
    """Cached loop homology model; the cache key is structural, so two
    equal coalgebras built independently share one model and hence one
    fingerprint.  The cache keeps the _MODELS_CAP most recently used
    models."""
    return lru(_MODELS, _MODELS_CAP, (coalgebra.signature, degree_max),
               lambda: LoopHomology(coalgebra, degree_max))


def mc_of_map(model: LoopHomology, source: CdgCoalgebra,
              rec: dict) -> PointRecord:
    """The record (gauge.PointRecord) in model.hom(source) of the canonical
    Maurer-Cartan element, in Hom(H(C), H(loops D)), of the map from
    source into the target of model that the record rec holds.

    An mc_element record is the element itself, checked against the
    literal Maurer-Cartan equation by its record.  A map record is a
    strict morphism of coalgebra models, checked to commute with both
    the differential and the coproduct; its element is the composite of
    _push_map: classes of the source homology are included into the
    source cobar construction by the transferred infinity-morphism,
    carried over by the induced map of cobar constructions, and pushed
    down to the target's homology along the projection.  The check and
    the composite run once per distinct map and Hom algebra (its memo
    "pushed", see the module docstring), and a hit returns the stored
    record.
    """
    conv = model.hom(source)
    if rec["kind"] == "mc_element":
        tau = element_from_record(rec, source.space, model.algebra.space)
        if tau.degree != 0:
            raise ValueError("a Maurer-Cartan element must have degree 0")
        return PointRecord(conv, tau)
    f = element_from_record(rec, source.space, model.coalgebra.space)
    if f.degree != 0:
        raise ValueError("a coalgebra morphism must have degree 0")
    return lru(conv.algebra_memo.setdefault("pushed", OrderedDict()),
               _PUSHED_CAP, entries_signature(f.entries),
               lambda: _push_map(model, conv, f))


def _push_map(model: LoopHomology, conv: ConvolutionAlgebra,
              f: GradedMap) -> PointRecord:
    """The composite of mc_of_map for a strict morphism, every gate run:
    cobar_map checks f to be a coalgebra morphism (after the loop model of
    the source C is built or read from the cache), the middle stage lives
    in the divided-power normalization, and the result is checked against
    the literal Maurer-Cartan equation by its record in conv."""
    C = conv.C
    source_model = loop_homology(C, model.degree_max)
    induced = cobar_map(f, source_model.cobar, model.cobar)
    lifted = GradedMap(source_model.ambient.space, model.ambient.space, 0,
                       induced.entries, name=induced.name)
    carried = postcompose_strict(lifted, source_model.inclusion,
                                 model.ambient)
    middle = push_mc(carried, C, source_model.theta)
    result = push_mc(model.projection, C, middle, residual="twisting")
    try:
        return PointRecord(conv, result)
    except NotMaurerCartan as exc:
        raise ValueError(f"composite: {exc}; enlarge the window") from None


def maps_homotopic(x: PointRecord, y: PointRecord):
    """Decide whether two maps into the target of a loop model are
    homotopic, given the records of their canonical Maurer-Cartan
    elements (mc_of_map) in one algebra model.hom(source): the gauge
    certificate between them in Hom(H(C), H(loops D))."""
    return gauge_equivalent(x, y)
