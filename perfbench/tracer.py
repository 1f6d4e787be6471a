"""Spans around convmc's layer entry points, installed from outside the
package after it is imported.

Each target is wrapped once and the wrapper is bound everywhere the
original is bound: on its class for methods, and for functions on every
convmc module that holds the same object, since modules that import a
name with `from ... import` keep their own reference.  Hot leaves
(words.sort_letters, LInfinityAlgebra.bracket, vector and Fraction
arithmetic) stay unwrapped; their time counts to the caller's span.

A span is [name, parent index, start, end].  A span's self time is its
duration minus the durations of its direct children; the wall time no
top-level span covers is `cli.self_s` (argument parsing, model lookup
and whatever runs between layer calls).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

LAYERS = ("matrices", "graded", "freelie", "barcobar", "models", "words",
          "transfer", "convolution", "gauge", "mapping", "hopf", "modelio")

# (span name, convmc module, attribute; Class.method for methods)
TARGETS = (
    ("matrices.rref", "matrices", "rref"),
    ("matrices.solve", "matrices", "solve"),
    ("matrices.rank", "matrices", "rank"),
    ("matrices.nullspace", "matrices", "nullspace"),
    ("matrices.in_span", "matrices", "in_span"),
    ("matrices.solve_matrix", "matrices", "solve_matrix"),
    ("graded.contraction", "graded", "contraction_from_complex"),
    ("graded.betti", "graded", "ChainComplex.betti"),
    ("freelie.basis", "freelie", "FreeLie.__init__"),
    ("freelie.express", "freelie", "FreeLie.express"),
    ("freelie.bracket", "freelie", "FreeLie.bracket"),
    ("barcobar.cobar", "barcobar", "cobar"),
    ("barcobar.cobar_map", "barcobar", "cobar_map"),
    ("models.validate", "models", "LInfinityAlgebra.validate"),
    ("models.jacobiator", "models", "LInfinityAlgebra.jacobiator"),
    ("words.symmetrize", "words", "symmetrize"),
    ("transfer.transfer_linfty", "transfer", "transfer_linfty"),
    ("transfer.validate", "transfer", "TransferredLInfinity.validate"),
    ("transfer.inclusion_infinity", "transfer",
     "TransferredLInfinity.inclusion_infinity"),
    ("transfer.projection_infinity", "transfer",
     "TransferredLInfinity.projection_infinity"),
    ("transfer.component", "transfer", "InfinityMorphism.component"),
    ("transfer.postcompose_strict", "transfer", "postcompose_strict"),
    ("transfer.push_mc", "transfer", "push_mc"),
    ("convolution.bracket", "convolution", "ConvolutionAlgebra.bracket"),
    ("convolution.twist", "convolution", "ConvolutionAlgebra.twist"),
    ("convolution.mc_check", "convolution", "ConvolutionAlgebra.mc_check"),
    ("gauge.decide", "gauge", "gauge_equivalent"),
    ("gauge.normal_form", "gauge", "moduli_normal_form"),
    ("gauge.verify", "gauge", "ModuliClass.verify"),
    ("mapping.components", "mapping", "components"),
    # sympy.solve as mapping calls it: this helper is its only caller.
    ("mapping.solve", "mapping", "_solve_preferring_polynomial"),
    ("hopf.loop_homology", "hopf", "loop_homology"),
    ("hopf.build", "hopf", "LoopHomology.__init__"),
    ("hopf.mc_of_map", "hopf", "mc_of_map"),
    ("hopf.maps_homotopic", "hopf", "maps_homotopic"),
    ("modelio.load", "modelio", "load_record"),
    ("modelio.load", "modelio", "record_to_object"),
    ("modelio.load", "modelio", "element_from_record"),
    ("modelio.dumps", "modelio", "dumps_record"),
)

MORPHISM_SPANS = ("transfer.inclusion_infinity",
                  "transfer.projection_infinity", "transfer.component")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[int] = []

    def current(self) -> str | None:
        return self.spans[self._open[-1]][0] if self._open else None

    def span(self, name: str, fn, before=None, after=None):
        spans, stack, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def count_within(self, name: str, within: str, fn):
        """Count the outermost calls of fn made directly inside a span
        named `within`; recursive calls of fn are not counted."""
        depth = [0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if depth[0] == 0 and self.current() == within:
                self.counts[name] += 1
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
        return wrapper

    def aggregate(self):
        """(calls, self seconds) per span name, and the seconds covered
        by top-level spans."""
        child = [0.0] * len(self.spans)
        covered = 0.0
        for name, parent, start, end in self.spans:
            if parent < 0:
                covered += end - start
            else:
                child[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for i, (name, parent, start, end) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
        return calls, self_s, covered


def _hooks(tracer: Tracer) -> dict:
    counts = tracer.counts

    def rref_cells(args):
        a = args[0]
        counts["matrices.rref.cells"] += len(a) * (len(a[0]) if a else 0)

    def basis_size(args, result):
        counts["freelie.basis.size"] += args[0].space.total_dim()

    def unknown(args, result):
        if type(result).__name__ == "Unknown":
            counts["gauge.decide.unknown"] += 1

    return {"matrices.rref": {"before": rref_cells},
            "freelie.basis": {"after": basis_size},
            "gauge.decide": {"after": unknown}}


def install(tracer: Tracer) -> None:
    """Wrap every target; raise if one is missing, so that a renamed
    entry point is reported instead of silently untraced."""
    modules = {name.split(".", 1)[1]: mod
               for name, mod in list(sys.modules.items())
               if name.startswith("convmc.") and mod is not None}
    hooks = _hooks(tracer)

    def rebind(orig, wrapper):
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)

    for name, module, attr in TARGETS:
        mod = modules[module]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, tracer.span(name, cls.__dict__[meth],
                                           **hooks.get(name, {})))
        else:
            orig = getattr(mod, attr)
            rebind(orig, tracer.span(name, orig, **hooks.get(name, {})))
    expand = modules["freelie"].expand
    rebind(expand, tracer.count_within("freelie.basis.candidates",
                                       "freelie.basis", expand))


def layer_metrics(tracer: Tracer, wall_s: float, out_bytes: int) -> dict:
    """Every per-layer metric of one traced sample, by name."""
    calls, self_s, covered = tracer.aggregate()
    counts = tracer.counts

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for span in ("matrices.rref", "matrices.solve", "graded.contraction",
                 "graded.betti", "freelie.basis", "freelie.express",
                 "barcobar.cobar", "barcobar.cobar_map", "models.jacobiator",
                 "words.symmetrize", "transfer.component", "transfer.push_mc",
                 "convolution.bracket", "convolution.twist",
                 "convolution.mc_check", "gauge.decide", "gauge.normal_form",
                 "hopf.loop_homology", "hopf.mc_of_map"):
        m[f"{span}.calls"] = calls[span]
    for span in ("matrices.rref", "graded.contraction", "freelie.basis",
                 "freelie.express", "barcobar.cobar", "barcobar.cobar_map",
                 "models.validate", "words.symmetrize",
                 "transfer.transfer_linfty", "transfer.push_mc",
                 "convolution.bracket", "convolution.twist", "gauge.decide",
                 "gauge.normal_form", "mapping.components", "mapping.solve",
                 "hopf.mc_of_map", "modelio.load", "modelio.dumps"):
        m[f"{span}.self_s"] = self_s[span]
    m["matrices.rref.cells"] = counts["matrices.rref.cells"]
    m["freelie.basis.candidates"] = counts["freelie.basis.candidates"]
    m["freelie.basis.accept_ratio"] = ratio(
        counts["freelie.basis.size"], counts["freelie.basis.candidates"])
    m["transfer.morphism.self_s"] = sum(self_s[s] for s in MORPHISM_SPANS)
    m["gauge.decide.unknown_ratio"] = ratio(counts["gauge.decide.unknown"],
                                            calls["gauge.decide"])
    m["hopf.loop_homology.builds"] = calls["hopf.build"]
    m["hopf.model_cache.hit_ratio"] = ratio(
        calls["hopf.loop_homology"] - calls["hopf.build"],
        calls["hopf.loop_homology"])
    m["modelio.out_bytes"] = out_bytes
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in self_s.items()
                                   if k.split(".", 1)[0] == layer)
    m["cli.self_s"] = wall_s - covered
    m["trace.wall_s"] = wall_s
    return m
