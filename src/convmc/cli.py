"""Command line interface: validation, homology, the two constructions,
Maurer-Cartan checks, twisted homotopy groups, Hopf invariants, homotopy
decisions, gauge certificate verification, component search, and
homotopy transfer.

Model arguments accept either a file path or a bundled model name (s2,
s3, s4, s2vs3, cp2, s2xs2, pi_s2, pi_s3, ab2, ab23).  Output is a single
JSON document on standard out, canonically ordered so identical inputs
give byte-identical bytes; --out writes it to a file instead.  Errors
are JSON on standard error with exit code 2.  Semantic failures (a
residual that is not zero, a certificate that does not verify) exit 1;
an undecided homotopy question exits 3.

The six commands on a convolution algebra Hom(C, L) (mc-check, twist,
pi, components, hopf, homotopic) share one target loader: an linfty
record is L as it stands, and a coalgebra D, bundled or from a file, is
read as its loop model, the transferred structure on the homology of
its cobar construction (hopf.loop_homology, cached per process).  hopf
and homotopic read maps into D itself and refuse an linfty target.

The truncation window is taken from --window (mc-check, twist and pi
have none), then the CONVMC_WINDOW environment variable, then a
per-command default.  Every command with a window refuses one below the
lowest degree of the space its model is built on (the carrier of L for
bar, the coalgebra for cobar, transfer and a loop model, the bar
construction of a free Lie model source for components), since that
model would be empty.  A loop model is also refused at a window that
leaves the top degree of the source above exact_through (window - 1),
where the model is only a truncation artifact; by default it sits two
above the top degrees of source and target.  For components, --window
sets the bar construction of a free Lie model source, so a loop model
target at that window is refused by the same rule, and with a coalgebra
source and an linfty target, both used as they are, --window is
refused.  transfer blames --window for a Jacobi residue above
exact_through, where the cobar cut at the window leaves homology that
is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import hopf, mapping, modelio
from .barcobar import bar, cobar
from .convolution import ConvolutionAlgebra
from .gauge import Distinct, Equal, GaugePath, Unknown, moduli_normal_form
from .graded import ChainComplex
from .library import BUILTIN_COALGEBRAS, BUILTIN_TARGETS, builtin_model
from .models import (CdgCoalgebra, JacobiError, LInfinityAlgebra,
                     QuillenModel)
from .modelio import ModelFileError
from .transfer import transfer_linfty

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_ERROR = 2
EXIT_UNKNOWN = 3

WINDOW_ENV = "CONVMC_WINDOW"


KINDS = {CdgCoalgebra: "a coalgebra model",
         QuillenModel: "a free Lie model",
         LInfinityAlgebra: "a homotopy algebra model"}
TARGET_KINDS = (CdgCoalgebra, LInfinityAlgebra)


def _load(arg: str, kinds: tuple):
    """A model object of one of the classes kinds, from a file path or a
    bundled name."""
    if os.path.exists(arg):
        obj = modelio.record_to_object(modelio.load_record(arg))
    elif arg in BUILTIN_COALGEBRAS or arg in BUILTIN_TARGETS:
        obj = builtin_model(arg)
    else:
        raise ModelFileError(arg, "no such file or bundled model")
    if not isinstance(obj, kinds):
        raise ModelFileError(arg, "expected " + " or ".join(
            KINDS[k] for k in kinds))
    return obj


def _load_element(arg: str) -> dict:
    rec = modelio.load_record(arg)
    if rec.get("kind") not in ("mc_element", "map"):
        raise ModelFileError(arg, "expected an mc_element or map record")
    return rec


def _window(args, fallback: int) -> int:
    if getattr(args, "window", None) is not None:
        return args.window
    env = os.environ.get(WINDOW_ENV)
    if env:
        try:
            return int(env)
        except ValueError:
            raise ModelFileError(WINDOW_ENV,
                                 f"not an integer: {env!r}") from None
    return fallback


def _model_window(args, space, margin: int, source=None) -> int:
    """The window for a model built on space, by default margin above its
    top degree and the top degree of source.  One below the lowest degree
    of space would leave the model empty.  A map from source is read in the
    model through its classes, so the window must also keep source's top
    degree at or below exact_through (window - 1)."""
    tops = space.degrees() + (source.degrees() if source else [])
    window = _window(args, max(tops, default=2) + margin)
    low = space.deg_min
    if space.degrees() and window < low:
        raise ModelFileError("--window", f"window {window} is below degree "
                             f"{low}, the lowest degree of {space.name}; "
                             "the model built on it would be empty")
    if source is not None and source.degrees() and window <= source.deg_max:
        raise ModelFileError("--window", f"window {window} is exact only "
                             f"through degree {window - 1}, below degree "
                             f"{source.deg_max}, the top degree of "
                             f"{source.name}; the map would be read on "
                             "truncation artifacts")
    return window


def _loop_model(args, D: CdgCoalgebra,
                C: CdgCoalgebra) -> hopf.LoopHomology:
    """The cached loop model of the target coalgebra D, at a window that
    keeps the top degree of the source C at or below exact_through."""
    return hopf.loop_homology(D, _model_window(args, D.space, 2, C.space))


def _target(args, target, C: CdgCoalgebra) -> LInfinityAlgebra:
    """L of Hom(C, L) for a loaded target: an linfty record as is, a
    coalgebra as its loop model."""
    if isinstance(target, CdgCoalgebra):
        return _loop_model(args, target, C).algebra
    return target


def _replay(obj) -> dict | None:
    """Re-check a gauge path or a certificate: the fields 'checked' and
    'valid', plus 'outcome' for a certificate and 'reason' for an
    undecided one.  None for any other object."""
    if isinstance(obj, GaugePath):
        return {"checked": "gauge_path", "valid": obj.path_check().is_zero()}
    if isinstance(obj, Unknown):
        return {"checked": "certificate", "outcome": obj.outcome,
                "valid": False, "reason": obj.reason}
    if isinstance(obj, (Equal, Distinct)):
        return {"checked": "certificate", "outcome": obj.outcome,
                "valid": obj.verify()}
    return None


def _emit(args, rec: dict) -> None:
    text = modelio.dumps_record(rec)
    out = getattr(args, "out", None)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ModelFileError("--out", f"cannot write {out!r}: "
                                 f"{exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


# -- subcommands ------------------------------------------------------------

def cmd_validate(args) -> int:
    rec = modelio.load_record(args.file)
    obj = modelio.record_to_object(rec)
    if isinstance(obj, dict):
        for i, row in enumerate(obj.get("entries", [])):
            modelio.frac_from_str(row[2] if isinstance(row, list)
                                  and len(row) == 3 else None,
                                  f"entries[{i}]")
        _emit(args, {"kind": "validation_report", "valid": True,
                     "checked": obj.get("kind")})
        return EXIT_OK
    replayed = _replay(obj)
    if replayed is not None:
        _emit(args, {"kind": "validation_report",
                     "valid": replayed["valid"],
                     "checked": replayed["checked"]})
        return EXIT_OK if replayed["valid"] else EXIT_FAIL
    obj.validate()
    _emit(args, {"kind": "validation_report", "valid": True,
                 "checked": rec.get("kind")})
    return EXIT_OK


def _as_complex(obj) -> ChainComplex:
    if isinstance(obj, CdgCoalgebra):
        return ChainComplex(obj.space, obj.d, name=obj.name)
    return obj.as_chain_complex()


def cmd_homology(args) -> int:
    cx = _as_complex(_load(args.file, tuple(KINDS)))
    betti = cx.betti()
    if args.degree is not None:
        betti = {d: n for d, n in betti.items() if d == args.degree}
    _emit(args, {"kind": "homology_report", "name": cx.name,
                 "betti": modelio._betti_to_json(betti)})
    return EXIT_OK


def cmd_cobar(args) -> int:
    C = _load(args.file, (CdgCoalgebra,))
    window = _model_window(args, C.space, 3)
    om = cobar(C, degree_max=window)
    rec = modelio.quillen_to_record(om)
    rec["window"] = window
    rec["exact_through"] = om.exact_through
    _emit(args, rec)
    return EXIT_OK


def cmd_bar(args) -> int:
    L = _load(args.file, (LInfinityAlgebra,))
    window = _model_window(args, L.space, 3)
    B = bar(L, window)
    rec = modelio.cdgc_to_record(B)
    rec["window"] = window
    rec["exact_through"] = B.exact_through
    _emit(args, rec)
    return EXIT_OK


def _conv_and_tau(args):
    C = _load(args.C, (CdgCoalgebra,))
    L = _target(args, _load(args.L, TARGET_KINDS), C)
    conv = ConvolutionAlgebra(C, L)
    tau = modelio.element_from_record(_load_element(args.tau),
                                      C.space, L.space)
    return conv, tau


def _require_mc(args, conv: ConvolutionAlgebra, tau) -> None:
    """Refuse the element argument unless tau is Maurer-Cartan."""
    rows = modelio.gmap_to_json(conv.mc_check(tau))
    if rows:
        raise ModelFileError(args.tau, "not a Maurer-Cartan element, "
                             f"residual {json.dumps(rows)}")


def cmd_mc_check(args) -> int:
    conv, tau = _conv_and_tau(args)
    res = conv.mc_check(tau)
    ok = res.is_zero()
    _emit(args, {"kind": "mc_report", "is_mc": ok,
                 "residual": modelio.gmap_to_json(res)})
    return EXIT_OK if ok else EXIT_FAIL


def cmd_twist(args) -> int:
    conv, tau = _conv_and_tau(args)
    _require_mc(args, conv, tau)
    tw = conv.twist(tau)
    _emit(args, {"kind": "twist_report",
                 "betti": modelio._betti_to_json(tw.betti()),
                 "differential": modelio.gmap_to_json(tw.d)})
    return EXIT_OK


def cmd_pi(args) -> int:
    conv, tau = _conv_and_tau(args)
    if args.n < 1:
        raise ModelFileError("--n", "component homotopy starts at n = 1")
    _require_mc(args, conv, tau)
    reps = mapping.pi_of_component(conv, tau, args.n)
    classes = [{"name": modelio.encode_key(k),
                "representative": modelio.entries_to_json({k: v})}
               for k, v in reps.items()]
    _emit(args, {"kind": "pi_report", "n": args.n, "dim": len(reps),
                 "classes": classes})
    return EXIT_OK


def cmd_hopf(args) -> int:
    C = _load(args.C, (CdgCoalgebra,))
    D = _load(args.D, (CdgCoalgebra,))
    model = _loop_model(args, D, C)
    value = hopf.mc_of_map(model, C, _load_element(args.map))
    moduli = moduli_normal_form(ConvolutionAlgebra(C, model.algebra), value)
    _emit(args, {"kind": "hopf_report",
                 "source": C.name, "target": D.name,
                 "window": model.degree_max,
                 "fingerprint": model.fingerprint,
                 "representative": modelio.gmap_to_json(
                     moduli.representative),
                 "verified": moduli.verify()})
    return EXIT_OK


def cmd_homotopic(args) -> int:
    C = _load(args.C, (CdgCoalgebra,))
    model = _loop_model(args, _load(args.D, (CdgCoalgebra,)), C)
    x, y = (hopf.mc_of_map(model, C, _load_element(arg))
            for arg in (args.f, args.g))
    cert = hopf.maps_homotopic(model, C, x, y)
    rec = {"kind": "homotopy_report", "outcome": cert.outcome,
           "window": model.degree_max,
           "certificate": modelio.certificate_to_record(cert)}
    _emit(args, rec)
    if isinstance(cert, Equal):
        return EXIT_OK
    if isinstance(cert, Distinct):
        return EXIT_FAIL
    return EXIT_UNKNOWN


def cmd_gauge_check(args) -> int:
    obj = modelio.record_to_object(modelio.load_record(args.file))
    replayed = _replay(obj)
    if replayed is None:
        raise ModelFileError(args.file, "expected a gauge path or certificate")
    _emit(args, {"kind": "gauge_check_report", **replayed})
    if isinstance(obj, Unknown):
        return EXIT_UNKNOWN
    return EXIT_OK if replayed["valid"] else EXIT_FAIL


def cmd_components(args) -> int:
    source = _load(args.C, (CdgCoalgebra, QuillenModel))
    target = _load(args.L, TARGET_KINDS)
    window = None
    if isinstance(source, QuillenModel):
        if args.window is not None or os.environ.get(WINDOW_ENV):
            # the source is replaced by its bar construction, which sits
            # one degree above the letters of the free Lie algebra
            window = _model_window(args, source.as_linfty().space, 0)
    elif args.window is not None and isinstance(target, LInfinityAlgebra):
        raise ModelFileError("--window", f"{args.C} is a coalgebra model and "
                             f"{args.L} a homotopy algebra model, used as "
                             "they are; the window only sets the bar "
                             "construction of a free Lie model source and "
                             "the loop model of a coalgebra target")
    C = mapping.strict_source(source, window)
    conv = ConvolutionAlgebra(C, _target(args, target, C))
    restrict = None
    if args.param is not None:
        try:
            rows = json.loads(args.param)
        except json.JSONDecodeError as exc:
            raise ModelFileError("--param", f"not valid JSON: {exc}") \
                from None
        restrict = []
        for row in modelio._expect(rows, list, "--param"):
            key = modelio.decode_key(row, "--param")
            if key not in conv.carrier.basis(0):
                raise ModelFileError("--param", f"{key!r} is not a degree-0 "
                                     "basis pair")
            if key in restrict:
                raise ModelFileError("--param", f"{key!r} is repeated")
            restrict.append(key)
    try:
        samples = tuple(int(s) for s in args.samples.split(","))
    except ValueError:
        raise ModelFileError("--samples", "expected comma-separated "
                             f"integers, got {args.samples!r}") from None
    for i, v in enumerate(samples):
        if v in samples[:i]:
            raise ModelFileError("--samples", f"sample {v} is repeated")
    report = mapping.components(conv, restrict_to=restrict, samples=samples)
    classes = [{"representative": modelio.gmap_to_json(c.representative),
                "verified": c.verify()} for c in report.classes]
    pairwise = [[i, j, cert.outcome] for i, j, cert in report.pairwise]
    _emit(args, {"kind": "components_report",
                 "summary": report.summary(),
                 "exhaustive": report.exhaustive,
                 "method": report.method,
                 "free_parameters": list(report.free_parameters),
                 "parametric": [
                     sorted([[modelio.encode_key(p), e]
                             for p, e in branch.items()],
                            key=lambda r: modelio._canon(r[0]))
                     for branch in report.parametric],
                 "classes": classes,
                 "pairwise": pairwise,
                 "notes": report.notes})
    return EXIT_OK


def cmd_transfer(args) -> int:
    if args.arity < 1:
        raise ModelFileError("--arity", f"arity {args.arity} is below 1; "
                             "the transferred structure starts at l_1")
    C = _load(args.file, (CdgCoalgebra,))
    window = _model_window(args, C.space, 2)
    t = transfer_linfty(cobar(C, degree_max=window), arity_max=args.arity)
    try:
        t.validate()
    except JacobiError as exc:
        degree = t.algebra.space.degree_of_vector(exc.residue)
        if degree < window:
            raise
        raise ModelFileError("--window", f"{exc}; the residue lies in degree "
                             f"{degree}, above exact_through {window - 1}, "
                             "where the cobar cut makes the homology "
                             f"spurious: window {window} is too small for "
                             f"arity {args.arity}") from None

    alg = modelio.linfty_to_record(t.algebra)
    _emit(args, {"kind": "transfer_report", "window": window,
                 "arity_max": args.arity,
                 "fingerprint": t.contraction.fingerprint,
                 "homology": alg["basis"],
                 "brackets": alg["brackets"],
                 "inclusion": modelio.operation_rows(t.inclusion_infinity()),
                 "projection": modelio.operation_rows(
                     t.projection_infinity())})
    return EXIT_OK


# -- parser -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convmc",
        description="exact rational homotopy computations over "
                    "convolution algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--out", help="write the JSON report to this file")
        return p

    p = add("validate", cmd_validate, "validate a model file")
    p.add_argument("file")

    p = add("homology", cmd_homology, "betti numbers of a model")
    p.add_argument("file")
    p.add_argument("--degree", type=int, default=None)

    p = add("cobar", cmd_cobar, "free Lie model of a coalgebra")
    p.add_argument("file")
    p.add_argument("--window", type=int, default=None)

    p = add("bar", cmd_bar, "coalgebra model of a homotopy algebra")
    p.add_argument("file")
    p.add_argument("--window", type=int, default=None)

    for name, func, help_text in (
            ("mc-check", cmd_mc_check, "Maurer-Cartan residual of an "
                                       "element"),
            ("twist", cmd_twist, "twisted differential and betti numbers"),
            ("pi", cmd_pi, "homotopy groups of a component")):
        p = add(name, func, help_text)
        p.add_argument("C")
        p.add_argument("L")
        p.add_argument("tau")
        if name == "pi":
            p.add_argument("--n", type=int, required=True)

    p = add("hopf", cmd_hopf, "Hopf invariant of a map")
    p.add_argument("C")
    p.add_argument("D")
    p.add_argument("map")
    p.add_argument("--window", type=int, default=None)

    p = add("homotopic", cmd_homotopic, "decide whether two maps are "
                                        "homotopic")
    p.add_argument("C")
    p.add_argument("D")
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("--window", type=int, default=None)

    p = add("gauge-check", cmd_gauge_check, "verify a path or certificate")
    p.add_argument("file")

    p = add("components", cmd_components, "moduli classes of a mapping "
                                          "space")
    p.add_argument("C")
    p.add_argument("L")
    p.add_argument("--param", default=None,
                   help="JSON list of degree-0 basis pairs to search")
    p.add_argument("--samples", default="0,1,2")
    p.add_argument("--window", type=int, default=None)

    p = add("transfer", cmd_transfer, "transferred structure on loop "
                                      "homology")
    p.add_argument("file")
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--arity", type=int, default=3)

    return parser


# built once per process: a batch of calls in one process parses with it
# again, and building it imports what argparse's help text needs
PARSER = build_parser()


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        return args.func(args)
    except ModelFileError as exc:
        sys.stderr.write(json.dumps(
            {"error": str(exc), "where": exc.where}, sort_keys=True) + "\n")
        return EXIT_ERROR
    except (ValueError, KeyError, AssertionError, OSError) as exc:
        sys.stderr.write(json.dumps(
            {"error": str(exc)}, sort_keys=True) + "\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
