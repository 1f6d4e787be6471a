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

A command line is the command, then its positionals in order, with each
option of the command as --opt VALUE or --opt=VALUE anywhere after it
(COMMANDS).  An option is spelled in full and given at most once: an
abbreviation or a repeated option is refused.  -h or --help prints one
line per command, or after a command that command's line, and exits 0.
A usage error is reported like any other error, as JSON with exit code
2, its "where" set to "command", the missing positional or the option.

The six commands on a convolution algebra Hom(C, L) (mc-check, twist,
pi, components, hopf, homotopic) share one target loader: an linfty
record is L as it stands, and a coalgebra D, bundled or from a file, is
read as its loop model, the transferred structure on the homology of
its cobar construction (hopf.loop_homology, cached per process).  hopf
and homotopic read maps into D itself and refuse an linfty target.  A
model file is decoded and validated once per distinct content in a
process (_load), so a batch of calls pays for each file once.  Reading
checks every model's differential to square to zero: d of a cdgc record
(with its coproduct cocommutative, coassociative and compatible with
d), delta of a quillen record (also checked to be a derivation) and
l_1 of an linfty record, whose Jacobi identities only validate checks.
An element or map record must have degree 0.  A map that is not a
coalgebra morphism, or an element that is not Maurer-Cartan, is refused
at its argument.

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

import json
import os
import sys
from collections import OrderedDict
from contextlib import contextmanager
from types import SimpleNamespace

from . import hopf, mapping, modelio
from .barcobar import bar, cobar
from .convolution import ConvolutionAlgebra, NotAMorphism
from .freelie import BasisTooLarge
from .gauge import (Distinct, Equal, GaugePath, NotMaurerCartan,
                    PointRecord, Unknown)
from .graded import ChainComplex, lru
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


# models decoded from files, by the file's text: a batch of calls in one
# process decodes and validates each distinct file once.  A model depends
# only on that text and no command changes one after it is built.
_LOADED: OrderedDict[str, object] = OrderedDict()
_LOADED_CAP = 8


def _of_kind(arg: str, obj, kinds: tuple):
    if not isinstance(obj, kinds):
        raise ModelFileError(arg, "expected " + " or ".join(
            KINDS[k] for k in kinds))
    return obj


def _load(arg: str, kinds: tuple):
    """A model object of one of the classes kinds, from a file path or a
    bundled name.  A file is read once per call; only a model that was
    decoded without error and is of one of the kinds is kept in _LOADED."""
    if os.path.exists(arg):
        text = modelio.read_text(arg)
        obj = lru(_LOADED, _LOADED_CAP, text, lambda: _of_kind(
            arg, modelio.record_to_object(modelio.load_record(arg, text)),
            kinds))
    elif arg in BUILTIN_COALGEBRAS or arg in BUILTIN_TARGETS:
        obj = builtin_model(arg)
    else:
        raise ModelFileError(arg, "no such file or bundled model")
    return _of_kind(arg, obj, kinds)


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


@contextmanager
def _window_cap(window: int):
    """Refuse --window when a free Lie algebra built at it would pass
    freelie.BASIS_CAP basis elements."""
    try:
        yield
    except BasisTooLarge as exc:
        raise ModelFileError("--window", f"window {window}: {exc}") from None


def _loop_model(args, D: CdgCoalgebra,
                C: CdgCoalgebra) -> hopf.LoopHomology:
    """The cached loop model of the target coalgebra D, at a window that
    keeps the top degree of the source C at or below exact_through."""
    window = _model_window(args, D.space, 2, C.space)
    with _window_cap(window):
        return hopf.loop_homology(D, window)


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
        modelio.element_entries(obj)
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
    with _window_cap(window):
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


def _require_mc(where: str, record):
    """record(), the checked element (gauge.PointRecord) it makes from the
    element argument at where, which the library then takes; an element
    that is not Maurer-Cartan is refused at where, with its residual, and
    a map that is not a coalgebra morphism at where, with its message."""
    try:
        return record()
    except NotMaurerCartan as exc:
        rows = modelio.gmap_to_json(exc.residual)
        raise ModelFileError(where, "not a Maurer-Cartan element, "
                             f"residual {json.dumps(rows)}") from None
    except NotAMorphism as exc:
        raise ModelFileError(where, str(exc)) from None


def cmd_mc_check(args) -> int:
    conv, tau = _conv_and_tau(args)
    res = conv.mc_check(tau)
    ok = res.is_zero()
    _emit(args, {"kind": "mc_report", "is_mc": ok,
                 "residual": modelio.gmap_to_json(res)})
    return EXIT_OK if ok else EXIT_FAIL


def cmd_twist(args) -> int:
    conv, tau = _conv_and_tau(args)
    tw = conv.twist(_require_mc(args.tau, lambda: PointRecord(conv, tau)))
    _emit(args, {"kind": "twist_report",
                 "betti": modelio._betti_to_json(tw.betti()),
                 "differential": modelio.gmap_to_json(tw.d)})
    return EXIT_OK


def cmd_pi(args) -> int:
    conv, tau = _conv_and_tau(args)
    if args.n < 1:
        raise ModelFileError("--n", "component homotopy starts at n = 1")
    reps = mapping.pi_of_component(
        _require_mc(args.tau, lambda: PointRecord(conv, tau)), args.n)
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
    moduli = _require_mc(args.map, lambda: hopf.mc_of_map(
        model, C, _load_element(args.map))).normal_form
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
    x, y = (_require_mc(arg, lambda: hopf.mc_of_map(
        model, C, _load_element(arg))) for arg in (args.f, args.g))
    cert = hopf.maps_homotopic(x, y)
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
    with _window_cap(window):
        om = cobar(C, degree_max=window)
    t = transfer_linfty(om, arity_max=args.arity)
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


# -- command line -----------------------------------------------------------

REQUIRED = object()
WINDOW = {"--window": (int, None)}
OUT = {"--out": (str, None)}

# name: (handler, help, positionals, options), each option with its type
# and its default or REQUIRED; every command also takes OUT
COMMANDS = {
    "validate": (cmd_validate, "validate a model file", ("file",), {}),
    "homology": (cmd_homology, "betti numbers of a model", ("file",),
                 {"--degree": (int, None)}),
    "cobar": (cmd_cobar, "free Lie model of a coalgebra", ("file",), WINDOW),
    "bar": (cmd_bar, "coalgebra model of a homotopy algebra", ("file",),
            WINDOW),
    "mc-check": (cmd_mc_check, "Maurer-Cartan residual of an element",
                 ("C", "L", "tau"), {}),
    "twist": (cmd_twist, "twisted differential and betti numbers",
              ("C", "L", "tau"), {}),
    "pi": (cmd_pi, "homotopy groups of a component", ("C", "L", "tau"),
           {"--n": (int, REQUIRED)}),
    "hopf": (cmd_hopf, "Hopf invariant of a map", ("C", "D", "map"), WINDOW),
    "homotopic": (cmd_homotopic, "decide whether two maps are homotopic",
                  ("C", "D", "f", "g"), WINDOW),
    "gauge-check": (cmd_gauge_check, "verify a path or certificate",
                    ("file",), {}),
    "components": (cmd_components, "moduli classes of a mapping space "
                   "(--param: JSON list of degree-0 basis pairs to search)",
                   ("C", "L"), {"--param": (str, None),
                                "--samples": (str, "0,1,2"), **WINDOW}),
    "transfer": (cmd_transfer, "transferred structure on loop homology",
                 ("file",), {**WINDOW, "--arity": (int, 3)}),
}


def _usage(name: str) -> str:
    _, _, positionals, options = COMMANDS[name]
    return " ".join([name, *positionals] + [
        f"{opt} {kind.__name__}" if default is REQUIRED
        else f"[{opt} {kind.__name__}]"
        for opt, (kind, default) in {**options, **OUT}.items()])


def _help(names) -> int:
    """One line per command: its arguments and what it computes."""
    usages = {name: _usage(name) for name in names}
    width = max(map(len, usages.values()))
    for name, usage in usages.items():
        sys.stdout.write(f"convmc {usage:<{width}}  {COMMANDS[name][1]}\n")
    return EXIT_OK


def parse(argv):
    """The arguments of one command line: func, the handler, and one
    attribute per positional and per option of the command, named without
    the dashes.  A help request gets a func that prints the help; a line
    off the grammar raises ModelFileError."""
    if argv and argv[0] in ("-h", "--help"):
        return SimpleNamespace(func=lambda args: _help(COMMANDS))
    if not argv or argv[0] not in COMMANDS:
        got = f"unknown command {argv[0]!r}" if argv else "no command"
        raise ModelFileError("command", f"{got}; expected one of "
                             + ", ".join(COMMANDS))
    name, *tokens = argv
    func, _, positionals, options = COMMANDS[name]
    options = {**options, **OUT}
    words, values = [], {}
    tokens = iter(tokens)
    for token in tokens:
        if token in ("-h", "--help"):
            return SimpleNamespace(func=lambda args: _help([name]))
        if not token.startswith("-"):
            words.append(token)
            continue
        opt, eq, value = token.partition("=")
        if opt not in options:
            raise ModelFileError(opt, f"not an option of {_usage(name)}")
        if opt in values:
            raise ModelFileError(opt, "given more than once")
        if not eq and (value := next(tokens, None)) is None:
            raise ModelFileError(opt, "expected a value")
        try:
            values[opt] = options[opt][0](value)
        except ValueError:
            raise ModelFileError(opt, f"not an integer: {value!r}") from None
    if len(words) != len(positionals):
        raise ModelFileError(
            positionals[len(words)] if len(words) < len(positionals)
            else "command", f"{len(words)} arguments to {_usage(name)}")
    args = SimpleNamespace(func=func, **dict(zip(positionals, words)))
    for opt, (_, default) in options.items():
        if default is REQUIRED and opt not in values:
            raise ModelFileError(opt, f"required by {_usage(name)}")
        setattr(args, opt[2:], values.get(opt, default))
    return args


def main(argv=None) -> int:
    try:
        args = parse(sys.argv[1:] if argv is None else argv)
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
