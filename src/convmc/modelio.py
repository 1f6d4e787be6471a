"""File formats for models, elements, paths, and certificates.

Everything is JSON with a fixed shape per kind.  Rationals are written
as "p/q" strings so no floating point ever appears.  Basis keys may be
strings or nested tuples (bracket words, bar words, carrier pairs);
tuples are encoded as nested JSON arrays and decoded back to tuples.
Matrix data is written as sorted triple lists [src, dst, coeff] rather
than objects keyed by encoded keys, which keeps the canonical ordering
independent of the key encoding.  operation_rows is the one writer of
graded symmetric operations (the brackets of an linfty record, the
components of a transfer report's infinity-morphisms).

Serialization is deterministic: dictionaries are dumped with sorted
keys and entry lists are sorted on their encoded form, so identical
objects produce byte-identical files.  parse errors carry the path of
the offending entry.

Certificate records embed the full source coalgebra and target algebra,
so a decision can be re-verified later from the file alone.  Every
coalgebra record, embedded or not, is validated as it is read: d squares
to zero (where "d"), and the coproduct is cocommutative, coassociative
and compatible with d (where "delta").
"""

from __future__ import annotations

import json
from fractions import Fraction

from . import words as wd
from .freelie import FreeLie
from .gauge import Distinct, Equal, GaugePath, Unknown
from .graded import ChainComplex, GradedMap, GradedSpace
from .models import (CdgCoalgebra, LInfinityAlgebra, QuillenModel,
                     SymmetricOperations)

F = Fraction

FORMAT_VERSION = 1

KINDS = ("cdgc", "linfty", "quillen", "mc_element", "map", "gauge_path",
         "certificate")


class ModelFileError(ValueError):
    """Parse or shape failure, carrying the location inside the file."""

    def __init__(self, where: str, message: str):
        super().__init__(f"{where}: {message}")
        self.where = where


# -- scalars and keys -------------------------------------------------------

def frac_to_str(c) -> str:
    c = F(c)
    return f"{c.numerator}/{c.denominator}"


def frac_from_str(s, where: str) -> Fraction:
    if not isinstance(s, str):
        raise ModelFileError(where, f"expected a 'p/q' string, got {s!r}")
    try:
        return F(s)
    except (ValueError, ZeroDivisionError):
        raise ModelFileError(where, f"bad rational {s!r}") from None


def encode_key(k):
    if isinstance(k, tuple):
        return [encode_key(x) for x in k]
    if isinstance(k, (str, int)):
        return k
    raise ModelFileError("key", f"cannot encode key {k!r}")


def decode_key(j, where: str = "key"):
    if isinstance(j, list):
        return tuple(decode_key(x, where) for x in j)
    if isinstance(j, (str, int)):
        return j
    raise ModelFileError(where, f"cannot decode key {j!r}")


def _canon(j) -> str:
    return json.dumps(j, sort_keys=True)


def _expect(value, kind: type, where: str):
    """value, refused unless it is a JSON object (kind dict) or array
    (kind list)."""
    if not isinstance(value, kind):
        name = "an object" if kind is dict else "a list"
        raise ModelFileError(where, f"expected {name}, got {value!r}")
    return value


# -- spaces and matrices ----------------------------------------------------

def space_to_json(sp: GradedSpace) -> list:
    out = []
    for d in sorted(sp.degrees()):
        for k in sp.basis(d):
            out.append({"name": encode_key(k), "degree": d})
    return out


def space_from_json(rows, name: str, where: str) -> GradedSpace:
    by_deg: dict[int, list] = {}
    for i, row in enumerate(_expect(rows, list, where)):
        loc = f"{where}[{i}]"
        if not isinstance(row, dict) or "name" not in row \
                or "degree" not in row:
            raise ModelFileError(loc, "basis rows need 'name' and 'degree'")
        d = row["degree"]
        if not isinstance(d, int):
            raise ModelFileError(loc, f"degree must be an integer, got {d!r}")
        by_deg.setdefault(d, []).append(decode_key(row["name"], loc))
    return GradedSpace(by_deg, name=name)


def entries_to_json(entries: dict) -> list:
    rows = []
    for src, col in entries.items():
        for dst, c in col.items():
            if c:
                rows.append([encode_key(src), encode_key(dst),
                             frac_to_str(c)])
    rows.sort(key=lambda r: (_canon(r[0]), _canon(r[1])))
    return rows


def entries_from_json(rows, where: str) -> dict:
    cols: dict = {}
    for i, row in enumerate(_expect(rows, list, where)):
        loc = f"{where}[{i}]"
        if not isinstance(row, list) or len(row) != 3:
            raise ModelFileError(loc, "matrix rows are [src, dst, 'p/q']")
        src = decode_key(row[0], loc)
        dst = decode_key(row[1], loc)
        c = frac_from_str(row[2], loc)
        if c:
            cols.setdefault(src, {})[dst] = c
    return cols


def gmap_to_json(f: GradedMap) -> list:
    return entries_to_json(f.entries)


# -- model records ----------------------------------------------------------

def _header(kind: str, name: str) -> dict:
    return {"format_version": FORMAT_VERSION, "kind": kind, "name": name}


def cdgc_to_record(C: CdgCoalgebra) -> dict:
    rec = _header("cdgc", C.name)
    rec["basis"] = space_to_json(C.space)
    rec["d"] = entries_to_json(C.d.entries)
    rows = []
    for k, col in C.delta.items():
        for (a, b), c in col.items():
            rows.append([encode_key(k), encode_key(a), encode_key(b),
                         frac_to_str(c)])
    rows.sort(key=lambda r: (_canon(r[0]), _canon(r[1]), _canon(r[2])))
    rec["delta"] = rows
    return rec


def cdgc_from_record(rec: dict) -> CdgCoalgebra:
    name = rec.get("name", "")
    sp = space_from_json(rec.get("basis", []), name, "basis")
    d = GradedMap(sp, sp, -1, entries_from_json(rec.get("d", []), "d"))
    delta: dict = {}
    for i, row in enumerate(_expect(rec.get("delta", []), list, "delta")):
        loc = f"delta[{i}]"
        if not isinstance(row, list) or len(row) != 4:
            raise ModelFileError(loc, "coproduct rows are [src, a, b, 'p/q']")
        k = decode_key(row[0], loc)
        pair = (decode_key(row[1], loc), decode_key(row[2], loc))
        c = frac_from_str(row[3], loc)
        if c:
            delta.setdefault(k, {})[pair] = c
    try:
        ChainComplex(sp, d, name).validate()
    except ValueError as exc:
        raise ModelFileError("d", str(exc)) from None
    C = CdgCoalgebra(sp, d, delta, name=name)
    # the convolution brackets read each coproduct word once, which
    # equals the sum over orderings only for a cocommutative,
    # coassociative coproduct
    try:
        C.validate()
    except ValueError as exc:
        raise ModelFileError("delta", str(exc)) from None
    return C


def operation_rows(ops: SymmetricOperations) -> list:
    """Sorted [n, word, dst, 'p/q'] rows of a table of graded symmetric
    operations: the brackets of an L-infinity algebra or the components
    of an infinity-morphism.  A computed table is first forced on every
    canonical word that can have a value: an operation of degree
    ops.degree on a word above degree codomain.deg_max - ops.degree
    lands outside the codomain."""
    if ops.compute is not None:
        top = ops.codomain.deg_max - ops.degree
        for n in ops.arities:
            for word in wd.canonical_words(ops.space, n, top):
                ops.value(n, word)
    rows = []
    for n, table in ops.tables.items():
        for word, v in table.items():
            for dst, c in v.items():
                rows.append([n, [encode_key(k) for k in word],
                             encode_key(dst), frac_to_str(c)])
    rows.sort(key=lambda r: (r[0], _canon(r[1]), _canon(r[2])))
    return rows


def linfty_to_record(L: LInfinityAlgebra) -> dict:
    rec = _header("linfty", L.name)
    rec["basis"] = space_to_json(L.space)
    rec["arities"] = sorted(L.arities)
    rec["brackets"] = operation_rows(L)
    return rec


def linfty_from_record(rec: dict) -> LInfinityAlgebra:
    name = rec.get("name", "")
    sp = space_from_json(rec.get("basis", []), name, "basis")
    brackets: dict = {}
    for i, row in enumerate(_expect(rec.get("brackets", []), list,
                                    "brackets")):
        loc = f"brackets[{i}]"
        if not isinstance(row, list) or len(row) != 4 \
                or not isinstance(row[0], int) or not isinstance(row[1], list):
            raise ModelFileError(loc,
                                 "bracket rows are [n, [word], dst, 'p/q']")
        n = row[0]
        word = tuple(decode_key(k, loc) for k in row[1])
        if len(word) != n:
            raise ModelFileError(loc, f"word length {len(word)} != arity {n}")
        dst = decode_key(row[2], loc)
        for k in (*word, dst):
            if k not in sp.degree_of:
                raise ModelFileError(loc, f"{k!r} is not a basis key")
        c = frac_from_str(row[3], loc)
        if c:
            brackets.setdefault(n, {}).setdefault(word, {})[dst] = c
    arities = rec.get("arities")
    if arities is not None and (not isinstance(arities, list) or
                                any(not isinstance(a, int) for a in arities)):
        raise ModelFileError("arities", "must be a list of integers")
    return LInfinityAlgebra(sp, brackets, name=name, arities=arities)


def quillen_to_record(Q: QuillenModel) -> dict:
    rec = _header("quillen", Q.name)
    rec["letters"] = space_to_json(Q.fl.letters)
    rec["deg_max"] = Q.fl.deg_max
    rec["delta"] = entries_to_json(Q.delta.entries)
    return rec


def quillen_from_record(rec: dict) -> QuillenModel:
    name = rec.get("name", "")
    letters = space_from_json(rec.get("letters", []), name, "letters")
    deg_max = rec.get("deg_max")
    if not isinstance(deg_max, int):
        raise ModelFileError("deg_max", "must be an integer")
    fl = FreeLie(letters, deg_max)
    cols = entries_from_json(rec.get("delta", []), "delta")
    for src in cols:
        if src not in fl.space.degree_of:
            raise ModelFileError("delta",
                                 f"{src!r} is not a word of the model")
    delta = GradedMap(fl.space, fl.space, -1, cols)
    return QuillenModel(fl, delta, name=name)


def map_from_json(rows, where: str, src: GradedSpace, dst: GradedSpace,
                  degree: int, name: str = "") -> GradedMap:
    """The map of the given degree with matrix rows `rows`, refused at
    where unless its source keys are basis keys of src, its target keys
    basis keys of dst, and every image lands in the right degree."""
    cols = entries_from_json(rows, where)
    for ck, col in cols.items():
        if ck not in src.degree_of:
            raise ModelFileError(where, f"{ck!r} is not a source basis key")
        for lk in col:
            if lk not in dst.degree_of:
                raise ModelFileError(where,
                                     f"{lk!r} is not a target basis key")
    try:
        return GradedMap(src, dst, degree, cols, name=name)
    except ValueError as exc:
        raise ModelFileError(where, str(exc)) from None


def element_from_record(rec: dict, src: GradedSpace,
                        dst: GradedSpace) -> GradedMap:
    degree = rec.get("degree", 0)
    if not isinstance(degree, int):
        raise ModelFileError("degree", "must be an integer")
    return map_from_json(rec.get("entries", []), "entries", src, dst, degree,
                         name=rec.get("name", ""))


# -- paths and certificates -------------------------------------------------

def _parts_to_json(parts: dict) -> list:
    return [[k, gmap_to_json(f)] for k, f in sorted(parts.items())]


def _parts_from_json(rows, where: str, conv, degree: int) -> dict:
    out = {}
    for i, row in enumerate(_expect(rows, list, where)):
        loc = f"{where}[{i}]"
        if not isinstance(row, list) or len(row) != 2 \
                or not isinstance(row[0], int):
            raise ModelFileError(loc, "path parts are [power, entries]")
        out[row[0]] = map_from_json(row[1], loc, conv.C.space,
                                    conv.L.space, degree)
    return out


def path_to_json(path: GaugePath) -> dict:
    return {"poly_bound": path.poly_bound,
            "p_parts": _parts_to_json(path.p_parts),
            "q_parts": _parts_to_json(path.q_parts)}


def path_from_json(rec: dict, conv, where: str = "path") -> GaugePath:
    bound = _expect(rec, dict, where).get("poly_bound")
    if not isinstance(bound, int) or bound < 0:
        raise ModelFileError(f"{where}.poly_bound",
                             "must be a nonnegative integer")
    p = _parts_from_json(rec.get("p_parts", []), f"{where}.p_parts", conv, 0)
    q = _parts_from_json(rec.get("q_parts", []), f"{where}.q_parts", conv, 1)
    return GaugePath(conv, bound, p, q)


def _embedded_conv(rec: dict):
    """The convolution algebra of the source coalgebra and the target
    algebra that a path or certificate record embeds."""
    from .convolution import ConvolutionAlgebra
    return ConvolutionAlgebra(
        cdgc_from_record(_expect(rec.get("C", {}), dict, "C")),
        linfty_from_record(_expect(rec.get("L", {}), dict, "L")))


def gauge_path_from_record(rec: dict) -> GaugePath:
    return path_from_json(rec.get("path", {}), _embedded_conv(rec))


def _betti_to_json(b: dict) -> list:
    return [[d, n] for d, n in sorted(b.items())]


def _betti_from_json(rows, where: str) -> dict:
    out = {}
    for i, row in enumerate(_expect(rows, list, where)):
        if not isinstance(row, list) or len(row) != 2 \
                or not all(isinstance(x, int) for x in row):
            raise ModelFileError(f"{where}[{i}]", "betti rows are [deg, dim]")
        out[row[0]] = row[1]
    return out


def certificate_to_record(cert) -> dict:
    rec = _header("certificate", "")
    rec["outcome"] = cert.outcome
    if isinstance(cert, Unknown):
        rec["reason"] = cert.reason
        return rec
    rec["C"] = cdgc_to_record(cert.conv.C)
    rec["L"] = linfty_to_record(cert.conv.L)
    rec["x"] = gmap_to_json(cert.x)
    rec["y"] = gmap_to_json(cert.y)
    if isinstance(cert, Equal):
        rec["paths"] = [path_to_json(p) for p in cert.paths]
    elif isinstance(cert, Distinct):
        rec["witness_kind"] = cert.kind
        if cert.kind == "rigid-stage":
            rec["witness"] = {"degree": cert.witness["degree"]}
        elif cert.kind == "twisted-betti":
            rec["witness"] = {
                "betti_x": _betti_to_json(cert.witness["betti_x"]),
                "betti_y": _betti_to_json(cert.witness["betti_y"])}
        else:
            rec["witness"] = {}
    else:
        raise ValueError(f"cannot serialize certificate {cert!r}")
    return rec


def certificate_from_record(rec: dict):
    outcome = rec.get("outcome")
    if outcome == "unknown":
        return Unknown(rec.get("reason", ""))
    conv = _embedded_conv(rec)
    x, y = (map_from_json(rec.get(k, []), k, conv.C.space, conv.L.space, 0)
            for k in "xy")
    if outcome == "equal":
        paths = [path_from_json(p, conv, f"paths[{i}]") for i, p in
                 enumerate(_expect(rec.get("paths", []), list, "paths"))]
        return Equal(conv, x, y, tuple(paths))
    if outcome == "distinct":
        kind = rec.get("witness_kind", "")
        wit = _expect(rec.get("witness", {}), dict, "witness")
        if kind == "rigid-stage":
            degree = wit.get("degree")
            if type(degree) is not int:
                raise ModelFileError("witness.degree",
                                     f"expected an integer, got {degree!r}")
            wit = {"degree": degree}
        elif kind == "twisted-betti":
            wit = {"betti_x": _betti_from_json(wit.get("betti_x", []),
                                               "witness.betti_x"),
                   "betti_y": _betti_from_json(wit.get("betti_y", []),
                                               "witness.betti_y")}
        return Distinct(conv, x, y, kind, wit)
    raise ModelFileError("outcome", f"unknown certificate outcome {outcome!r}")


# -- top level --------------------------------------------------------------

_LOADERS = {
    "cdgc": cdgc_from_record,
    "linfty": linfty_from_record,
    "quillen": quillen_from_record,
    "gauge_path": gauge_path_from_record,
    "certificate": certificate_from_record,
}


def record_to_object(rec: dict):
    """Decode a parsed record into the matching domain object.  Elements
    (mc_element, map) stay as records: they need their endpoint spaces."""
    kind = rec.get("kind")
    if kind not in KINDS:
        raise ModelFileError("kind", f"unknown kind {kind!r}")
    if kind in ("mc_element", "map"):
        return rec
    return _LOADERS[kind](rec)


def dumps_record(rec: dict) -> str:
    return json.dumps(rec, sort_keys=True, indent=2) + "\n"


def load_record(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            rec = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ModelFileError(path, f"not valid JSON: {exc}") from None
    except OSError as exc:
        raise ModelFileError(path, exc.strerror or str(exc)) from None
    if not isinstance(rec, dict):
        raise ModelFileError(path, "top level must be an object")
    version = rec.get("format_version")
    if version != FORMAT_VERSION:
        raise ModelFileError(f"{path}.format_version",
                             f"expected {FORMAT_VERSION}, got {version!r}")
    return rec
