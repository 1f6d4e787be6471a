"""File formats for models, elements, paths, and certificates.

Everything is JSON with a fixed shape per kind.  Rationals are written
as "p/q" strings so no floating point ever appears.  Basis keys may be
strings or nested tuples (bracket words, bar words, carrier pairs);
tuples are encoded as nested JSON arrays and decoded back to tuples.
Every coefficient table is a list of rows [key, ..., 'p/q'] rather than
an object keyed by encoded keys, which keeps the canonical ordering
independent of the key encoding: the entries of a map (d, elements,
certificates, paths), the coproduct of a cdgc record, and the graded
symmetric operations of an linfty record or a transfer report
(operation_rows).  One generator, _table, reads every table, and one,
_table_rows, writes them.  _table refuses a row that repeats the keys of
an earlier row, so that no later row silently replaces one, and
space_from_json a basis row that repeats the name of an earlier one.  A
row of a cdgc or linfty table that names a key outside the basis is
refused at that row.  Every
integer field passes one check, _int, which refuses JSON true and false,
as decode_key refuses them as keys.

Serialization is deterministic: dictionaries are dumped with sorted
keys and entry lists are sorted on their encoded form, so identical
objects produce byte-identical files.  parse errors carry the path of
the offending entry.

dumps_record writes a record in one pass.  Its bytes are those of
json.dumps with sorted keys and an indent of 2 spaces, plus a newline,
and ASCII only: every other character is escaped as json's
ensure_ascii escapes it.  Tuples are written as arrays, object keys are
sorted as json sorts them, and a record holds str, int, bool, None,
lists, tuples and dicts only; anything else, a float or a Fraction
included, raises TypeError.  _table_rows encodes each basis key once per
table, with its sort text (_key_coder), so every row that names a key
holds the same encoded object.  Those shared keys are read-only: the
writer keeps the text of each container per indentation, by its id
within the one call, and so writes a shared key once per indentation.

Certificate records embed the full source coalgebra and target algebra,
so a decision can be re-verified later from the file alone.  Every
coalgebra record, embedded or not, is validated as it is read: d squares
to zero (where "d"), and the coproduct is cocommutative, coassociative
and compatible with d (where "delta").  A quillen record's delta is a
derivation: given on the letters alone it is extended by the Leibniz
rule, and given on bracket words as well it must equal that extension
(where "delta").
"""

from __future__ import annotations

import json
from operator import itemgetter

from . import words as wd
from .freelie import BasisTooLarge, FreeLie
from .gauge import Distinct, Equal, GaugePath, Unknown
from .graded import ChainComplex, GradedMap, GradedSpace
from .matrices import scalar
from .models import (CdgCoalgebra, LInfinityAlgebra, QuillenModel,
                     SymmetricOperations)

FORMAT_VERSION = 1


class ModelFileError(ValueError):
    """Parse or shape failure, carrying the location inside the file."""

    def __init__(self, where: str, message: str):
        super().__init__(f"{where}: {message}")
        self.where = where


# -- scalars and keys -------------------------------------------------------

def frac_to_str(c) -> str:
    if type(c) is int:
        return f"{c}/1"
    c = scalar(c)
    return f"{c.numerator}/{c.denominator}"


def frac_from_str(s, where: str):
    if not isinstance(s, str):
        raise ModelFileError(where, f"expected a 'p/q' string, got {s!r}")
    try:
        return scalar(s)
    except (ValueError, ZeroDivisionError):
        raise ModelFileError(where, f"bad rational {s!r}") from None


def encode_key(k):
    if isinstance(k, tuple):
        return [encode_key(x) for x in k]
    if isinstance(k, str) or type(k) is int:
        return k
    raise ModelFileError("key", f"cannot encode key {k!r}")


def decode_key(j, where: str = "key"):
    if isinstance(j, list):
        return tuple(decode_key(x, where) for x in j)
    if isinstance(j, str) or type(j) is int:
        return j
    raise ModelFileError(where, f"cannot decode key {j!r}")


def _int(value, where: str) -> int:
    """value, refused at where unless it is a JSON integer: true and false
    are not, although Python counts them as ints."""
    if type(value) is not int:
        raise ModelFileError(where, f"expected an integer, got {value!r}")
    return value


# the bytes of json.dumps(j, sort_keys=True), from one encoder built once
_canon = json.JSONEncoder(sort_keys=True).encode


def _key_coder():
    """code(k) = (encode_key(k), its _canon text), computed once per key for
    the one table being built: every row that names k holds the same
    encoded object, which is never mutated (see the module docstring)."""
    memo: dict = {}

    def code(k):
        got = memo.get(k)
        if got is None:
            j = encode_key(k)
            got = memo[k] = (j, _canon(j))
        return got
    return code


def _table_rows(terms) -> list:
    """The rows [*keys, 'p/q'] of terms, pairs (keys, c) with keys a tuple
    of keys (basis keys, words, arities), sorted on the canonical texts of
    the keys."""
    code = _key_coder()
    keyed = []
    for keys, c in terms:
        js, texts = zip(*map(code, keys))
        keyed.append((texts, [*js, frac_to_str(c)]))
    keyed.sort(key=itemgetter(0))
    return [row for _, row in keyed]


def _table(rows, where: str, width: int, shape: str):
    """(loc, keys, c) for each row [*keys, 'p/q'] of the table at where,
    keys decoded: a row is refused at loc, its place in the table, unless
    it is a list of width fields whose keys no earlier row gave."""
    seen: dict = {}
    for i, row in enumerate(_expect(rows, list, where)):
        loc = f"{where}[{i}]"
        if not isinstance(row, list) or len(row) != width:
            raise ModelFileError(loc, shape)
        keys = tuple(decode_key(k, loc) for k in row[:-1])
        first = seen.setdefault(keys, i)
        if first != i:
            raise ModelFileError(loc, f"repeats the keys of {where}[{first}]")
        yield loc, keys, frac_from_str(row[-1], loc)


def _int_rows(rows, where: str, shape: str):
    """(loc, n, value) for each row [n, value] of the list at where: a row
    is refused at loc unless n is an integer that no earlier row gave."""
    seen = set()
    for i, row in enumerate(_expect(rows, list, where)):
        loc = f"{where}[{i}]"
        if not isinstance(row, list) or len(row) != 2:
            raise ModelFileError(loc, shape)
        n = _int(row[0], loc)
        if n in seen:
            raise ModelFileError(loc, f"{n} is repeated")
        seen.add(n)
        yield loc, n, row[1]


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
    """The space of the basis rows at where: a row is refused at loc, its
    place in the list, unless it has a name no earlier row gave and an
    integer degree."""
    by_deg: dict[int, list] = {}
    seen: dict = {}
    for i, row in enumerate(_expect(rows, list, where)):
        loc = f"{where}[{i}]"
        if not isinstance(row, dict) or "name" not in row \
                or "degree" not in row:
            raise ModelFileError(loc, "basis rows need 'name' and 'degree'")
        key = decode_key(row["name"], loc)
        first = seen.setdefault(key, i)
        if first != i:
            raise ModelFileError(loc, f"repeats the name of {where}[{first}]")
        by_deg.setdefault(_int(row["degree"], loc), []).append(key)
    return GradedSpace(by_deg, name=name)


def _basis_keys(keys: tuple, sp: GradedSpace, loc: str) -> None:
    """Refuse the row at loc unless every one of keys is a basis key."""
    for k in keys:
        if k not in sp.degree_of:
            raise ModelFileError(loc, f"{k!r} is not a basis key")


def entries_to_json(entries: dict) -> list:
    return _table_rows(((src, dst), c) for src, col in entries.items()
                       for dst, c in col.items() if c)


def entries_from_json(rows, where: str, src: GradedSpace | None = None,
                      dst: GradedSpace | None = None) -> dict:
    """The columns of the matrix rows at where; given the spaces, a row is
    refused at its loc unless its keys are basis keys of src and dst."""
    cols: dict = {}
    for loc, keys, c in _table(rows, where, 3,
                               "matrix rows are [src, dst, 'p/q']"):
        if src is not None:
            _basis_keys(keys[:1], src, loc)
            _basis_keys(keys[1:], dst, loc)
        if c:
            cols.setdefault(keys[0], {})[keys[1]] = c
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
    rec["delta"] = _table_rows(((k, a, b), c) for k, col in C.delta.items()
                               for (a, b), c in col.items())
    return rec


def cdgc_from_record(rec: dict) -> CdgCoalgebra:
    name = rec.get("name", "")
    sp = space_from_json(rec.get("basis", []), name, "basis")
    d = map_from_columns(entries_from_json(rec.get("d", []), "d", sp, sp),
                         "d", sp, sp, -1)
    delta: dict = {}
    for loc, (k, a, b), c in _table(rec.get("delta", []), "delta", 4,
                                    "coproduct rows are [src, a, b, 'p/q']"):
        _basis_keys((k, a, b), sp, loc)
        if c:
            delta.setdefault(k, {})[a, b] = c
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
    rows = _table_rows(((n, word, dst), c) for n, table in ops.tables.items()
                       for word, v in table.items() for dst, c in v.items())
    # grouped by the integer arity, so that arity 10 follows arity 9
    rows.sort(key=itemgetter(0))
    return rows


def linfty_to_record(L: LInfinityAlgebra) -> dict:
    rec = _header("linfty", L.name)
    rec["basis"] = space_to_json(L.space)
    rec["arities"] = sorted(L.arities)
    rec["brackets"] = operation_rows(L)
    return rec


def linfty_from_record(rec: dict) -> LInfinityAlgebra:
    """The algebra of an linfty record.  Listed arities bound the brackets
    the convolution reads, so each must be at least 1 and list every row's."""
    name = rec.get("name", "")
    sp = space_from_json(rec.get("basis", []), name, "basis")
    arities = rec.get("arities")
    if arities is not None:
        arities = [_int(a, "arities")
                   for a in _expect(arities, list, "arities")]
        if min(arities, default=1) < 1:
            raise ModelFileError("arities", f"arity {min(arities)} is below 1")
    brackets: dict = {}
    shape = "bracket rows are [n, [word], dst, 'p/q']"
    for loc, (n, word, dst), c in _table(rec.get("brackets", []), "brackets",
                                         4, shape):
        if not isinstance(word, tuple):
            raise ModelFileError(loc, shape)
        if len(word) != _int(n, loc):
            raise ModelFileError(loc, f"word length {len(word)} != arity {n}")
        if arities is not None and n not in arities:
            raise ModelFileError(loc, f"arity {n} is not listed in arities")
        _basis_keys((*word, dst), sp, loc)
        if c:
            brackets.setdefault(n, {}).setdefault(word, {})[dst] = c
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
    deg_max = _int(rec.get("deg_max"), "deg_max")
    if letters.degrees() and deg_max < letters.deg_min:
        raise ModelFileError("deg_max", f"deg_max {deg_max} is below degree "
                             f"{letters.deg_min}, the lowest letter degree; "
                             "the model would be empty")
    try:
        fl = FreeLie(letters, deg_max)
    except BasisTooLarge as exc:
        raise ModelFileError("deg_max", str(exc)) from None
    cols = entries_from_json(rec.get("delta", []), "delta", fl.space,
                             fl.space)
    given = map_from_columns(cols, "delta", fl.space, fl.space, -1)
    if all(src in letters for src in cols):
        return QuillenModel(fl, fl.derivation(cols, -1), name=name)
    # a word missing from the record has delta 0 there
    Q = QuillenModel(fl, given, name=name)
    bad = Q.leibniz_defect()
    if bad is not None:
        raise ModelFileError("delta", "not the derivation of its values on "
                             f"the letters, first at {bad!r}")
    return Q


def map_from_columns(cols, where: str, src: GradedSpace, dst: GradedSpace,
                     degree: int, name: str = "") -> GradedMap:
    """The map of the given degree with the columns cols that
    entries_from_json read against src and dst, refused at where unless
    every image has the degree; the map is named name, or else where."""
    try:
        return GradedMap(src, dst, degree, cols, name=name or where)
    except ValueError as exc:
        raise ModelFileError(where, str(exc)) from None


def element_entries(rec: dict, src: GradedSpace | None = None,
                    dst: GradedSpace | None = None) -> tuple[int, dict]:
    """(degree, columns) of an mc_element or map record: the one shape
    check of its fields, refused at degree or at a row of entries, whose
    keys are checked against src and dst when they are given."""
    return (_int(rec.get("degree", 0), "degree"),
            entries_from_json(rec.get("entries", []), "entries", src, dst))


def element_from_record(rec: dict, src: GradedSpace,
                        dst: GradedSpace) -> GradedMap:
    degree, cols = element_entries(rec, src, dst)
    return map_from_columns(cols, "entries", src, dst, degree,
                            name=rec.get("name", ""))


# -- paths and certificates -------------------------------------------------

def _parts_to_json(parts: dict) -> list:
    return [[k, gmap_to_json(f)] for k, f in sorted(parts.items())]


def _parts_from_json(rows, where: str, conv, degree: int,
                     bound: int) -> dict:
    """The parts t^power of a path with polynomial bound bound; a nonzero
    part is refused at its row unless 0 <= power <= bound."""
    parts = {}
    for loc, power, entries in _int_rows(rows, where,
                                         "path parts are [power, entries]"):
        cols = entries_from_json(entries, loc, conv.C.space, conv.L.space)
        if cols and not 0 <= power <= bound:
            raise ModelFileError(loc, f"power {power} is outside 0..{bound}")
        parts[power] = map_from_columns(cols, loc, conv.C.space,
                                        conv.L.space, degree)
    return parts


def path_to_json(path: GaugePath) -> dict:
    return {"poly_bound": path.poly_bound,
            "p_parts": _parts_to_json(path.p_parts),
            "q_parts": _parts_to_json(path.q_parts)}


def path_from_json(rec: dict, conv, where: str = "path") -> GaugePath:
    bound = _int(_expect(rec, dict, where).get("poly_bound"),
                 f"{where}.poly_bound")
    if bound < 0:
        raise ModelFileError(f"{where}.poly_bound",
                             f"expected a nonnegative integer, got {bound}")
    p, q = (_parts_from_json(rec.get(f"{kind}_parts", []),
                             f"{where}.{kind}_parts", conv, degree, bound)
            for kind, degree in (("p", 0), ("q", 1)))
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
    return {d: _int(n, loc) for loc, d, n in _int_rows(
        rows, where, "betti rows are [deg, dim]")}


def _algebra_records(conv) -> tuple[dict, dict]:
    """The records of C and L of conv, built once per algebra and kept in
    conv.algebra_memo: every certificate record over conv shares them, so
    they are only read."""
    memo = conv.algebra_memo
    if "records" not in memo:
        memo["records"] = (cdgc_to_record(conv.C), linfty_to_record(conv.L))
    return memo["records"]


def certificate_to_record(cert) -> dict:
    rec = _header("certificate", "")
    rec["outcome"] = cert.outcome
    if isinstance(cert, Unknown):
        rec["reason"] = cert.reason
        return rec
    rec["C"], rec["L"] = _algebra_records(cert.conv)
    rec["x"] = gmap_to_json(cert.x)
    rec["y"] = gmap_to_json(cert.y)
    if isinstance(cert, Equal):
        rec["paths"] = [path_to_json(p) for p in cert.paths]
    elif isinstance(cert, Distinct):
        rec["witness_kind"] = cert.kind
        if cert.kind == "rigid-stage":
            rec["witness"] = {"degree": cert.witness["degree"]}
        elif cert.kind == "twisted-betti":
            rec["witness"] = {k: _betti_to_json(cert.witness[k])
                              for k in ("betti_x", "betti_y")}
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
    x, y = (map_from_columns(
        entries_from_json(rec.get(k, []), k, conv.C.space, conv.L.space), k,
        conv.C.space, conv.L.space, 0) for k in "xy")
    if outcome == "equal":
        paths = [path_from_json(p, conv, f"paths[{i}]") for i, p in
                 enumerate(_expect(rec.get("paths", []), list, "paths"))]
        return Equal(conv, x, y, tuple(paths))
    if outcome == "distinct":
        kind = rec.get("witness_kind", "")
        wit = _expect(rec.get("witness", {}), dict, "witness")
        if kind == "rigid-stage":
            wit = {"degree": _int(wit.get("degree"), "witness.degree")}
        elif kind == "twisted-betti":
            wit = {k: _betti_from_json(wit.get(k, []), f"witness.{k}")
                   for k in ("betti_x", "betti_y")}
        return Distinct(conv, x, y, kind, wit)
    raise ModelFileError("outcome", f"unknown certificate outcome {outcome!r}")


# -- top level --------------------------------------------------------------

# the record kinds, each with its loader; elements (mc_element, map) have
# none and stay as records: they need their endpoint spaces
_LOADERS = {
    "cdgc": cdgc_from_record,
    "linfty": linfty_from_record,
    "quillen": quillen_from_record,
    "mc_element": None,
    "map": None,
    "gauge_path": gauge_path_from_record,
    "certificate": certificate_from_record,
}


def record_to_object(rec: dict):
    """Decode a parsed record into the matching domain object, or return
    it as it is if it is an element record."""
    kind = rec.get("kind")
    if not isinstance(kind, str) or kind not in _LOADERS:
        raise ModelFileError("kind", f"unknown kind {kind!r}")
    load = _LOADERS[kind]
    return rec if load is None else load(rec)


def dumps_record(rec: dict) -> str:
    """The text of rec in a file: json.dumps of rec with sorted keys and
    an indent of 2, plus a newline (see the module docstring)."""
    return _dump(rec, "\n", {}) + "\n"


_escape = json.encoder.encode_basestring_ascii


def _dump(o, nl: str, memo: dict) -> str:
    """The text of o with its lines after the first indented by nl, a
    newline and the indentation.  memo holds the text of each container
    already written at that indentation, by (id, nl); a container's text
    is built with one join."""
    if isinstance(o, str):
        return _escape(o)
    if isinstance(o, (list, tuple, dict)):
        mk = (id(o), nl)
        text = memo.get(mk)
        if text is not None:
            return text
        inner = nl + "  "
        if not o:
            text = "{}" if isinstance(o, dict) else "[]"
        elif isinstance(o, dict):
            parts = [_dump_key(k) + ": " + _dump(v, inner, memo)
                     for k, v in sorted(o.items())]
            text = f"{{{inner}{(',' + inner).join(parts)}{nl}}}"
        else:
            parts = [_dump(x, inner, memo) for x in o]
            text = f"[{inner}{(',' + inner).join(parts)}{nl}]"
        memo[mk] = text
        return text
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    raise TypeError(f"Object of type {type(o).__name__} "
                    "is not JSON serializable")


def _dump_key(k) -> str:
    """An object key as json writes it: a str key as itself, an int, bool
    or None key as its text in quotes."""
    if isinstance(k, str):
        return _escape(k)
    if k is None or isinstance(k, int):
        return f'"{_dump(k, "", {})}"'
    raise TypeError("keys must be str, int, bool or None, "
                    f"not {type(k).__name__}")


def read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ModelFileError(path, exc.strerror or str(exc)) from None


def load_record(path: str, text: str | None = None) -> dict:
    """The record in the file at path; text is the file's contents, for a
    caller that has read them (read_text)."""
    if text is None:
        text = read_text(path)
    try:
        rec = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFileError(path, f"not valid JSON: {exc}") from None
    if not isinstance(rec, dict):
        raise ModelFileError(path, "top level must be an object")
    version = rec.get("format_version")
    if version != FORMAT_VERSION:
        raise ModelFileError(f"{path}.format_version",
                             f"expected {FORMAT_VERSION}, got {version!r}")
    return rec
