"""The command line contract: golden outputs, --out, the window
precedence, and refusals of requests that cannot give a trustworthy
answer.

Every golden call runs convmc.cli.main in-process on bundled models and
pins its exit code and the sha256 of its standard output, so a change of
any output byte fails here.  Element, map, model and certificate files
are written as literal dicts, which pins the file format independently
of any writer in the package.  All golden calls are valid requests: exit
1 and exit 3 are answers (a nonzero residual, distinct maps, an
undecided certificate), not errors.  Refusals with exit 2 are tested
after the golden table.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from convmc import cli, gauge, hopf, modelio
from convmc.barcobar import bar
from convmc.convolution import ConvolutionAlgebra
from convmc.graded import ChainComplex
from convmc.library import builtin_model, pi_s2
from convmc.models import JacobiError
from convmc.transfer import TransferredLInfinity


def _element(kind, name, entries, source, target):
    return {"format_version": 1, "kind": kind, "name": name, "degree": 0,
            "entries": entries, "source": source, "target": target}


# bar(pi(S2)) at window 7
BAR_PI_S2 = modelio.cdgc_to_record(bar(pi_s2(), 7))

RECORDS = {
    # S3 -> pi(S2): the fundamental class to the Whitehead square
    "whitehead": _element("mc_element", "whitehead",
                          [["a", "y", "1/1"]], "S3", "pi(S2)"),
    # CP2 -> pi(S2): the bottom class to pi_2; the coproduct of the top
    # class leaves the Whitehead square as residual
    "cp2_bottom": _element("mc_element", "cp2_bottom",
                           [["a", "x", "1/1"]], "CP2", "pi(S2)"),
    # S3 -> loop homology of S2: k times the self-bracket class (Hopf)
    "eta1": _element("mc_element", "eta1",
                     [["a", "H3_0", "1/1"]], "S3", "loops(S2)"),
    "eta2": _element("mc_element", "eta2",
                     [["a", "H3_0", "2/1"]], "S3", "loops(S2)"),
    # CP2 -> loop homology of a target with a class H2_0: the bottom class
    # to it, obstructed into S2 and the identity's element into CP2
    "cp2_h2": _element("mc_element", "cp2_h2",
                       [["a", "H2_0", "1/1"]], "CP2", "loops"),
    # CP2 -> loop homology of any target: the zero element
    "cp2_zero": _element("mc_element", "cp2_zero", [], "CP2", "loops"),
    # self-maps of CP2: the identity and the conjugation a |-> -a
    "cp2_id": _element("map", "id", [["a", "a", "1/1"], ["b", "b", "1/1"]],
                       "CP2", "CP2"),
    "cp2_conj": _element("map", "conj",
                         [["a", "a", "-1/1"], ["b", "b", "1/1"]],
                         "CP2", "CP2"),
    "cp2_model": {"format_version": 1, "kind": "cdgc", "name": "CP2",
                  "basis": [{"name": "a", "degree": 2},
                            {"name": "b", "degree": 4}],
                  "d": [], "delta": [["b", "a", "a", "1/1"]]},
    "pi_s2_model": {"format_version": 1, "kind": "linfty", "name": "pi(S2)",
                    "basis": [{"name": "x", "degree": 2},
                              {"name": "y", "degree": 3}],
                    "arities": [1, 2],
                    "brackets": [[2, ["x", "x"], "y", "1/1"]]},
    "undecided": {"format_version": 1, "kind": "certificate", "name": "",
                  "outcome": "unknown", "reason": "no normal form"},
    # a2, c3, b5 with delta(b) = a (x) c and not its flip: not
    # cocommutative, so not a coalgebra the convolution brackets accept
    "one_sided": {"format_version": 1, "kind": "cdgc", "name": "B",
                  "basis": [{"name": "a", "degree": 2},
                            {"name": "c", "degree": 3},
                            {"name": "b", "degree": 5}],
                  "d": [], "delta": [["b", "a", "c", "1/1"]]},
    "xyz_model": {"format_version": 1, "kind": "linfty", "name": "T",
                  "basis": [{"name": "x", "degree": 2},
                            {"name": "y", "degree": 3},
                            {"name": "z", "degree": 4}],
                  "arities": [1, 2],
                  "brackets": [[2, ["x", "y"], "z", "1/1"]]},
    "one_sided_tau": _element("mc_element", "tau", [["a", "x", "1/1"]],
                              "B", "T"),
    # S2 v S2 v S2: its cobar is the whole free Lie algebra on three
    # letters of degree 1
    "s2_wedge3": {"format_version": 1, "kind": "cdgc", "name": "S2vS2vS2",
                  "basis": [{"name": "a", "degree": 2},
                            {"name": "b", "degree": 2},
                            {"name": "c", "degree": 2}],
                  "d": [], "delta": []},
    "bar_pi_s2": BAR_PI_S2,
}

# (argv, exit code, sha256 of stdout); "@name" is the file of RECORDS[name]
GOLDEN = [
    (["validate", "@cp2_model"], 0,
     "6092198d37a786ac140e21989a467b8c5cdbdd3ecf89f18486298b64a5fb4fe5"),
    (["validate", "@pi_s2_model"], 0,
     "364155e70fc715174ab0364550e47dac42b18183285a212bcb51066c8c9ab134"),
    (["validate", "@whitehead"], 0,
     "ef98161136fb2a924c361a35cc24f4daba10cec9faeb375048f0b0e8ad59119a"),
    (["validate", "@cp2_id"], 0,
     "462f824682d5219f5be7559c6c92e859fbd02809f427cc09b885a46baa99a66c"),
    (["validate", "@undecided"], 1,
     "933bf468a2295b528efa654ab515b9b232c72e8e087850c725cf7f1c72b5b19a"),
    (["homology", "s2"], 0,
     "3f405d83d59cc21f02c2dc6d8e02fad0dfa9c1070cbfe9189c1ed2d8e21ed5cf"),
    (["homology", "cp2"], 0,
     "cfe4d135fce50dea82c87c58e2bd167a5bebd31916a21c8846d4412d30139b29"),
    (["homology", "pi_s2", "--degree", "3"], 0,
     "4e7311824c53e3df8d119245791a09fb8119c723245d126e5f8132f1aded02af"),
    (["homology", "@cp2_model"], 0,
     "cfe4d135fce50dea82c87c58e2bd167a5bebd31916a21c8846d4412d30139b29"),
    (["cobar", "cp2"], 0,
     "c7cf0f0f4df406fabc8328aeed3648dc603778f2ffead0eec5710e34c7e0fa06"),
    (["cobar", "s2vs3", "--window", "6"], 0,
     "4bca550b0484b79e0578b6e4714a04f07722e65c6a71fb71916921b4dc8e30c7"),
    (["cobar", "s2xs2", "--window", "5"], 0,
     "215779f83bd3147e9f55a3899e7f6ac54c1a5ea37f03909d06bd0a9e389e9429"),
    # the free Lie basis scan on three letters through degree 7
    (["cobar", "@s2_wedge3", "--window", "8"], 0,
     "3de166632619b1d70171b3ae9477090301348f2115366a54d9918fe5e9f6be28"),
    (["bar", "pi_s2"], 0,
     "952a9964cff91d66f4dda060579deee8f6d54c4b2182213d0d7ec1f8f9086621"),
    (["bar", "ab23", "--window", "5"], 0,
     "6a66f8516e7df72c5b277d99c0cf6eb6ad1dd774878fc3ec8e32973983665964"),
    (["transfer", "s2"], 0,
     "b0cc7a6da928a89e986901f22c65b0c8b013dbc1d829b2d1b3c8b7f27a1956df"),
    (["transfer", "cp2", "--window", "6"], 0,
     "dee289c9c5f57738ed83c323d363d3ad94f61ac8aeacf90a9aeb83666a9d25ba"),
    (["transfer", "s2vs3", "--window", "6", "--arity", "2"], 0,
     "3072ee838fe63d862456bafbdfff41de311ab5a57285cd4765a9b9982e48f978"),
    # h != 0 here, and at arity 4 the lifted homotopy has 4 2^3 terms per
    # word against 4 4! orderings
    (["transfer", "cp2", "--window", "8", "--arity", "4"], 0,
     "8e196575ba4d795780637a860ef296506581a521f1b4d649bd07f7d19ac47257"),
    # the largest arity pinned here, and the benchmark's transfer call
    (["transfer", "cp2", "--window", "8", "--arity", "6"], 0,
     "664345258a3e64d816a213a30ca0aea03ae7dfdd246fbb73e14533a8c5300d4b"),
    (["transfer", "s2vs3", "--window", "11"], 0,
     "ed1e8edc0485fed6bd7aa53a3814ed03f4c8dd82648904571fe0d4c61a7d5be4"),
    # h != 0 here too, on a larger cobar complex than cp2's
    (["transfer", "s2xs2", "--window", "9"], 0,
     "b6dfdde289c9515feca834486cffebb97c90b30a420b0f55d91ec7d126c76da7"),
    (["transfer", "s2xs2", "--window", "10"], 0,
     "3f4e1cf8a533b534e9429885e161b2237897426f1a99ccee6b86fe23ee4a4245"),
    (["components", "s3", "pi_s2"], 0,
     "7e051403354a63c6a9756314c52eb6f9207bad2353a5e6ded7777665e8a29d68"),
    (["components", "s2", "pi_s2", "--samples", "0,1"], 0,
     "e6f0d0480b5f5c62d8abae08e4bc659be4b4068aff6e5a57f4e2a6e4160c258b"),
    (["components", "s2", "pi_s2", "--param", '[["a", "x"]]'], 0,
     "b87fa0b6019e48a9f43e7a052167ce6dbf857a32ecf6013054b40ec0305d13bc"),
    (["components", "cp2", "pi_s2"], 0,
     "7bea29f8d9a4b2ddcdd08a71687a358078250ef7b4e1164049fb5252b296a536"),
    # 351 decisions: rigidity sweeps, 51 staged normal forms and 24
    # twisted Betti comparisons, which leave 24 pairs undecided
    (["components", "s2xs2", "@xyz_model"], 0,
     "c1318a16a721f9bcdef84a37a53479274b30f7cfba388ce3857004ae46494bc9"),
    # the only pinned call that runs gauge_flow: two flows in the abelian
    # target, one verified class; candidates 1 and 2 both merge into it
    (["components", "s2", "ab23"], 0,
     "ea1b888c71bc02e086d39d697d4082cae3d683bfacae2d37fc2c9fde14bbcef3"),
    (["mc-check", "s3", "pi_s2", "@whitehead"], 0,
     "4ee5ed81d5b8f755e5093539fbb177e79213eb2eda1864ae260a79043533348c"),
    (["mc-check", "cp2", "pi_s2", "@cp2_bottom"], 1,
     "bdb6286da283f6200234ce6960504548608e4fe896e5f8eb213b66ba010d405f"),
    (["twist", "s3", "pi_s2", "@whitehead"], 0,
     "cdf871bc1facfd2dba43f7eafbdaafb54ab99b9a36c9484b71ea177f0d2f7a1e"),
    (["pi", "s3", "pi_s2", "@whitehead", "--n", "1"], 0,
     "d5b3c666d89419e17a0c91e8c3afaf8c53e495969a4da7b606d7cbd64d7a72d4"),
    (["pi", "s3", "pi_s2", "@whitehead", "--n", "3"], 0,
     "1d9c8782898929809b9426f144aeb3dd79274a42a5cf0fb00be73533fc2482cd"),
    (["hopf", "s3", "s2", "@eta1", "--window", "4"], 0,
     "e186990b6192db669fe7a243e19d4c755ae91584a21ed821b24acf908603d6ef"),
    (["hopf", "s3", "s2", "@eta1", "--window", "5"], 0,
     "ea8636cc83a0a2521038564c9683929e4c851aac818415646b2d3df2ad08a4cc"),
    (["hopf", "cp2", "cp2", "@cp2_id"], 0,
     "5938303170df7755b43ccb97f3f8a983283095c30f9b3c5418d792ee9d435045"),
    (["homotopic", "s3", "s2", "@eta1", "@eta1", "--window", "5"], 0,
     "b0cfa6c379e5d4a6631c16a8f8d1892205fe4e4e431080bdfa84e7812de4355c"),
    (["homotopic", "s3", "s2", "@eta1", "@eta2", "--window", "4"], 1,
     "f1faf2e99e79580ad4d303298d71187d51aaf40cf7de294aae37aea1a2a67d78"),
    (["homotopic", "s3", "s2", "@eta1", "@eta2", "--window", "5"], 1,
     "5a671e8dc8c4273eac518a296457be1a7a500263f5e66812813de03373c8094d"),
    (["gauge-check", "@undecided"], 3,
     "f31faa3411957c97958e34a33dd9ec103d44493dcce8fed494f1cc943dbfd086"),
]

# homotopic on two maps, then validate and gauge-check on its certificate
# and on the first gauge path of that certificate, when there is one:
# (f, g, [exit code, sha256] for homotopic, validate, gauge-check, and the
# two path checks)
CERTIFICATES = [
    ("cp2_id", "cp2_id", [
      [0, "1bd12e911b01e7e7caabc0e41643bc081acf8a734f84b93c0a7d07ff1f57c1d4"],
      [0, "753f240297ed8b69221ad81f252ecdc207961657d0b4d9bc902a3cacbb035658"],
      [0, "de67dff5833b4c5ac77988493133cfbee3007c5f0a2fd804871d957f1c6974d6"],
      [0, "8a09faba2e5fca836289c23466ff26cf3eb646977226a3c870db925c644f60b8"],
      [0, "f12577dac8d8ff84d07b36c6393b6b283f09a6ccd67afeb0e96ac9e9f1f27b93"],
    ]),
    ("cp2_id", "cp2_conj", [
      [1, "e85555717fdc07a1d9932814540e36e6d10e956c8cc5785791334f0d104d0e67"],
      [0, "753f240297ed8b69221ad81f252ecdc207961657d0b4d9bc902a3cacbb035658"],
      [0, "9dddd2561a4aeec550c4aace3fe8342ef8b8df062fbdb0643cd06ba388669830"],
    ]),
]


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(autouse=True)
def no_window_env(monkeypatch):
    monkeypatch.delenv(cli.WINDOW_ENV, raising=False)


@pytest.fixture
def files(tmp_path):
    for name, rec in RECORDS.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(rec))
    return tmp_path


def run(capsys, argv, where=None):
    argv = [str(where / f"{a[1:]}.json") if a.startswith("@") else a
            for a in argv]
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("argv,code,digest", GOLDEN,
                         ids=[" ".join(g[0]) for g in GOLDEN])
def test_golden(files, capsys, argv, code, digest):
    got, out, err = run(capsys, argv, files)
    assert (got, err) == (code, "")
    assert sha(out) == digest


def test_certificates_replay(files, capsys):
    for f, g, pins in CERTIFICATES:
        code, out, _ = run(capsys, ["homotopic", "cp2", "cp2",
                                    f"@{f}", f"@{g}"], files)
        seen = [[code, sha(out)]]
        report = json.loads(out)
        cert = files / "cert.json"
        cert.write_text(json.dumps(report["certificate"]))
        calls = [["validate", str(cert)], ["gauge-check", str(cert)]]
        paths = report["certificate"].get("paths", [])
        if paths:
            path = files / "path.json"
            path.write_text(json.dumps({
                "format_version": 1, "kind": "gauge_path", "name": "",
                "C": report["certificate"]["C"],
                "L": report["certificate"]["L"], "path": paths[0]}))
            calls += [["validate", str(path)], ["gauge-check", str(path)]]
        for argv in calls:
            code, out, err = run(capsys, argv)
            assert err == ""
            seen.append([code, sha(out)])
        assert seen == pins, (f, g)


def test_out_writes_the_same_bytes(tmp_path, capsys):
    _, printed, _ = run(capsys, ["transfer", "cp2", "--window", "6"])
    target = tmp_path / "report.json"
    code, out, err = run(capsys, ["transfer", "cp2", "--window", "6",
                                  "--out", str(target)])
    assert (code, out, err) == (0, "", "")
    assert target.read_text(encoding="utf-8") == printed
    # the written model is a valid input again
    quillen = tmp_path / "cobar.json"
    assert run(capsys, ["cobar", "cp2", "--out", str(quillen)])[:2] == (0, "")
    code, out, _ = run(capsys, ["validate", str(quillen)])
    assert code == 0 and json.loads(out)["checked"] == "quillen"


def test_window_flag_beats_environment(capsys, monkeypatch):
    _, at5, _ = run(capsys, ["cobar", "cp2", "--window", "5"])
    _, at7, _ = run(capsys, ["cobar", "cp2", "--window", "7"])
    assert at5 != at7
    monkeypatch.setenv(cli.WINDOW_ENV, "7")
    assert run(capsys, ["cobar", "cp2"])[1] == at7
    assert run(capsys, ["cobar", "cp2", "--window", "5"])[1] == at5


# -- refusals -----------------------------------------------------------------

def refusal(capsys, argv, where=None):
    code, out, err = run(capsys, argv, where)
    assert (code, out) == (2, "")
    return json.loads(err)


# -- the command line grammar ---------------------------------------------------

def test_an_option_is_read_in_either_form_anywhere_after_the_command(capsys):
    _, spaced, _ = run(capsys, ["transfer", "cp2", "--window", "6",
                                "--arity", "2"])
    for argv in (["transfer", "cp2", "--window=6", "--arity=2"],
                 ["transfer", "--arity", "2", "cp2", "--window=6"]):
        assert run(capsys, argv) == (0, spaced, "")


USAGE_ERRORS = [
    ([], "command", "no command; expected one of validate, homology, "),
    (["cobars", "s2"], "command", "unknown command 'cobars'"),
    (["pi", "s2", "pi_s2"], "tau", "2 arguments to pi C L tau --n int"),
    (["cobar", "s2", "s3"], "command", "2 arguments to cobar file "),
    (["transfer", "s2vs3", "--window", "abc"], "--window",
     "not an integer: 'abc'"),
    (["transfer", "s2vs3", "--window"], "--window", "expected a value"),
    (["transfer", "s2vs3", "--win", "3"], "--win",
     "not an option of transfer file [--window int]"),
    (["transfer", "s2vs3", "--windows=3"], "--windows", "not an option"),
    (["cobar", "s2", "--arity", "2"], "--arity", "not an option of cobar"),
    (["homology", "s2", "-d", "2"], "-d", "not an option of homology"),
    (["transfer", "s2vs3", "--window", "6", "--window=7"], "--window",
     "given more than once"),
    (["pi", "s2", "pi_s2", "tau"], "--n", "required by pi C L tau --n int"),
]


@pytest.mark.parametrize("argv,where,message", USAGE_ERRORS,
                         ids=[" ".join(e[0]) or "no command"
                              for e in USAGE_ERRORS])
def test_a_usage_error_is_a_json_refusal(capsys, argv, where, message):
    # main returns 2 with the error on stderr; it never raises SystemExit
    err = refusal(capsys, argv)
    assert err["where"] == where
    assert err["error"].startswith(f"{where}: {message}")


def test_help_prints_one_line_per_command_of_the_table(capsys):
    handlers = sorted(name for name in vars(cli) if name.startswith("cmd_"))
    assert sorted(entry[0].__name__ for entry in cli.COMMANDS.values()) \
        == handlers
    for flag in ("-h", "--help"):
        code, out, err = run(capsys, [flag])
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert [line.split()[1] for line in lines] == list(cli.COMMANDS)
        for line, (_, text, _, _) in zip(lines, cli.COMMANDS.values()):
            assert line.endswith(f"  {text}")
    assert run(capsys, ["pi", "s2", "--help"]) == (
        0, "convmc pi C L tau --n int [--out str]  homotopy groups of a "
        "component\n", "")


QUILLEN = {"format_version": 1, "kind": "quillen", "name": "Q",
           "letters": [{"name": "a", "degree": 1}], "deg_max": 3,
           "delta": []}

# L(a2, b2, c7) with delta(c) = [a, [a, b]] = -[[a, b], a], given on the
# letters alone: the loader extends it as a derivation
LABC = {"format_version": 1, "kind": "quillen", "name": "Labc",
        "letters": [{"name": "a", "degree": 2}, {"name": "b", "degree": 2},
                    {"name": "c", "degree": 7}], "deg_max": 9,
        "delta": [["c", ["br", ["br", "a", "b"], "a"], "-1/1"]]}

LINFTY_L1_SQUARES = {"format_version": 1, "kind": "linfty", "name": "L",
                     "basis": [{"name": "a", "degree": 1},
                               {"name": "b", "degree": 2},
                               {"name": "c", "degree": 3}],
                     "brackets": [[1, ["b"], "a", "1/1"],
                                  [1, ["c"], "b", "1/1"]]}

# (content of @bad, argv, where, CONVMC_WINDOW); content is a record or
# raw text, and "@name" in argv and where is the file of name
REFUSALS = {
    "no-such-model": (None, ["homology", "nosuch"], "nosuch", None),
    "wrong-model-kind": (None, ["cobar", "pi_s2"], "pi_s2", None),
    "element-of-another-kind": (RECORDS["cp2_model"],
                                ["mc-check", "s3", "pi_s2", "@bad"], "@bad",
                                None),
    "window-env": (None, ["cobar", "cp2"], "CONVMC_WINDOW", "x"),
    "pi-n-0": (None, ["pi", "s3", "pi_s2", "@whitehead", "--n", "0"], "--n",
               None),
    "gauge-check-model": (None, ["gauge-check", "@cp2_model"],
                          "@cp2_model", None),
    "param-not-json": (None, ["components", "s2", "pi_s2", "--param",
                              "[nope"], "--param", None),
    "not-json": ("{nope", ["validate", "@bad"], "@bad", None),
    "not-an-object": ("[1]", ["validate", "@bad"], "@bad", None),
    "format-version": ({**RECORDS["cp2_model"], "format_version": 2},
                       ["validate", "@bad"], "@bad.format_version", None),
    "unknown-kind": ({**RECORDS["cp2_model"], "kind": "nope"},
                     ["validate", "@bad"], "kind", None),
    "rational-not-string": ({**RECORDS["cp2_model"], "d": [["b", "a", 1]]},
                            ["validate", "@bad"], "d[0]", None),
    "bad-rational": ({**RECORDS["cp2_model"], "d": [["b", "a", "1/0"]]},
                     ["validate", "@bad"], "d[0]", None),
    "undecodable-key": ({**RECORDS["cp2_model"],
                         "d": [[{"k": 1}, "a", "1/1"]]},
                        ["validate", "@bad"], "d[0]", None),
    "basis-row-fields": ({**RECORDS["cp2_model"], "basis": [{"name": "a"}]},
                         ["validate", "@bad"], "basis[0]", None),
    "basis-degree": ({**RECORDS["cp2_model"],
                      "basis": [{"name": "a", "degree": "2"}]},
                     ["validate", "@bad"], "basis[0]", None),
    "matrix-row": ({**RECORDS["cp2_model"], "d": [["b", "a"]]},
                   ["validate", "@bad"], "d[0]", None),
    "coproduct-row": ({**RECORDS["cp2_model"], "delta": [["b", "a", "1/1"]]},
                      ["validate", "@bad"], "delta[0]", None),
    "bracket-row": ({**RECORDS["pi_s2_model"],
                     "brackets": [[2, "x", "y", "1/1"]]},
                    ["validate", "@bad"], "brackets[0]", None),
    "word-length": ({**RECORDS["pi_s2_model"],
                     "brackets": [[3, ["x", "x"], "y", "1/1"]]},
                    ["validate", "@bad"], "brackets[0]", None),
    "arities": ({**RECORDS["pi_s2_model"], "arities": "12"},
                ["validate", "@bad"], "arities", None),
    # max_arity reads the list, so an arity below 1 or a bracket of an
    # arity the list omits would drop that bracket from the convolution
    "arities-below-one": ({**RECORDS["pi_s2_model"], "arities": [0]},
                          ["validate", "@bad"], "arities", None),
    "arities-omit-bracket": ({**RECORDS["pi_s2_model"], "arities": [1]},
                             ["components", "cp2", "@bad"], "brackets[0]",
                             None),
    "quillen-deg-max": ({**QUILLEN, "deg_max": "3"}, ["validate", "@bad"],
                        "deg_max", None),
    # below the lowest letter degree the model would be empty
    "quillen-deg-max-below-letters": ({**QUILLEN, "deg_max": 0},
                                      ["components", "@bad", "pi_s2"],
                                      "deg_max", None),
    # letters a1, b2 through degree 200 pass freelie.BASIS_CAP
    "quillen-deg-max-cap": ({**QUILLEN, "letters": [
        {"name": "a", "degree": 1}, {"name": "b", "degree": 2}],
        "deg_max": 200}, ["validate", "@bad"], "deg_max", None),
    "quillen-delta-source": ({**QUILLEN, "delta": [["zz", "a", "1/1"]]},
                             ["validate", "@bad"], "delta[0]", None),
    "quillen-delta-target": ({**QUILLEN, "delta": [["a", "zz", "1/1"]]},
                             ["validate", "@bad"], "delta[0]", None),
    # delta[a, c] lies in the letter content a a a b, not a a b b
    "quillen-delta-not-derivation": (
        {**LABC, "delta": LABC["delta"] + [
            [["br", "a", "c"],
             ["br", ["br", ["br", "a", "b"], "a"], "b"], "1/1"]]},
        ["validate", "@bad"], "delta", None),
    # an element that is not Maurer-Cartan is refused at its argument
    "hopf-map-not-mc": (RECORDS["cp2_h2"], ["hopf", "cp2", "s2", "@bad"],
                        "@bad", None),
    # the identity of bar(pi(S2)) is a coalgebra morphism, but its pushed
    # element leaves a residual on (x, x): refused at the map argument
    "hopf-push-not-mc": (_element("map", "id", [
        [b["name"], b["name"], "1/1"] for b in BAR_PI_S2["basis"]],
        BAR_PI_S2["name"], BAR_PI_S2["name"]),
        ["hopf", "@bar_pi_s2", "@bar_pi_s2", "@bad", "--window", "8"],
        "@bad", None),
    "homotopic-f-not-mc": (RECORDS["cp2_h2"],
                           ["homotopic", "cp2", "s2", "@bad", "@cp2_zero"],
                           "@bad", None),
    "homotopic-g-not-mc": (RECORDS["cp2_h2"],
                           ["homotopic", "cp2", "s2", "@cp2_zero", "@bad"],
                           "@bad", None),
    "element-degree": ({**RECORDS["whitehead"], "degree": "0"},
                       ["mc-check", "s3", "pi_s2", "@bad"], "degree", None),
    "validate-element-entries": ({**RECORDS["whitehead"], "entries": 5},
                                 ["validate", "@bad"], "entries", None),
    "validate-element-degree": ({**RECORDS["whitehead"], "degree": "0"},
                                ["validate", "@bad"], "degree", None),
    "element-bool-degree": ({**RECORDS["whitehead"], "degree": True},
                            ["mc-check", "s3", "pi_s2", "@bad"], "degree",
                            None),
    "validate-element-row": ({**RECORDS["whitehead"],
                              "entries": [["a", "x"]]},
                             ["validate", "@bad"], "entries[0]", None),
    # a key outside the source basis is refused at its row of entries
    "element-entries-key": ({**RECORDS["whitehead"],
                             "entries": [["a", "y", "1/1"],
                                         ["zz", "y", "1/1"]]},
                            ["mc-check", "s3", "pi_s2", "@bad"], "entries[1]",
                            None),
    # a later row would silently replace the earlier one
    "delta-repeated-row": ({**RECORDS["cp2_model"],
                            "delta": [["b", "a", "a", "1/1"],
                                      ["b", "a", "a", "5/1"]]},
                           ["validate", "@bad"], "delta[1]", None),
    "d-repeated-row": ({**RECORDS["cp2_model"],
                        "d": [["b", "a", "1/1"], ["b", "a", "1/1"]]},
                       ["validate", "@bad"], "d[1]", None),
    "bracket-repeated-row": ({**RECORDS["pi_s2_model"],
                              "brackets": [[2, ["x", "x"], "y", "1/1"],
                                           [2, ["x", "x"], "y", "1/1"]]},
                             ["validate", "@bad"], "brackets[1]", None),
    # a key outside the basis is refused at its row
    "delta-unknown-key": ({**RECORDS["cp2_model"],
                           "delta": [["b", "zz", "zz", "1/1"]]},
                          ["validate", "@bad"], "delta[0]", None),
    "d-unknown-key": ({**RECORDS["cp2_model"], "d": [["zz", "a", "1/1"]]},
                      ["validate", "@bad"], "d[0]", None),
    # a repeated basis name is refused at the later row
    "cdgc-repeated-basis": ({**RECORDS["cp2_model"], "delta": [],
                             "basis": [{"name": "a", "degree": 2},
                                       {"name": "a", "degree": 2}]},
                            ["validate", "@bad"], "basis[1]", None),
    "linfty-repeated-basis": ({**RECORDS["pi_s2_model"], "brackets": [],
                               "basis": [{"name": "x", "degree": 2},
                                         {"name": "x", "degree": 3}]},
                              ["validate", "@bad"], "basis[1]", None),
    "quillen-repeated-letter": ({**QUILLEN, "letters": [
        {"name": "a", "degree": 1}, {"name": "b", "degree": 1},
        {"name": "a", "degree": 1}]}, ["validate", "@bad"], "letters[2]",
        None),
    # JSON true is not the integer 1
    "basis-bool-degree": ({**RECORDS["cp2_model"], "delta": [],
                           "basis": [{"name": "a", "degree": True},
                                     {"name": "b", "degree": 4}]},
                          ["validate", "@bad"], "basis[0]", None),
    "quillen-bool-deg-max": ({**QUILLEN, "deg_max": True},
                             ["validate", "@bad"], "deg_max", None),
    "bracket-bool-arity": ({**RECORDS["pi_s2_model"],
                            "brackets": [[True, ["y"], "x", "1/1"]]},
                           ["validate", "@bad"], "brackets[0]", None),
    "arities-bool": ({**RECORDS["pi_s2_model"], "arities": [True, 2]},
                     ["validate", "@bad"], "arities", None),
    "kind-not-a-string": ({**RECORDS["cp2_model"], "kind": []},
                          ["validate", "@bad"], "kind", None),
    # both element kinds have degree 0: any other degree is refused where
    # the element is read
    "element-degree-one": ({**RECORDS["whitehead"], "degree": 1},
                           ["mc-check", "s3", "pi_s2", "@bad"], "degree",
                           None),
    "validate-element-degree-one": ({**RECORDS["whitehead"], "degree": 1},
                                    ["validate", "@bad"], "degree", None),
    "map-degree-one": ({**RECORDS["cp2_id"], "degree": -1},
                       ["hopf", "cp2", "cp2", "@bad"], "degree", None),
    # a -> a and b -> 0 is not a coalgebra map of CP2: refused at its
    # argument
    "hopf-map-not-a-morphism": (_element("map", "bad", [["a", "a", "1/1"]],
                                         "CP2", "CP2"),
                                ["hopf", "cp2", "cp2", "@bad"], "@bad", None),
    # delta(b) = a and delta(c) = b: delta does not square to zero, and
    # homology would print negative Betti numbers
    "quillen-delta-squares": ({**QUILLEN, "letters": [
        {"name": "a", "degree": 1}, {"name": "b", "degree": 2},
        {"name": "c", "degree": 3}], "deg_max": 3,
        "delta": [["b", "a", "1/1"], ["c", "b", "1/1"]]},
        ["homology", "@bad"], "delta", None),
    # l1(b) = a and l1(c) = b: l1 does not square to zero
    "linfty-l1-squares": (LINFTY_L1_SQUARES, ["homology", "@bad"],
                          "brackets", None),
    "components-linfty-l1-squares": (LINFTY_L1_SQUARES,
                                     ["components", "s3", "@bad"],
                                     "brackets", None),
}


def _at(where, s: str) -> str:
    """s with a leading @name read as the file of name."""
    if not s.startswith("@"):
        return s
    name, dot, rest = s[1:].partition(".")
    return str(where / f"{name}.json") + dot + rest


@pytest.mark.parametrize("case", REFUSALS)
def test_refusals_name_where_the_input_breaks(files, capsys, monkeypatch,
                                              case):
    content, argv, where, env = REFUSALS[case]
    if content is not None:
        (files / "bad.json").write_text(
            content if isinstance(content, str) else json.dumps(content))
    if env is not None:
        monkeypatch.setenv(cli.WINDOW_ENV, env)
    assert refusal(capsys, argv, files)["where"] == _at(files, where)


def test_a_quillen_record_without_letters_is_valid(files, capsys):
    # no letter degree bounds deg_max from below
    (files / "empty.json").write_text(json.dumps(
        {**QUILLEN, "letters": [], "deg_max": -3}))
    code, out, _ = run(capsys, ["validate", "@empty"], files)
    assert (code, json.loads(out)["valid"]) == (0, True)


@pytest.mark.parametrize("argv", [
    ["twist", "cp2", "pi_s2", "@cp2_bottom"],
    ["pi", "cp2", "pi_s2", "@cp2_bottom", "--n", "1"]], ids=["twist", "pi"])
def test_twist_and_pi_refuse_an_element_that_is_not_maurer_cartan(
        files, capsys, argv):
    where = _at(files, "@cp2_bottom")
    assert refusal(capsys, argv, files) == {
        "where": where, "error": f"{where}: not a Maurer-Cartan element, "
                                 'residual [["b", "y", "1/1"]]'}
    # mc-check answers the same element, with the same residual rows
    code, out, err = run(capsys, ["mc-check", "cp2", "pi_s2", "@cp2_bottom"],
                         files)
    assert (code, err) == (1, "")
    assert json.loads(out)["residual"] == [["b", "y", "1/1"]]


@pytest.mark.parametrize("argv,code", [
    (["twist", "s3", "pi_s2", "@whitehead"], 0),
    (["twist", "cp2", "pi_s2", "@cp2_bottom"], 2)],
    ids=["answered", "refused"])
def test_twist_checks_its_element_once(files, capsys, monkeypatch, argv,
                                       code):
    # the record of the element argument is the only check: twist takes
    # it as it is
    checked = []
    mc_check = ConvolutionAlgebra.mc_check

    def counting(self, tau):
        checked.append(tau)
        return mc_check(self, tau)

    monkeypatch.setattr(ConvolutionAlgebra, "mc_check", counting)
    assert run(capsys, argv, files)[0] == code
    assert len(checked) == 1


@pytest.mark.parametrize("argv,code", [
    (["pi", "s3", "pi_s2", "@whitehead", "--n", "1"], 0),
    (["pi", "cp2", "pi_s2", "@cp2_bottom", "--n", "1"], 2)],
    ids=["answered", "refused"])
def test_pi_checks_its_element_once(files, capsys, monkeypatch, argv, code):
    # the record of the element argument is the only check: pi and its
    # twist take it as it is
    checked = _counted(monkeypatch, ConvolutionAlgebra, "mc_check")
    assert run(capsys, argv, files)[0] == code
    assert len(checked) == 1


@pytest.mark.parametrize("command", ["cobar", "transfer"])
def test_window_below_the_lowest_class_is_refused(capsys, monkeypatch,
                                                  command):
    # a window under degree 2 leaves the cobar model without generators:
    # an empty model, and an empty loop homology for transfer
    for window in ("-3", "1"):
        err = refusal(capsys, [command, "cp2", "--window", window])
        assert err["where"] == "--window"
        assert f"window {window} is below degree 2" in err["error"]
    monkeypatch.setenv(cli.WINDOW_ENV, "1")
    assert refusal(capsys, [command, "s2"])["where"] == "--window"
    # the lowest class itself is still in the window
    code, out, _ = run(capsys, [command, "s2", "--window", "2"])
    assert code == 0 and json.loads(out)["window"] == 2


def test_bar_window_below_the_carrier_is_refused(capsys):
    # pi(S2) sits in degrees 2 and 3: a smaller window leaves no word
    for window in ("0", "1"):
        err = refusal(capsys, ["bar", "pi_s2", "--window", window])
        assert err["where"] == "--window"
        assert f"window {window} is below degree 2" in err["error"]
    code, out, _ = run(capsys, ["bar", "pi_s2", "--window", "2"])
    assert code == 0
    assert json.loads(out)["basis"] == [{"degree": 2, "name": ["x"]}]


@pytest.mark.parametrize("argv", [["hopf", "s3", "s2", "@eta1"],
                                  ["homotopic", "s3", "s2", "@eta1", "@eta2"]],
                         ids=["hopf", "homotopic"])
def test_loop_model_window_below_the_target_is_refused(files, capsys, argv):
    # the loop model of S2 at window 1 has no generators, so the element
    # names a class that is missing: the window is what is wrong
    err = refusal(capsys, argv + ["--window", "1"], files)
    assert err["where"] == "--window"
    assert "window 1 is below degree 2" in err["error"]


@pytest.mark.parametrize("argv", [["hopf", "s3", "s2", "@eta1"],
                                  ["homotopic", "s3", "s2", "@eta1", "@eta2"]],
                         ids=["hopf", "homotopic"])
def test_loop_model_window_below_the_source_is_refused(files, capsys, argv):
    # eta1 sends the class of S3 to H3_0 in degree 3: at window 3 the loop
    # model is exact only through degree 2, and at window 2 it has no H3_0
    for window in ("2", "3"):
        err = refusal(capsys, argv + ["--window", window], files)
        assert err["where"] == "--window"
        assert (f"window {window} is exact only through degree "
                f"{int(window) - 1}, below degree 3") in err["error"]


@pytest.mark.parametrize("argv", [
    ["twist", "@one_sided", "@xyz_model", "@one_sided_tau"],
    ["mc-check", "@one_sided", "@xyz_model", "@one_sided_tau"],
    ["components", "@one_sided", "@xyz_model"],
    ["gauge-check", "@one_sided_path"]],
    ids=["twist", "mc-check", "components", "gauge-check"])
def test_coalgebra_that_is_not_cocommutative_is_refused(files, capsys, argv):
    # the convolution brackets read each coproduct word once, which gives
    # the bracket only on a cocommutative coproduct; the record is checked
    # where it is read, also inside a gauge path or certificate record
    (files / "one_sided_path.json").write_text(json.dumps({
        "format_version": 1, "kind": "gauge_path", "name": "",
        "C": RECORDS["one_sided"], "L": RECORDS["xyz_model"],
        "path": {"poly_bound": 1, "p_parts": [], "q_parts": []}}))
    err = refusal(capsys, argv, files)
    assert err == {"where": "delta",
                   "error": "delta: coproduct not cocommutative at 'b'"}


@pytest.mark.parametrize("record,where,message", [
    ({"basis": [{"name": "a", "degree": 2}, {"name": "b", "degree": 2},
                {"name": "t", "degree": 4}, {"name": "u", "degree": 6}],
      "d": [], "delta": [["t", "a", "a", "1/1"], ["u", "b", "t", "1/1"],
                         ["u", "t", "b", "1/1"]]},
     "delta", "coproduct not coassociative at 'u'"),
    ({"basis": [{"name": "a", "degree": 2}, {"name": "t", "degree": 4},
                {"name": "w", "degree": 5}],
      "d": [["w", "t", "1/1"]], "delta": [["t", "a", "a", "1/1"]]},
     "delta", "differential is not a coderivation at 'w'"),
    ({"basis": [{"name": "a", "degree": 2}, {"name": "b", "degree": 3},
                {"name": "c", "degree": 4}],
      "d": [["c", "b", "1/1"], ["b", "a", "1/1"]], "delta": []},
     "d", "d^2 != 0 on 'B', first at 'c'"),
    ({"basis": [{"name": "a", "degree": 2}, {"name": "b", "degree": 4}],
      "d": [["b", "a", "1/1"]], "delta": []},
     "d", "map d: image of 'b' hits degree 2, expected 3"),
], ids=["coassociative", "coderivation", "square-zero", "d-degree"])
def test_coalgebra_records_are_validated_where_they_are_read(
        tmp_path, capsys, record, where, message):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"format_version": 1, "kind": "cdgc",
                                "name": "B", **record}))
    err = refusal(capsys, ["homology", str(path)])
    assert err == {"where": where, "error": f"{where}: {message}"}


def test_transfer_arity_below_one_is_refused(capsys):
    for arity in ("0", "-2"):
        err = refusal(capsys, ["transfer", "cp2", "--arity", arity])
        assert err == {"where": "--arity",
                       "error": f"--arity: arity {arity} is below 1; "
                                "the transferred structure starts at l_1"}


@pytest.mark.parametrize("model,window,word,residue", [
    ("cp2", 6, "('H2_0', 'H2_0', 'H2_0', 'H2_0')", "{'H6_0': Fraction(12, 1)}"),
    ("s2xs2", 7, "('H2_0', 'H2_0', 'H2_0', 'H3_1')",
     "{'H7_0': Fraction(-12, 1)}")])
def test_transfer_jacobi_residue_above_exact_through_blames_the_window(
        capsys, model, window, word, residue):
    # the residue lies in degree window, where the cobar is cut: the top
    # homology there is a truncation artifact, and arity 4 reaches it
    err = refusal(capsys, ["transfer", model, "--window", str(window),
                           "--arity", "4"])
    assert err == {"where": "--window",
                   "error": f"--window: Jacobi fails on {word}: residue "
                            f"{residue}; the residue lies in degree {window}, "
                            f"above exact_through {window - 1}, where the "
                            "cobar cut makes the homology spurious: window "
                            f"{window} is too small for arity 4"}
    code, _, _ = run(capsys, ["transfer", model, "--window", str(window + 1),
                              "--arity", "4"])
    assert code == 0


def test_transfer_jacobi_residue_inside_the_window_stays_plain(capsys,
                                                                monkeypatch):
    # a residue in degree 2, at or below exact_through: the structure is
    # wrong, not the window
    def fail(self):
        raise JacobiError(("H2_0", "H2_0"), {"H2_0": F(1)})

    monkeypatch.setattr(TransferredLInfinity, "validate", fail)
    err = refusal(capsys, ["transfer", "cp2", "--window", "6"])
    assert err == {"error": "Jacobi fails on ('H2_0', 'H2_0'): "
                            "residue {'H2_0': Fraction(1, 1)}"}


def test_transfer_at_the_lowest_window_keeps_pi_2(capsys):
    _, out, _ = run(capsys, ["transfer", "s2", "--window", "2"])
    assert json.loads(out)["homology"] == [{"degree": 2, "name": "H2_0"}]


def test_repeated_param_pair_is_refused(capsys):
    err = refusal(capsys, ["components", "s2", "pi_s2", "--param",
                           '[["a", "x"], ["a", "x"]]'])
    assert err == {"where": "--param",
                   "error": "--param: ('a', 'x') is repeated"}


def test_repeated_sample_is_refused(capsys):
    # a repeat would spend the family grid cap on duplicate points
    err = refusal(capsys, ["components", "s3", "pi_s2",
                           "--samples", "0,0,0,0,1"])
    assert err == {"where": "--samples",
                   "error": "--samples: sample 0 is repeated"}


@pytest.mark.parametrize("param,message", [
    ('[["a", "zz"]]', "('a', 'zz') is not a degree-0 basis pair"),
    ('[["b", "x"]]', "('b', 'x') is not a degree-0 basis pair"),
    ('{"a": 1}', "expected a list, got {'a': 1}"),
    ('"a"', "expected a list, got 'a'"),
], ids=["unknown-key", "unknown-source", "object", "string"])
def test_param_must_list_degree_zero_pairs(capsys, param, message):
    err = refusal(capsys, ["components", "s2", "pi_s2", "--param", param])
    assert err == {"where": "--param", "error": f"--param: {message}"}


def test_samples_must_be_integers(capsys):
    for samples in ("x", "0,,1"):
        err = refusal(capsys, ["components", "s3", "pi_s2",
                               "--samples", samples])
        assert err == {"where": "--samples",
                       "error": "--samples: expected comma-separated "
                                f"integers, got {samples!r}"}


@pytest.fixture
def quillen_s2(tmp_path, capsys):
    """The free Lie model of S2 as `cobar s2 --window 5` writes it."""
    path = tmp_path / "q.json"
    assert run(capsys, ["cobar", "s2", "--window", "5",
                        "--out", str(path)])[:2] == (0, "")
    return path


def test_components_over_a_mixed_bar_carrier_decides_every_pair(
        quillen_s2, capsys):
    # at window 3 the bar construction has arity window 1, so pairs are
    # decided by the homology class of their difference; its degree-0
    # carrier mixes word shapes, which the witness must sort by basis order
    code, out, err = run(capsys, ["components", str(quillen_s2), "pi_s2",
                                  "--window", "3"])
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["summary"] == ("9 component class(es) [exhaustive, "
                                 "affine, family in c0, c1]")
    assert all(c["verified"] for c in report["classes"])
    assert {outcome for *_, outcome in report["pairwise"]} == {"distinct"}


def test_components_window_below_the_bar_of_the_source_is_refused(
        quillen_s2, capsys, monkeypatch):
    # the bar construction of the free Lie model of S2 starts in degree 2:
    # a smaller window leaves an empty source and an empty "success"
    for window in ("-3", "0", "1"):
        err = refusal(capsys, ["components", str(quillen_s2), "pi_s2",
                               "--window", window])
        assert err["where"] == "--window"
        assert f"window {window} is below degree 2" in err["error"]
    monkeypatch.setenv(cli.WINDOW_ENV, "1")
    err = refusal(capsys, ["components", str(quillen_s2), "pi_s2"])
    assert err["where"] == "--window"
    code, out, _ = run(capsys, ["components", str(quillen_s2), "pi_s2",
                                "--window", "2"])
    assert code == 0 and json.loads(out)["classes"]


def test_components_window_with_a_coalgebra_source_is_refused(
        capsys, monkeypatch):
    # a coalgebra source is used as is, so an explicit window would be
    # silently ignored
    for window in ("-5", "4"):
        err = refusal(capsys, ["components", "cp2", "pi_s2",
                               "--window", window])
        assert err["where"] == "--window"
        assert "cp2 is a coalgebra model" in err["error"]
    # the environment only sets a default, which this source does not need
    _, plain, _ = run(capsys, ["components", "cp2", "pi_s2"])
    monkeypatch.setenv(cli.WINDOW_ENV, "-5")
    assert run(capsys, ["components", "cp2", "pi_s2"]) == (0, plain, "")


def test_no_components_call_loads_sympy(tmp_path):
    # the ten bundled calls whose systems went to a sympy solve before the
    # exact elimination: s2xs2 and the free Lie model of S2, each into
    # pi_s2, s2, s2vs3, s2xs2 and the frozen loop model.  The free Lie
    # source into pi(S2) gives 2 c0^2 - c1 = 0, solved as c1 = 2 c0^2
    src = str(Path(cli.__file__).resolve().parents[1])
    quillen = str(tmp_path / "quillen.json")
    targets = ["pi_s2", "s2", "s2vs3", "s2xs2", str(S2VS3_LOOPS)]
    script = (
        "import sys\n"
        "from convmc.cli import main\n"
        f"assert main(['cobar', 's2', '--out', {quillen!r}]) == 0\n"
        f"for i, source in enumerate(['s2xs2', {quillen!r}]):\n"
        f"    for j, target in enumerate({targets!r}):\n"
        "        out = f'{i}{j}.json'\n"
        "        assert main(['components', source, target, '--out', out]) "
        "== 0\n"
        "print('sympy' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    env.pop(cli.WINDOW_ENV, None)
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.split() == ["False"]
    assert len(list(tmp_path.glob("[01][0-4].json"))) == 10
    assert [[[["a"], "x"], "c0"], [[[["br", "a", "a"]], "y"], "2*c0**2"]] \
        in json.loads((tmp_path / "10.json").read_text())["parametric"]


@pytest.mark.parametrize("n,window,digest", [
    (3, 8, "fb09fc4d1857ef34279606593a0225b75dafeb578ca39aef2387809f65d8e36d"),
    (4, 10, "857f936b35a76ad7792c0266e1c5eeb47bf622aee03dbc099da372d6b93f6f52"),
], ids=["cp3-w8", "cp4-w10"])
def test_free_lie_cp_components_keep_their_bytes(tmp_path, capsys, n,
                                                 window, digest):
    # the free Lie models of CP3 and CP4 into the frozen loop model: the
    # sympy solve these systems once went to took 12.5 s and 494 s; the
    # elimination settles both, CP4's 3 (2 c3 + c4)^2 = 0 as c3 = -c4/2
    (tmp_path / "cp.json").write_text(json.dumps(cp_record(n)))
    q, out = tmp_path / "q.json", tmp_path / "out.json"
    assert run(capsys, ["cobar", "@cp", "--window", str(window), "--out",
                        str(q)], tmp_path)[0] == 0
    assert run(capsys, ["components", str(q), str(S2VS3_LOOPS), "--window",
                        str(window), "--out", str(out)])[0] == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.skipif(all(importlib.util.find_spec(name) is None
                        for name in ("_sha2", "_sha256")),
                    reason="this CPython has no built-in SHA-256 module, so "
                    "the fingerprint falls back to hashlib")
def test_a_fingerprint_loads_no_openssl_sympy_or_argparse(tmp_path):
    # both calls print a contraction fingerprint; -I ignores PYTHONPATH.
    # The command line is read from cli.COMMANDS, so neither argparse nor
    # the gettext and locale modules its help text needs are loaded
    src = str(Path(cli.__file__).resolve().parents[1])
    eta1 = tmp_path / "eta1.json"
    eta1.write_text(json.dumps(RECORDS["eta1"]))
    script = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "from convmc.cli import main\n"
        "assert main(['transfer', 's2vs3', '--window', '6']) == 0\n"
        f"assert main(['homotopic', 's3', 's2', {str(eta1)!r}, "
        f"{str(eta1)!r}, '--window', '5']) == 0\n"
        "print('_hashlib' in sys.modules, 'sympy' in sys.modules, sorted("
        "{'argparse', 'gettext', 'locale'} & set(sys.modules)))\n")
    env = dict(os.environ)
    env.pop(cli.WINDOW_ENV, None)
    done = subprocess.run([sys.executable, "-I", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert '"fingerprint": "72089c78b47a5f1c"' in done.stdout
    assert done.stdout.splitlines()[-1] == "False False []"


# the elimination, the transfer, a components search over a loop model
# and a certificate: every report a set or dict order could reach
HASH_SEED_BATCH = [
    ["cobar", "s2", "--window", "5", "--out", "Q.json"],
    ["components", "Q.json", "pi_s2"],
    ["transfer", "s2vs3", "--window", "9"],
    ["components", "s2xs2", "s2vs3"],
    ["homotopic", "s3", "s2", "eta1.json", "eta2.json", "--window", "5"]]


def test_output_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    script = ("from convmc.cli import main\n"
              f"print([main(argv) for argv in {HASH_SEED_BATCH!r}])\n")
    outs = []
    for seed in ("0", "1"):
        where = tmp_path / seed
        where.mkdir()
        for name in ("eta1", "eta2"):
            (where / f"{name}.json").write_text(json.dumps(RECORDS[name]))
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(
                   [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
        env.pop(cli.WINDOW_ENV, None)
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              cwd=where, capture_output=True, text=True,
                              timeout=120)
        assert (done.returncode, done.stderr) == (0, "")
        outs.append((done.stdout, (where / "Q.json").read_text()))
    assert outs[0][0].splitlines()[-1] == "[0, 0, 0, 0, 1]"
    assert outs[0] == outs[1]


def cp_record(n):
    """The CP_n coalgebra: a_i in degree 2 i, each a_k splitting into
    every a_i (x) a_(k-i)."""
    return {"format_version": 1, "kind": "cdgc", "name": f"CP{n}",
            "basis": [{"name": f"a{i}", "degree": 2 * i}
                      for i in range(1, n + 1)],
            "d": [], "delta": [[f"a{k}", f"a{i}", f"a{k - i}", "1/1"]
                               for k in range(2, n + 1)
                               for i in range(1, k)]}


CP3 = cp_record(3)


def test_homotopic_bytes_do_not_depend_on_the_cached_models(tmp_path,
                                                            capsys,
                                                            monkeypatch):
    # the loop model, with its free Lie bracket table, is cached across
    # calls; a batch in either order prints what a fresh process prints
    monkeypatch.setattr(hopf, "_MODELS", type(hopf._MODELS)())
    (tmp_path / "cp3.json").write_text(json.dumps(CP3))
    for k in (-1, 1, 2, 3):
        (tmp_path / f"f{k}.json").write_text(json.dumps(_element(
            "map", f"f{k}", [[f"a{i}", f"a{i}", f"{k ** i}/1"]
                             for i in (1, 2, 3)], "CP3", "CP3")))
    pairs = [(2, 3), (-1, 1), (2, 2), (3, -1)]

    def homotopic(j, k):
        return run(capsys, ["homotopic", "@cp3", "@cp3", f"@f{j}", f"@f{k}",
                            "--window", "12"], tmp_path)

    fresh = {}
    for pair in pairs:
        hopf._MODELS.clear()
        fresh[pair] = homotopic(*pair)
    assert {code for code, _, _ in fresh.values()} == {0, 1}
    for order in (pairs, pairs[::-1]):
        hopf._MODELS.clear()
        for pair in order:
            assert homotopic(*pair) == fresh[pair]


def _cp3_self_maps(where, degrees):
    (where / "cp3.json").write_text(json.dumps(CP3))
    for k in degrees:
        (where / f"f{k}.json").write_text(json.dumps(_element(
            "map", f"f{k}", [[f"a{i}", f"a{i}", f"{k ** i}/1"]
                             for i in (1, 2, 3)], "CP3", "CP3")))


def _counted(monkeypatch, owner, name) -> list:
    """Record the first argument of every call of owner.name."""
    calls = []
    orig = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args[0])
        return orig(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def _pushed(models):
    """The pushed-map records of the one Hom algebra of the one loop model
    cached."""
    (model,) = models.values()
    (conv,) = model.homs.values()
    return conv.algebra_memo["pushed"]


def test_homotopic_batch_pushes_each_map_once(tmp_path, capsys, monkeypatch):
    # the loop model keeps the canonical element of every map it pushed,
    # so a batch in one process pushes each map once
    monkeypatch.setattr(hopf, "_MODELS", type(hopf._MODELS)())
    _cp3_self_maps(tmp_path, (-1, 2, 3))
    calls = _counted(monkeypatch, hopf, "push_mc")
    pairs = [(2, 3), (3, 2), (2, 2), (-1, 3), (3, -1), (-1, -1)]
    codes = [run(capsys, ["homotopic", "@cp3", "@cp3", f"@f{j}", f"@f{k}",
                          "--window", "12"], tmp_path)[0]
             for j, k in pairs]
    assert codes == [1, 1, 0, 1, 1, 0]
    assert len(calls) == 3
    assert len(_pushed(hopf._MODELS)) == 3


def test_pushed_maps_past_the_cap_are_evicted_and_rebuilt(tmp_path, capsys,
                                                          monkeypatch):
    monkeypatch.setattr(hopf, "_MODELS", type(hopf._MODELS)())
    monkeypatch.setattr(hopf, "_PUSHED_CAP", 2)
    _cp3_self_maps(tmp_path, (-1, 2, 3))
    calls = _counted(monkeypatch, hopf, "push_mc")

    def invariant(k):
        return run(capsys, ["hopf", "@cp3", "@cp3", f"@f{k}",
                            "--window", "12"], tmp_path)

    first = invariant(-1)
    assert first[0] == 0
    invariant(2)
    invariant(3)
    pushed = _pushed(hopf._MODELS)
    assert len(pushed) == 2 and len(calls) == 3
    # f-1, the least recently used, was evicted: pushed again in full
    assert invariant(-1) == first
    assert len(pushed) == 2 and len(calls) == 4
    assert invariant(3)[0] == 0 and len(calls) == 4


def _fresh_process(monkeypatch):
    """Empty model caches, as in a new process."""
    monkeypatch.setattr(hopf, "_MODELS", type(hopf._MODELS)())
    monkeypatch.setattr(cli, "_LOADED", type(cli._LOADED)())


def _cp3_elements(where):
    """CP3, its self-maps f-1, f2, f3, and the Maurer-Cartan elements m2
    (the element of f2) and m5 over the loop model of CP3."""
    _cp3_self_maps(where, (-1, 2, 3))
    for k in (2, 5):
        (where / f"m{k}.json").write_text(json.dumps(_element(
            "mc_element", f"m{k}", [["a1", "H2_0", f"{k}/1"]], "CP3",
            "loops(CP3)")))


def test_warm_calls_print_what_a_fresh_process_prints(files, capsys,
                                                      monkeypatch):
    # the loop model keeps its Hom algebras, point records and pushed maps,
    # and the loader keeps decoded files: each call of a batch in one
    # process prints what it prints after both caches are emptied
    _fresh_process(monkeypatch)
    _cp3_elements(files)
    cp3 = ["@cp3", "@cp3"]
    window = ["--window", "12"]
    batch = [["homotopic", *cp3, "@f2", "@f3", *window],
             ["homotopic", *cp3, "@f3", "@f2", *window],
             ["homotopic", *cp3, "@f2", "@m2", *window],
             ["homotopic", *cp3, "@m2", "@f2", *window],
             ["homotopic", *cp3, "@f3", "@f3", *window],
             ["homotopic", *cp3, "@m5", "@f-1", *window],
             ["homotopic", *cp3, "@f-1", "@m5", *window],
             ["homotopic", *cp3, "@m5", "@m5", *window],
             ["hopf", *cp3, "@f2", *window],
             ["hopf", *cp3, "@m2", *window],
             ["hopf", *cp3, "@f-1", *window],
             ["hopf", *cp3, "@m5", *window],
             ["homotopic", "s3", "s2", "@eta1", "@eta2"],
             ["homotopic", "s3", "s2", "@eta2", "@eta1"],
             ["homotopic", "s3", "s2", "@eta1", "@eta1"],
             ["hopf", "s3", "s2", "@eta2"]]
    fresh = {}
    for argv in batch:
        hopf._MODELS.clear()
        cli._LOADED.clear()
        fresh[tuple(argv)] = run(capsys, argv, files)
    assert {code for code, _, _ in fresh.values()} == {0, 1}
    assert fresh[tuple(batch[2])][0] == 0
    for order in (batch, batch[::-1]):
        hopf._MODELS.clear()
        cli._LOADED.clear()
        for argv in order:
            assert run(capsys, argv, files) == fresh[tuple(argv)], argv


def test_gates_fire_on_every_warm_call(files, capsys, monkeypatch):
    _fresh_process(monkeypatch)
    _cp3_elements(files)
    # a1 -> 2 a1 and a2 -> 3 a2 is not a coalgebra map: Delta(a2) has
    # a1 (x) a1, which the map sends to 4 a1 (x) a1
    (files / "bad.json").write_text(json.dumps(_element(
        "map", "bad", [["a1", "a1", "2/1"], ["a2", "a2", "3/1"],
                       ["a3", "a3", "8/1"]], "CP3", "CP3")))
    window = ["--window", "12"]
    assert run(capsys, ["hopf", "@cp3", "@cp3", "@f2", *window],
               files)[0] == 0
    for argv in (["homotopic", "@cp3", "@cp3", "@f2", "@bad", *window],
                 ["homotopic", "@cp3", "@cp3", "@bad", "@f2", *window],
                 ["hopf", "@cp3", "@cp3", "@bad", *window]) * 2:
        err = refusal(capsys, argv, files)
        where = _at(files, "@bad")
        assert err == {"where": where, "error": f"{where}: coproducts "
                                                "disagree after the map at "
                                                "'a2'"}
    # only the map that passed is kept
    assert len(_pushed(hopf._MODELS)) == 1
    # the bottom class of CP2 to H2_0 is obstructed into S2: refused at
    # its argument on every call, before and after a Maurer-Cartan
    # element of the same source and target was accepted
    where = _at(files, "@cp2_h2")
    for argv in (["hopf", "cp2", "s2", "@cp2_h2"],
                 ["homotopic", "cp2", "s2", "@cp2_zero", "@cp2_h2"],
                 ["hopf", "cp2", "s2", "@cp2_zero"],
                 ["hopf", "cp2", "s2", "@cp2_h2"],
                 ["homotopic", "cp2", "s2", "@cp2_h2", "@cp2_zero"]):
        code, out, err = run(capsys, argv, files)
        if "@cp2_h2" in argv:
            assert (code, out) == (2, "")
            assert json.loads(err) == {
                "where": where, "error": f"{where}: not a Maurer-Cartan "
                                         'element, residual [["b", "H3_0", '
                                         '"1/1"]]'}
        else:
            assert (code, err) == (0, "")


# the benchmark's hopf-batch pairs at seed 1 (perfbench/workloads.py,
# hopf_pairs(1)): 15 calls over the 6 maps of degrees -2, -1, 1, 2, 3, 4
HOPF_BATCH_SEED_1 = [(-1, -1), (-1, 4), (3, 3), (-2, -2), (-1, 1), (-1, 3),
                     (2, 1), (-2, 2), (1, 2), (-2, 3), (1, 4), (4, 2),
                     (3, -2), (4, 2), (1, 4)]


def test_homotopic_batch_checks_each_element_once(tmp_path, capsys,
                                                   monkeypatch):
    # one Hom algebra per loop model: each of the 6 distinct elements is
    # checked only by its record, which the decision then takes as it is;
    # its sweep invariant and its morphism check run once, and the CP3
    # file is decoded once
    _fresh_process(monkeypatch)
    _cp3_self_maps(tmp_path, (-2, -1, 1, 2, 3, 4))
    checks = _counted(monkeypatch, ConvolutionAlgebra, "mc_check")
    sweeps = _counted(monkeypatch, gauge, "_sweep_invariant")
    morphisms = _counted(monkeypatch, hopf, "check_coalgebra_morphism")
    decoded = _counted(monkeypatch, modelio, "record_to_object")
    decided = _counted(monkeypatch, hopf, "gauge_equivalent")
    codes = [run(capsys, ["homotopic", "@cp3", "@cp3", f"@f{j}", f"@f{k}",
                          "--window", "12"], tmp_path)[0]
             for j, k in HOPF_BATCH_SEED_1]
    assert codes == [0 if j == k else 1 for j, k in HOPF_BATCH_SEED_1]
    assert (len(checks), len(sweeps), len(morphisms), len(decoded),
            len(decided)) == (6, 6, 6, 1, 15)


def test_hom_algebras_past_the_cap_are_evicted_and_rebuilt(tmp_path, capsys,
                                                          monkeypatch):
    # cap + 1 sources into one loop model: the model keeps _HOMS_CAP Hom
    # algebras, and the evicted one, built again, prints the same bytes
    _fresh_process(monkeypatch)
    (tmp_path / "zero.json").write_text(json.dumps(_element(
        "mc_element", "zero", [], "S", "loops(S2)")))
    sources = ["s2", "s3", "s4", "cp2", "s2xs2", "s2vs3"]
    for n in range(5, 5 + hopf._HOMS_CAP + 1 - len(sources)):
        (tmp_path / f"s{n}.json").write_text(json.dumps(
            {"format_version": 1, "kind": "cdgc", "name": f"S{n}",
             "basis": [{"name": "a", "degree": n}], "d": [], "delta": []}))
        sources.append(f"@s{n}")
    assert len(sources) == hopf._HOMS_CAP + 1

    def invariant(source):
        return run(capsys, ["hopf", source, "s2", "@zero", "--window", "12"],
                   tmp_path)

    first = invariant(sources[0])
    assert first[0] == 0
    for source in sources[1:]:
        assert invariant(source)[0] == 0
    (model,) = hopf._MODELS.values()
    assert len(model.homs) == hopf._HOMS_CAP
    s2 = builtin_model("s2").signature
    assert s2 not in model.homs
    assert invariant(sources[0]) == first
    assert s2 in model.homs and len(model.homs) == hopf._HOMS_CAP


def test_loaded_models_past_the_cap_are_evicted_and_rebuilt(tmp_path, capsys,
                                                           monkeypatch):
    _fresh_process(monkeypatch)
    decoded = _counted(monkeypatch, modelio, "record_to_object")
    names = [f"CP3_{i}" for i in range(cli._LOADED_CAP + 1)]
    for name in names:
        (tmp_path / f"{name}.json").write_text(json.dumps(dict(CP3,
                                                               name=name)))

    def homology(name):
        return run(capsys, ["homology", f"@{name}"], tmp_path)

    first = homology(names[0])
    assert first[0] == 0 and json.loads(first[1])["name"] == names[0]
    for name in names[1:]:
        assert homology(name)[0] == 0
        assert len(cli._LOADED) <= cli._LOADED_CAP
    assert len(cli._LOADED) == cli._LOADED_CAP and len(decoded) == len(names)
    # a hit decodes nothing; the evicted first file is decoded again
    assert homology(names[-1])[0] == 0 and len(decoded) == len(names)
    assert homology(names[0]) == first and len(decoded) == len(names) + 1
    assert len(cli._LOADED) == cli._LOADED_CAP


def test_a_file_of_the_wrong_kind_is_not_kept(files, capsys, monkeypatch):
    # a file refused as the wrong kind is not kept, and a kept model is
    # still refused where its kind is not wanted
    _fresh_process(monkeypatch)
    decoded = _counted(monkeypatch, modelio, "record_to_object")
    as_source = ["hopf", "cp2", "@pi_s2_model", "@cp2_id"]
    refused = refusal(capsys, as_source, files)
    assert refused["error"].endswith("expected a coalgebra model")
    assert refusal(capsys, as_source, files) == refused
    assert not cli._LOADED and len(decoded) == 2
    code, _, err = run(capsys, ["mc-check", "s3", "@pi_s2_model",
                                "@whitehead"], files)
    assert (code, err) == (0, "") and len(cli._LOADED) == 1
    assert refusal(capsys, as_source, files) == refused
    assert len(decoded) == 3


# -- one target model for the Hom(C, L) commands ------------------------------

# the benchmark's frozen loop model of S2 v S3 at window 8, only read here
S2VS3_LOOPS = (Path(__file__).resolve().parents[1] / "perfbench" / "data"
               / "s2vs3_loops_w8.linfty.json")


def _loop_model_record(where, name, window):
    """The linfty record of the loop model of a bundled coalgebra."""
    path = where / f"{name}_loops_w{window}.json"
    path.write_text(modelio.dumps_record(modelio.linfty_to_record(
        hopf.loop_homology(builtin_model(name), window).algebra)))
    return path


def test_the_frozen_loop_model_is_the_loop_model_of_s2vs3():
    text = modelio.dumps_record(modelio.linfty_to_record(
        hopf.loop_homology(builtin_model("s2vs3"), 8).algebra))
    assert text.encode("utf-8") == S2VS3_LOOPS.read_bytes()


def test_components_into_a_coalgebra_reads_its_loop_model(tmp_path, capsys):
    # the default window is two above the top degree of CP3: 8, the
    # window the frozen file was built at
    (tmp_path / "cp3.json").write_text(json.dumps(CP3))
    got = run(capsys, ["components", "@cp3", "s2vs3"], tmp_path)
    assert got[0] == 0 and got[2] == ""
    assert sha(got[1]).startswith("bb2d28913e11174a")
    assert run(capsys, ["components", "@cp3", str(S2VS3_LOOPS)],
               tmp_path) == got
    # with a coalgebra source, --window sets the loop model of the target
    assert run(capsys, ["components", "@cp3", "s2vs3", "--window", "8"],
               tmp_path) == got


def test_components_checks_each_point_once(tmp_path, capsys, monkeypatch):
    # the benchmark's moduli-search call: each of the 27 points is checked
    # once by the construction of its record, which the normal form and
    # the decisions take, and once more by the deliberate
    # ModuliClass.verify of its class.  Each point's sweep invariant is
    # computed once, but the 18 points that reach the Betti comparison
    # take only 2 values on the tail keys a1 and a2, so the carrier is
    # twisted twice
    _fresh_process(monkeypatch)
    (tmp_path / "cp3.json").write_text(json.dumps(CP3))
    checks = _counted(monkeypatch, ConvolutionAlgebra, "mc_check")
    twists = _counted(monkeypatch, ConvolutionAlgebra, "twist")
    bettis = _counted(monkeypatch, ChainComplex, "betti")
    sweeps = _counted(monkeypatch, gauge, "_sweep_invariant")
    got = run(capsys, ["components", "@cp3", str(S2VS3_LOOPS)], tmp_path)
    assert got[0] == 0 and sha(got[1]).startswith("bb2d28913e11174a")
    assert (len(checks), len(twists), len(bettis), len(sweeps)) == \
        (54, 2, 2, 27)


@pytest.mark.parametrize("argv,window", [
    (["mc-check", "s3", "s2", "@eta1"], 5),
    (["mc-check", "cp2", "s2", "@cp2_h2"], 6),
    (["twist", "s3", "s2", "@eta2"], 5),
    (["twist", "cp2", "cp2", "@cp2_h2"], 6),
    (["pi", "s3", "s2", "@eta1", "--n", "1"], 5),
    (["pi", "cp2", "cp2", "@cp2_h2", "--n", "1"], 6),
], ids=["mc-check", "mc-check-obstructed", "twist", "twist-cp2", "pi",
        "pi-cp2"])
@pytest.mark.parametrize("env", [None, "7"], ids=["default", "env"])
def test_a_coalgebra_target_is_read_as_its_loop_model(files, capsys,
                                                      monkeypatch, argv,
                                                      window, env):
    # the default window is two above the top degrees of source and target
    if env is not None:
        monkeypatch.setenv(cli.WINDOW_ENV, env)
        window = int(env)
    frozen = _loop_model_record(files, argv[2], window)
    got = run(capsys, argv, files)
    assert got[2] == ""
    assert run(capsys, argv[:2] + [str(frozen)] + argv[3:], files) == got


@pytest.mark.parametrize("argv", [
    ["components", "s3", "s2"],
    ["mc-check", "s3", "s2", "@eta1"],
    ["twist", "s3", "s2", "@eta1"],
    ["pi", "s3", "s2", "@eta1", "--n", "1"],
    ["homotopic", "s3", "s2", "@eta1", "@eta2"],
], ids=["components", "mc-check", "twist", "pi", "homotopic"])
def test_every_loop_model_refuses_a_source_above_exact_through(
        files, capsys, monkeypatch, argv):
    # S3's class in degree 3 lies above exact_through 2 at window 3
    hopf_argv = ["hopf", "s3", "s2", "@eta1"]
    if argv[0] in ("components", "homotopic"):
        assert refusal(capsys, argv + ["--window", "3"], files) == \
            refusal(capsys, hopf_argv + ["--window", "3"], files)
    monkeypatch.setenv(cli.WINDOW_ENV, "3")
    err = refusal(capsys, argv, files)
    assert err["where"] == "--window"
    assert err == refusal(capsys, hopf_argv, files)


def test_a_free_lie_source_window_is_refused_by_a_loop_model_target(
        quillen_s2, capsys):
    # --window sets the bar construction of the source, whose top cells a
    # loop model at that same window cannot read
    err = refusal(capsys, ["components", str(quillen_s2), "s2",
                           "--window", "5"])
    assert err["where"] == "--window"
    assert "exact only through degree 4, below degree 5" in err["error"]
    code, out, _ = run(capsys, ["components", str(quillen_s2), "s2"])
    assert code == 0 and json.loads(out)["classes"]


@pytest.mark.parametrize("source,count,window", [("s3", 3, 5),
                                                 ("s2xs2", 5, 6)])
def test_components_agree_with_homotopic(tmp_path, capsys, source, count,
                                         window):
    # every listed class is a map: homotopic finds it equal to itself and
    # never equal to another listed class, and decides each pair as the
    # component search did; both read the loop model at the default window
    code, out, _ = run(capsys, ["components", source, "s2"])
    report = json.loads(out)
    classes = report["classes"]
    assert code == 0 and len(classes) == count
    pairwise = {(i, j): outcome for i, j, outcome in report["pairwise"]}
    assert len(pairwise) == count * (count - 1) // 2
    for i, c in enumerate(classes):
        (tmp_path / f"c{i}.json").write_text(json.dumps(_element(
            "mc_element", f"c{i}", c["representative"], source, "loops")))
    for i in range(count):
        for j in range(count):
            code, out, err = run(capsys, ["homotopic", source, "s2",
                                          f"@c{i}", f"@c{j}"], tmp_path)
            report = json.loads(out)
            outcome = report["outcome"]
            assert (err, report["window"]) == ("", window)
            assert (outcome == "equal") == (i == j), (i, j)
            assert outcome == pairwise.get((i, j), outcome), (i, j)
            assert code == {"equal": 0, "distinct": 1, "unknown": 3}[outcome]


def test_an_undecided_pair_exits_3_and_so_does_its_certificate(tmp_path,
                                                             capsys):
    # classes 10 and 9 of the CP3 search into s2vs3 differ in normal form
    # and no invariant separates them
    (tmp_path / "cp3.json").write_text(json.dumps(CP3))
    code, out, _ = run(capsys, ["components", "@cp3", "s2vs3"], tmp_path)
    report = json.loads(out)
    assert code == 0 and [10, 9, "unknown"] in report["pairwise"]
    for i in (10, 9):
        (tmp_path / f"c{i}.json").write_text(json.dumps(_element(
            "mc_element", f"c{i}", report["classes"][i]["representative"],
            "CP3", "loops")))
    code, out, err = run(capsys, ["homotopic", "@cp3", "s2vs3", "@c10",
                                  "@c9"], tmp_path)
    cert = json.loads(out)["certificate"]
    assert (code, err, cert["outcome"]) == (3, "", "unknown")
    (tmp_path / "cert.json").write_text(json.dumps(cert))
    code, out, err = run(capsys, ["gauge-check", "@cert"], tmp_path)
    assert (code, err) == (3, "")
    assert json.loads(out) == {"kind": "gauge_check_report",
                               "checked": "certificate", "outcome": "unknown",
                               "valid": False, "reason": cert["reason"]}


@pytest.mark.parametrize("forge", [
    lambda cert: {"witness_kind": "homology-class"},
    lambda cert: {"witness_kind": "nope"},
    lambda cert: {"witness": {"degree": cert["witness"]["degree"] + 1}}],
    ids=["homology-class", "nope", "degree-shifted"])
def test_a_relabelled_witness_does_not_verify(files, capsys, forge):
    # the rigid-stage certificate of id against conj, read as another kind
    # or with its first differing column moved up by one
    _, out, _ = run(capsys, ["homotopic", "cp2", "cp2", "@cp2_id",
                             "@cp2_conj"], files)
    cert = json.loads(out)["certificate"]
    assert cert["witness_kind"] == "rigid-stage"
    (files / "cert.json").write_text(json.dumps({**cert, **forge(cert)}))
    code, out, err = run(capsys, ["gauge-check", "@cert"], files)
    assert (code, err) == (1, "")
    assert json.loads(out)["valid"] is False


def test_homology_of_a_cobar_record_is_its_free_lie_homology(tmp_path,
                                                            capsys):
    # the loop space of CP2 is S1 x Omega S5 rationally: classes in
    # degrees 1 and 4 among 1..5
    quillen = tmp_path / "q.json"
    assert run(capsys, ["cobar", "cp2", "--out", str(quillen)])[0] == 0
    code, out, _ = run(capsys, ["homology", str(quillen)])
    betti = dict(json.loads(out)["betti"])
    assert code == 0
    assert [betti.get(d, 0) for d in range(1, 6)] == [1, 0, 0, 1, 0]


def test_a_quillen_delta_on_letters_is_extended_as_a_derivation(tmp_path,
                                                               capsys):
    # the Leibniz rule gives delta[a, c] and delta[b, c] nonzero, so only
    # one class survives in degree 8 (and none in degree 9, whose
    # brackets with c hit the three degree-8 words)
    path = tmp_path / "labc.json"
    path.write_text(json.dumps(LABC))
    code, out, _ = run(capsys, ["homology", str(path)])
    assert code == 0
    assert dict(json.loads(out)["betti"]) == {2: 2, 4: 1, 6: 1, 7: 0, 8: 1,
                                              9: 0}
    assert run(capsys, ["validate", str(path)])[0] == 0


@pytest.mark.parametrize("model", ["cp2", "s2xs2", "s2vs3"])
def test_a_cobar_record_loads_as_the_same_derivation(tmp_path, capsys,
                                                     model):
    # cobar writes delta on every word; reading it back checks it against
    # the derivation of its letter values and keeps every byte
    path = tmp_path / "q.json"
    assert run(capsys, ["cobar", model, "--window", "7",
                        "--out", str(path)])[:2] == (0, "")
    text = path.read_text(encoding="utf-8")
    rec = json.loads(text)
    Q = modelio.quillen_from_record(rec)
    assert Q.leibniz_defect() is None
    assert modelio.dumps_record({**modelio.quillen_to_record(Q),
                                 "window": 7, "exact_through": 6}) == text


def test_components_names_each_merged_candidate(capsys):
    # both later candidates merge into class 0
    code, out, _ = run(capsys, ["components", "s2", "ab23"])
    assert code == 0
    assert json.loads(out)["pairwise"] == [[1, 0, "equal"], [2, 0, "equal"]]


def test_python_m_convmc_runs_the_cli():
    argv, code, digest = next(g for g in GOLDEN if g[0] == ["cobar", "cp2"])
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    env.pop(cli.WINDOW_ENV, None)
    done = subprocess.run([sys.executable, "-m", "convmc", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (code, "")
    assert sha(done.stdout) == digest


def test_importing_the_cli_leaves_dataclasses_and_inspect_out():
    # a fresh isolated interpreter, as the console script starts: no
    # dataclass pulls in inspect, ast, dis and tokenize at start-up
    src = str(Path(cli.__file__).resolve().parents[1])
    script = (f"import sys; sys.path.insert(0, {src!r}); import convmc.cli; "
              "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-I", "-c", script],
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr, done.stdout) == (0, "", "[]\n")


# -- malformed records ----------------------------------------------------------

def _homotopic_certificate(files, capsys, g):
    """The certificate of homotopic s3 s2 eta1 g --window 5."""
    _, out, _ = run(capsys, ["homotopic", "s3", "s2", "@eta1", f"@{g}",
                             "--window", "5"], files)
    return json.loads(out)["certificate"]


@pytest.mark.parametrize("g,edit,where", [
    ("eta1", {"paths": "nope"}, "paths"),
    ("eta1", {"paths": ["nope"]}, "paths[0]"),
    ("eta1", {"paths": [{"poly_bound": 1, "p_parts": "nope"}]},
     "paths[0].p_parts"),
    ("eta2", {"C": "nope"}, "C"),
    ("eta2", {"L": ["nope"]}, "L"),
    ("eta2", {"x": "nope"}, "x"),
    ("eta2", {"witness": "nope"}, "witness"),
    ("eta2", {"witness_kind": "twisted-betti",
              "witness": {"betti_x": [], "betti_y": 5}}, "witness.betti_y"),
    ("eta2", {"witness_kind": "twisted-betti",
              "witness": {"betti_x": [["1", 2]], "betti_y": []}},
     "witness.betti_x[0]"),
    ("eta2", {"witness_kind": "twisted-betti",
              "witness": {"betti_x": [[1, None]], "betti_y": []}},
     "witness.betti_x[0]"),
    ("eta2", {"witness_kind": "twisted-betti",
              "witness": {"betti_x": [[True, 1]], "betti_y": []}},
     "witness.betti_x[0]"),
    ("eta2", {"witness_kind": "twisted-betti",
              "witness": {"betti_x": [], "betti_y": [[3, 1], [3, 0]]}},
     "witness.betti_y[1]"),
    ("eta2", {"x": [["zz", "H3_0", "1/1"]]}, "x[0]"),
    ("eta2", {"y": [["a", "zz", "1/1"]]}, "y[0]"),
    ("eta2", {"y": [["a", "H2_0", "1/1"]]}, "y"),
    ("eta1", {"paths": [{"poly_bound": 1,
                         "p_parts": [[0, []], [1, [["zz", "H3_0", "1/1"]]]]}]},
     "paths[0].p_parts[1][0]"),
    ("eta1", {"paths": [{"poly_bound": 4,
                         "p_parts": [[-1, [["a", "H3_0", "1/1"]]]]}]},
     "paths[0].p_parts[0]"),
    ("eta1", {"paths": [{"poly_bound": 4, "p_parts": [
        [0, [["a", "H3_0", "1/1"]]], [5, [["a", "H3_0", "1/1"]]]]}]},
     "paths[0].p_parts[1]"),
    ("eta2", {"witness_kind": "rigid-stage", "witness": {}},
     "witness.degree"),
    ("eta2", {"witness_kind": "rigid-stage", "witness": {"degree": "3"}},
     "witness.degree"),
    ("eta2", {"witness_kind": "rigid-stage", "witness": {"degree": True}},
     "witness.degree"),
    ("eta2", {"outcome": "maybe"}, "outcome"),
], ids=["paths-string", "path-string", "parts-string", "C-string",
        "L-list", "x-string", "witness-string", "betti-int", "betti-row-str",
        "betti-row-null", "betti-row-bool", "betti-repeated-degree",
        "x-source-key", "y-target-key", "y-degree",
        "parts-source-key", "negative-power", "power-past-bound",
        "rigid-no-degree", "rigid-str-degree",
        "rigid-bool-degree", "unknown-outcome"])
@pytest.mark.parametrize("command", ["gauge-check", "validate"])
def test_malformed_certificate_fields_are_refused(files, capsys, command,
                                                  g, edit, where):
    cert = files / "cert.json"
    cert.write_text(json.dumps({**_homotopic_certificate(files, capsys, g),
                                **edit}))
    assert refusal(capsys, [command, str(cert)])["where"] == where


@pytest.mark.parametrize("edit,where", [
    ({"C": "nope"}, "C"), ({"L": 5}, "L"), ({"path": "nope"}, "path"),
    ({"path": {"poly_bound": 1, "q_parts": {}}}, "path.q_parts"),
    ({"path": {"poly_bound": 1, "q_parts": [[0, [["a", "zz", "1/1"]]]]}},
     "path.q_parts[0][0]"),
    ({"path": {"poly_bound": 1, "p_parts": [["0", []]]}}, "path.p_parts[0]"),
    ({"path": {"poly_bound": -1}}, "path.poly_bound"),
    ({"path": {"poly_bound": "1"}}, "path.poly_bound"),
    ({"path": {"poly_bound": True}}, "path.poly_bound"),
    ({"path": {"poly_bound": 1, "p_parts": [[True, []]]}},
     "path.p_parts[0]"),
    ({"path": {"poly_bound": 1, "q_parts": [[0, []], [0, []]]}},
     "path.q_parts[1]"),
    # a nonzero part outside t^0 .. t^poly_bound; a zero part is dropped
    ({"path": {"poly_bound": 4, "p_parts": [[-2, []],
                                            [-1, [["a", "H3_0", "1/1"]]]]}},
     "path.p_parts[1]"),
    ({"path": {"poly_bound": 4, "p_parts": [[9, []],
                                            [5, [["a", "H3_0", "1/1"]]]]}},
     "path.p_parts[1]")],
    ids=["C", "L", "path", "q_parts", "q_parts-target-key", "part-row",
         "negative-poly-bound", "str-poly-bound", "bool-poly-bound",
         "bool-part-power", "repeated-part-power", "negative-power",
         "power-past-bound"])
def test_malformed_gauge_path_fields_are_refused(files, capsys, edit, where):
    cert = _homotopic_certificate(files, capsys, "eta1")
    path = files / "path.json"
    path.write_text(json.dumps({
        "format_version": 1, "kind": "gauge_path", "name": "",
        "C": cert["C"], "L": cert["L"], "path": cert["paths"][0], **edit}))
    assert refusal(capsys, ["gauge-check", str(path)])["where"] == where


@pytest.mark.parametrize("row,key", [
    ([2, ["x", "zz"], "y", "1/1"], "'zz'"),
    ([2, ["x", "x"], "zz", "1/1"], "'zz'"),
    ([2, [["x"], "x"], "y", "1/1"], "('x',)")], ids=["word", "value", "tuple"])
@pytest.mark.parametrize("argv", [["validate", "@bad"],
                                  ["mc-check", "s3", "@bad", "@whitehead"]],
                         ids=["validate", "mc-check"])
def test_bracket_keys_outside_the_basis_are_refused(files, capsys, argv,
                                                    row, key):
    (files / "bad.json").write_text(json.dumps(
        {**RECORDS["pi_s2_model"], "brackets": [row]}))
    err = refusal(capsys, argv, files)
    assert err == {"where": "brackets[0]",
                   "error": f"brackets[0]: {key} is not a basis key"}


@pytest.mark.parametrize("kind", ["missing", "directory"])
@pytest.mark.parametrize("argv", [
    ["validate", "FILE"],
    ["gauge-check", "FILE"],
    ["mc-check", "s3", "pi_s2", "FILE"],
    ["hopf", "s3", "s2", "FILE"],
    ["homotopic", "s3", "s2", "@eta1", "FILE"]],
    ids=["validate", "gauge-check", "mc-check-tau", "hopf-map",
         "homotopic-g"])
def test_a_file_that_cannot_be_read_is_named(files, capsys, argv, kind):
    path = files / "nofile"
    if kind == "directory":
        path.mkdir()
    err = refusal(capsys, [str(path) if a == "FILE" else a for a in argv],
                  files)
    assert err["where"] == str(path)
    assert err["error"].startswith(f"{path}: ")


def test_an_out_path_that_cannot_be_written_is_named(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    err = refusal(capsys, ["cobar", "cp2", "--out", str(target)])
    assert err["where"] == "--out"
    assert not target.parent.exists()


@pytest.mark.parametrize("field", ["basis", "d", "delta"])
def test_coalgebra_fields_that_are_not_lists_are_refused(tmp_path, capsys,
                                                         field):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({**RECORDS["cp2_model"], field: 5}))
    err = refusal(capsys, ["homology", str(path)])
    assert err == {"where": field, "error": f"{field}: expected a list, got 5"}
