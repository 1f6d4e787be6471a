"""Tests of the benchmark's own logic: checks, oracles, inputs, tracing.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import inputs  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
EQUAL = ["homotopic", "@cp3", "@cp3", "@f2", "@f2", "--window", "12"]
DISTINCT = ["homotopic", "@cp3", "@cp3", "@f1", "@f2", "--window", "12"]
GOOD_EQUAL = {"rc": 0, "valid": True, "outcome": "equal"}
GOOD_DISTINCT = {"rc": 0, "valid": True, "outcome": "distinct"}


def pinned(out, rc):
    return {"exit": rc, "sha256": checks.sha256_text(out)}


def report(**fields):
    return json.dumps(fields, sort_keys=True, indent=2) + "\n"


def test_pinned_call_passes():
    out = report(outcome="equal")
    assert checks.check_call(EQUAL, 0, out, pinned(out, 0), GOOD_EQUAL) == []


def test_distinct_exit_one_is_a_pass():
    out = report(outcome="distinct")
    assert checks.check_call(DISTINCT, 1, out, pinned(out, 1),
                             GOOD_DISTINCT) == []


def test_doctored_output_fails():
    out = report(outcome="equal")
    pin = pinned(out, 0)
    doctored = out.replace("equal", "equaL")
    assert checks.check_call(EQUAL, 0, doctored, pin, GOOD_EQUAL)


def test_wrong_exit_code_fails():
    out = report(outcome="distinct")
    assert checks.check_call(DISTINCT, 0, out, pinned(out, 1), GOOD_DISTINCT)


def test_oracle_catches_a_wrong_answer_even_when_pinned():
    out = report(outcome="distinct")
    why = checks.check_call(EQUAL, 1, out, pinned(out, 1),
                            {"rc": 0, "valid": True, "outcome": "distinct"})
    assert any("outcome" in w for w in why)


def test_rejected_or_missing_certificate_fails():
    out = report(outcome="equal")
    bad = {"rc": 1, "valid": False, "outcome": "equal"}
    assert checks.check_call(EQUAL, 0, out, pinned(out, 0), bad)
    assert checks.check_call(EQUAL, 0, out, pinned(out, 0), None)


def test_unpinned_call_fails():
    assert checks.check_call(EQUAL, 0, report(outcome="equal"), None,
                             GOOD_EQUAL)


def test_unverified_component_class_fails():
    argv = ["components", "@cp3", "@s2vs3_loops"]
    good = report(classes=[{"verified": True}, {"verified": True}])
    bad = report(classes=[{"verified": True}, {"verified": False}])
    assert checks.check_call(argv, 0, good, pinned(good, 0)) == []
    assert checks.check_call(argv, 0, bad, pinned(bad, 0))


def test_transfer_oracle_compares_homology_dims():
    argv = ["transfer", "s2vs3", "--window", "5"]
    # free Lie on degrees 1, 2: dims 1, 2, 1 in degrees 1..3, shifted by one
    rows = [{"degree": d, "name": f"H{d}_{i}"}
            for d, n in ((2, 1), (3, 2), (4, 1)) for i in range(n)]
    good = report(homology=rows)
    bad = report(homology=rows[:-1])
    assert checks.check_call(argv, 0, good, pinned(good, 0)) == []
    assert checks.check_call(argv, 0, bad, pinned(bad, 0))


def test_cobar_oracle_compares_basis_dims():
    argv = ["cobar", "@cp3", "--window", "4"]
    out = report(exact_through=3)
    good = {"dims": {"1": 1, "2": 1, "3": 1}}
    bad = {"dims": {"1": 1, "2": 1, "3": 2}}
    assert checks.check_call(argv, 0, out, pinned(out, 0), good) == []
    assert checks.check_call(argv, 0, out, pinned(out, 0), bad)
    assert checks.check_call(argv, 0, out, pinned(out, 0), None)


def test_witt_dims_of_small_free_lie_algebras():
    # one odd generator x: x and [x, x] only
    assert checks.witt_dims((1,), 5) == {1: 1, 2: 1, 3: 0, 4: 0, 5: 0}
    # one even generator: [y, y] = 0
    assert checks.witt_dims((2,), 4) == {1: 0, 2: 1, 3: 0, 4: 0}
    # two odd generators x, y: [x, x], [x, y], [y, y] in degree 2
    assert checks.witt_dims((1, 1), 4) == {1: 2, 2: 3, 3: 2, 4: 3}
    assert checks.witt_dims((1, 2), 10)[10] == 13


def test_witt_dims_reproduce_tensor_algebra():
    # PBW: the dims must rebuild the Poincare series of T(V)
    degrees, top = (1, 3, 5, 7), 12
    dims = checks.witt_dims(degrees, top)
    series = [1] + [0] * top
    for n, d in dims.items():
        for _ in range(d):
            if n % 2:
                for i in range(top, n - 1, -1):
                    series[i] += series[i - n]
            else:
                for i in range(n, top + 1):
                    series[i] += series[i - n]
    tensor = [1] + [0] * top
    for n in range(1, top + 1):
        tensor[n] = sum(tensor[n - d] for d in degrees if d <= n)
    assert series == tensor


@pytest.mark.parametrize("seed", [0, 1, 2, 17, 12345])
def test_hopf_pairs_are_seeded_and_balanced(seed):
    pairs = workloads.hopf_pairs(seed)
    assert pairs == workloads.hopf_pairs(seed)
    assert len(pairs) == workloads.HOPF_CALLS
    assert sum(j == k for j, k in pairs) == workloads.HOPF_EQUAL
    uses = Counter(x for pair in pairs for x in pair)
    assert set(uses.values()) == {2 * workloads.HOPF_CALLS
                                  // len(workloads.HOPF_DEGREES)}


def test_seeds_draw_different_pairs():
    assert len({tuple(workloads.hopf_pairs(s)) for s in range(10)}) > 1


def _coproduct(rec):
    delta = {}
    for src, a, b, c in rec["delta"]:
        delta.setdefault(src, {})[(a, b)] = Fraction(c)
    return delta


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_cp_coalgebra_is_coassociative(n):
    delta = _coproduct(inputs.cp_coalgebra(n))

    def left(x):   # (delta (x) 1) delta
        out = Counter()
        for (a, b), c in delta.get(x, {}).items():
            for (a1, a2), c1 in delta.get(a, {}).items():
                out[(a1, a2, b)] += c * c1
        return out

    def right(x):  # (1 (x) delta) delta
        out = Counter()
        for (a, b), c in delta.get(x, {}).items():
            for (b1, b2), c1 in delta.get(b, {}).items():
                out[(a, b1, b2)] += c * c1
        return out

    for k in range(1, n + 1):
        assert left(f"a{k}") == right(f"a{k}")


@pytest.mark.parametrize("k", workloads.HOPF_DEGREES)
def test_self_map_commutes_with_coproduct(k):
    delta = _coproduct(inputs.cp_coalgebra(3))
    f = {src: Fraction(c) for src, dst, c in inputs.self_map(3, k)["entries"]}
    for x, terms in delta.items():
        for (a, b), c in terms.items():
            assert f.get(x, 0) * c == f.get(a, 0) * f.get(b, 0) * c


def test_frozen_target_matches_its_digest():
    assert inputs.sha256_file(inputs.S2VS3_LOOPS) == inputs.S2VS3_LOOPS_SHA256


def test_self_times_and_uncovered_time_add_up_to_wall():
    t = tracer.Tracer()
    t.spans = [["a", -1, 0.0, 4.0], ["b", 0, 1.0, 2.5], ["c", 1, 1.5, 2.0],
               ["b", -1, 5.0, 6.0]]
    calls, self_s, covered = t.aggregate()
    assert dict(calls) == {"a": 1, "b": 2, "c": 1}
    assert self_s["a"] == pytest.approx(2.5)
    assert self_s["b"] == pytest.approx(2.0)
    assert self_s["c"] == pytest.approx(0.5)
    wall = 7.0
    assert sum(self_s.values()) + (wall - covered) == pytest.approx(wall)


def test_count_within_counts_outermost_calls_only():
    t = tracer.Tracer()

    def fact(n):
        return 1 if n <= 1 else n * counted(n - 1)

    counted = t.count_within("fact.calls", "outer", fact)
    outer = t.span("outer", lambda: counted(5) + counted(3))
    assert outer() == 126
    counted(4)  # outside the span: not counted
    assert t.counts["fact.calls"] == 2


def test_metric_names_match_the_declaration():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = set(tracer.layer_metrics(tracer.Tracer(), 1.0, 0))
    names |= {"trace.untraced_wall_s", "trace.overhead_ratio"}
    assert names == {m["name"] for m in spec["per_layer"]}


def test_run_refuses_a_tree_without_sources(tmp_path):
    root = os.path.dirname(HERE)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hopf-batch",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
