"""The record writer against its oracle.

modelio.dumps_record must return the bytes of json.dumps with sorted keys
and an indent of 2, plus a newline, on every value a record can hold:
nested dicts, lists and tuples (empty ones too), strings that need
escaping, big and negative ints, bools, None, and dicts keyed by ints,
bools or None.  It shares the text of a container that appears more than
once, so generated values also hold the same object at several depths.
What json refuses it refuses, and it also refuses a float, which no
report may hold.  operation_rows orders its rows by integer arity.
"""

import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from convmc import modelio
from convmc.barcobar import cobar
from convmc.graded import GradedSpace
from convmc.hopf import loop_homology
from convmc.library import builtin_model
from convmc.models import SymmetricOperations
from test_models import cp3_coalgebra


def oracle(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


TEXT = st.text(st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f'
                                         "é \ud800\U0001f600"),
                         st.characters()))
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(),
                    st.integers(min_value=-2 ** 200, max_value=2 ** 200),
                    TEXT)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(TEXT, children, max_size=4),
        # ints and bools compare with each other, so they may share a dict
        st.dictionaries(st.one_of(st.integers(), st.booleans()), children,
                        max_size=4),
        st.dictionaries(st.none(), children, max_size=1))


VALUES = st.recursive(SCALARS, _containers, max_leaves=12)
# one object at several depths, as the row builders share encoded keys
SHARED = st.builds(lambda v, w: [v, [w, v, [v]], {"k": v, "t": (v, w)}],
                   VALUES, VALUES)


@settings(max_examples=300, deadline=None)
@given(st.one_of(VALUES, SHARED))
def test_dumps_record_is_json_dumps_indented(value):
    assert modelio.dumps_record(value) == oracle(value)


def test_shared_containers_keep_their_indentation():
    key = ["br", ["br", "x1", "x1"], "x3"]
    value = {"a": [key, [key]], "b": key, "c": {"d": (key,)}}
    assert modelio.dumps_record(value) == oracle(value)


def test_int_keys_sort_as_ints():
    value = {10: "a", 2: "b", -1: "c", True: "d"}
    assert modelio.dumps_record(value) == oracle(value)


@pytest.mark.parametrize("value", [
    {"a": 1, 2: 3},
    {None: 1, "a": 2},
    {None: 1, 0: 2},
], ids=["str-int", "none-str", "none-int"])
def test_mixed_key_types_are_refused_as_json_refuses_them(value):
    with pytest.raises(TypeError):
        oracle(value)
    with pytest.raises(TypeError):
        modelio.dumps_record(value)


@pytest.mark.parametrize("value", [
    {"a": 0.5},
    [1.0],
    {"c": F(1, 2)},
    {1.5: "a"},
    {("a", "b"): 1},
    {"s": {1, 2}},
    {"b": b"x"},
], ids=["float", "float-in-list", "fraction", "float-key", "tuple-key",
        "set", "bytes"])
def test_values_outside_a_record_are_refused(value):
    with pytest.raises(TypeError):
        modelio.dumps_record(value)


def test_records_with_shared_keys_are_json_dumps_indented():
    # bracket words named by many rows: a quillen record's delta, an
    # linfty record's brackets and a coalgebra's coproduct
    quillen = modelio.quillen_to_record(cobar(cp3_coalgebra(),
                                              degree_max=8))
    linfty = modelio.linfty_to_record(
        loop_homology(builtin_model("s2vs3"), 6).algebra)
    cdgc = modelio.cdgc_to_record(cp3_coalgebra())
    for rec in (quillen, linfty, cdgc):
        assert modelio.dumps_record(rec) == oracle(rec)
    # some bracket word is one object named by several rows
    words = [k for row in quillen["delta"] for k in row[:2]
             if isinstance(k, list)]
    assert len({id(k) for k in words}) < len(words)


def test_operation_rows_are_grouped_by_integer_arity():
    # the canonical text of arity 10 sorts before that of arity 2
    sp = GradedSpace({0: ["x"], 2: ["y"]}, name="S")
    ops = SymmetricOperations(sp, sp, 0, {n: {("x",) * n: {"y": 1}}
                                          for n in (10, 2, 9)})
    assert [row[0] for row in modelio.operation_rows(ops)] == [2, 9, 10]
