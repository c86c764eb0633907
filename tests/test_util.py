"""The canonical JSON writer against the standard library's encoder, and the one JSON reader."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arrovian._util import FormatError, canonical_json
from arrovian.filters import CoalitionFamily
from arrovian.profiles import parse_profile_json
from arrovian.swf import parse_swf_json


def reference(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


SPECIAL = ['"', "\\", "/", "\n", "\r", "\t", "\x00", "\x1f", "\x7f", "é", "☃", "\U0001f600", "\ud800"]
texts = st.text() | st.lists(st.sampled_from(SPECIAL + ["a", " "])).map("".join)
scalars = st.none() | st.booleans() | st.integers() | st.floats() | texts
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(texts, inner),
    max_leaves=40,
)


@given(values)
def test_matches_json_dumps(obj):
    assert canonical_json(obj) == reference(obj)


@pytest.mark.parametrize(
    "obj",
    [
        {},
        [],
        (),
        {"a": {}, "b": [], "c": [{}], "d": [[]]},
        {"x": [1, 2], "y": [1, 2]},
        {10: "int", 9: "int"},
        {2.5: "float", float("nan"): "nan"},
        {True: "bool", False: "bool"},
        {None: "null"},
        [float("nan"), float("inf"), -float("inf"), -0.0, 1e300],
    ],
)
def test_matches_json_dumps_on_edge_cases(obj):
    assert canonical_json(obj) == reference(obj)


def test_shared_containers_render_at_each_place():
    shared = [[0, 1], [], []]
    assert canonical_json({"a": shared, "b": [shared]}) == reference({"a": shared, "b": [shared]})


@pytest.mark.parametrize(
    "obj",
    [
        {1, 2},
        b"bytes",
        object(),
        {"a": [frozenset()]},
        {("tuple", "key"): 1},
        {"a": 1, 2: "b"},
    ],
    ids=["set", "bytes", "object", "nested-frozenset", "tuple-key", "mixed-keys"],
)
def test_raises_type_error_where_json_dumps_does(obj):
    with pytest.raises(TypeError) as expected:
        reference(obj)
    with pytest.raises(TypeError) as got:
        canonical_json(obj)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize(
    "parse,kind",
    [(parse_swf_json, "swf"), (parse_profile_json, "profile"), (CoalitionFamily.from_json_dict, "family")],
)
def test_every_document_parser_reports_json_defects_alike(parse, kind):
    with pytest.raises(FormatError) as truncated:
        parse('{"m": 3,')
    assert truncated.value.location == "line 1, column 9"
    assert str(truncated.value) == "line 1, column 9: invalid JSON: Expecting property name enclosed in double quotes"
    with pytest.raises(FormatError) as array:
        parse("[1, 2]")
    assert array.value.location is None
    assert str(array.value) == f"{kind} document must be a JSON object"
