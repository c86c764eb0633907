"""The canonical JSON writer against the standard library's encoder."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arrovian._util import canonical_json


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
