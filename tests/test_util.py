"""The canonical JSON writer against the standard library's encoder, the one JSON reader, and slice-wise sha256."""

import gc
import hashlib
import json
import sys
from functools import partial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arrovian._util import FormatError, canonical_json, sha256_hex
from arrovian.filters import CoalitionFamily
from arrovian.profiles import Domain, parse_profile_json
from arrovian.swf import parse_swf_json, swf_to_json_dict
from swf_oracle import borda_explicit, dictator_explicit


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


# Tables that canonical_json renders a column at a time: at least 8 rows of one shape, a shape
# being str, int or a row of shapes; a row is a list or a tuple at random.  Rows of no cells,
# and the poisons below, must take the value-by-value path.
shapes = st.recursive(st.sampled_from(["str", "int"]), lambda inner: st.lists(inner, max_size=3), max_leaves=6)
POISONS = [True, False, 1.5, None, {1}, b"x", [], ["a"], 10**5000]


def row_of(shape):
    if shape == "str":
        return texts
    if shape == "int":
        return st.integers()
    cells = st.tuples(*map(row_of, shape))
    return st.tuples(st.booleans(), cells).map(lambda kind_cells: list(kind_cells[1]) if kind_cells[0] else kind_cells[1])


def replaced(value, path: list[int], new):
    """value with the cell at path (indices into nested rows) replaced by new; value itself is not changed."""
    if not path:
        return new
    cells = list(value)
    cells[path[0]] = replaced(value[path[0]], path[1:], new)
    return cells if type(value) is list else tuple(cells)


@st.composite
def tables(draw):
    rows = draw(st.lists(row_of(draw(shapes)), min_size=8, max_size=24))
    for i, j in draw(st.lists(st.tuples(st.integers(0, len(rows) - 1), st.integers(0, len(rows) - 1)), max_size=3)):
        rows[i] = rows[j]  # one row object at two places
    if draw(st.booleans()):  # one cell, or one whole row or subrow, of another kind
        i = draw(st.integers(0, len(rows) - 1))
        path, cell = [], rows[i]
        while isinstance(cell, (list, tuple)) and cell and draw(st.booleans()):
            path.append(draw(st.integers(0, len(cell) - 1)))
            cell = cell[path[-1]]
        rows[i] = replaced(rows[i], path, draw(st.sampled_from(POISONS)))
    return rows if draw(st.booleans()) else tuple(rows)


def outcome(render, obj) -> tuple[str, str]:
    try:
        return "text", render(obj)
    except (TypeError, ValueError) as exc:
        return type(exc).__name__, str(exc)


@given(tables(), st.sampled_from([lambda t: t, lambda t: {"entries": t}, lambda t: [[t]]]))
def test_column_tables_match_json_dumps(table, place):
    assert outcome(canonical_json, place(table)) == outcome(reference, place(table))


@pytest.mark.parametrize(
    "obj",
    [
        [[]] * 8,
        [["a"]] * 7 + [[]],
        [["a", 1]] * 7 + [["a"]],
        [[1, [2, 3]]] * 8 + [[1, [2]]],
        [[1, "a"]] * 8 + [["a", 1]],
        [("a", [1, 2])] * 4 + [["b", (3, 4)]] * 4,
        list(range(-4, 4)),
        [True] * 8,
        ["a"] * 7 + [None],
        [1] * 7 + [10**5000],
    ],
)
def test_column_edge_cases_match_json_dumps(obj):
    assert outcome(canonical_json, obj) == outcome(reference, obj)


@pytest.mark.parametrize("make", [partial(dictator_explicit, 0), borda_explicit], ids=["dictator", "borda"])
@pytest.mark.parametrize("m,n,domain", [(4, 2, Domain.WEAK), (3, 3, Domain.WEAK), (5, 1, Domain.WEAK), (3, 5, Domain.LINEAR)])
def test_explicit_documents_match_json_dumps(make, m, n, domain):
    doc = swf_to_json_dict(make(m, n, domain))
    assert canonical_json(doc).splitlines() == reference(doc).splitlines()  # a line diff, should they differ


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
    with pytest.raises(FormatError) as repeated:  # at any depth
        parse('{"m": 3, "n": [{"m": 1, "m": 1}]}')
    assert repeated.value.location is None
    assert str(repeated.value) == "duplicate key 'm'"



# Each document parser, the same parser with the collector left on, and a document of a few hundred containers.
PARSERS = {
    "swf": (
        parse_swf_json,
        parse_swf_json.__wrapped__,
        canonical_json(swf_to_json_dict(dictator_explicit(1, 3, 2, Domain.WEAK))),
    ),
    "profile": (
        parse_profile_json,
        parse_profile_json.__wrapped__,
        json.dumps({"m": 3, "n": 40, "prefs": ["A>B>C", "C>B>A"] * 20}),
    ),
    "family": (
        CoalitionFamily.from_json_dict,
        partial(CoalitionFamily.from_json_dict.__wrapped__, CoalitionFamily),
        json.dumps({"n": 6, "members": [[0, *(v for v in range(1, 6) if a >> v & 1)] for a in range(0, 64, 2)]}),
    ),
}


@pytest.mark.parametrize("kind", PARSERS)
def test_document_parsers_hold_the_collector_off(kind):
    parse, unpaused, text = PARSERS[kind]
    code = parse.__wrapped__.__code__

    def collections_inside(run) -> list[bool]:
        """Per collection while run() runs, whether it came from inside the parser's own code."""
        inside = []

        def seen(phase, info):
            if phase == "start":
                frame = sys._getframe(1)
                while frame is not None and frame.f_code is not code:
                    frame = frame.f_back
                inside.append(frame is not None)

        threshold = gc.get_threshold()
        gc.callbacks.append(seen)
        gc.set_threshold(1)  # a collection at nearly every new container
        try:
            run()
        finally:
            gc.set_threshold(*threshold)
            gc.callbacks.remove(seen)
        return inside

    assert any(collections_inside(lambda: unpaused(text)))  # the probe sees a collection in the parse
    assert not any(collections_inside(lambda: parse(text)))
    assert not any(collections_inside(lambda: pytest.raises(FormatError, parse, text[:-3])))
    assert gc.isenabled()
    gc.disable()
    try:
        parse(text)
        assert not gc.isenabled()  # a collector that was off stays off
    finally:
        gc.enable()


def test_sha256_hex_hashes_text_whole_or_in_pieces():
    """Text longer than a slice, with multi-byte characters across the slice boundaries, hashes as
    its UTF-8 bytes whether given whole, as bytes or as pieces; `write` gets exactly those bytes."""
    text = "é☃" * 50_000 + "x" * 70_001
    data = text.encode("utf-8")
    written = []
    assert sha256_hex([text[:7], "", text[7:]], written.append) == hashlib.sha256(data).hexdigest()
    assert sha256_hex(text) == sha256_hex(data) == hashlib.sha256(data).hexdigest()
    assert b"".join(written) == data
    assert len(written) > 2  # written a slice at a time
