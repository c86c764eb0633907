"""Arbitrary and near-valid JSON documents for every file-reading subcommand.

Whatever the document, a run ends with exit code 0, 1 or 2, never with an
uncaught exception, and prints exactly one manifest line, last on stderr.
Near-valid documents start from a well-formed one, replace one of its
header fields (often by a number of any size), perhaps empty its body,
and mutate up to two values anywhere in it, so the fuzz reaches past the
first structural checks into every field of each format.
"""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from arrovian._util import canonical_json
from arrovian.cli import main
from arrovian.profiles import Domain
from arrovian.swf import expand_to_explicit, swf_to_json_dict
from swf_oracle import dictator_rules

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8)
    | st.sampled_from(["A", "B", "C", "A>B>C", "A~B>C", "FIRST", "weak", "linear", "explicit"])
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
values = scalars | json_values  # scalars alone often, so header fields get odd numbers
# Header numbers of every size: small ones, and powers of ten up to 4000 digits.
numbers = st.integers() | st.integers(0, 4000).map(lambda e: 10**e)

_PAIRWISE = swf_to_json_dict(dictator_rules(1, 3, 2, Domain.LINEAR))
_EXPLICIT = swf_to_json_dict(expand_to_explicit(dictator_rules(0, 3, 2, Domain.LINEAR)))
BASES = {
    "swf": [_PAIRWISE, _EXPLICIT],
    "profile": [{"m": 3, "n": 3, "labels": ["A", "B", "C"], "prefs": ["A>B>C", "C>A>B", "B~C>A"]}],
    "family": [
        {"n": 2, "members": [[0], [0, 1]]},
        {"n": 3, "members": [[1, 2], [0, 1, 2]]},
    ],
}
HEADER_KEYS = ("kind", "m", "n", "domain")
EMPTY_BODY = {"entries": [], "rules": {}, "prefs": [], "members": []}
COMMANDS = {
    "axioms": (["axioms", "--swf"], "swf"),
    "bridge extract": (["bridge", "extract", "--swf"], "swf"),
    "bridge ks2": (["bridge", "ks2", "--swf"], "swf"),
    "condorcet-demo": (["condorcet-demo", "--profile"], "profile"),
    "filters": (["filters", "--family"], "family"),
}


@st.composite
def mutated(draw, doc):
    """`doc` with one value replaced, or one key or element dropped or added."""
    if not (isinstance(doc, (dict, list)) and doc):
        return draw(values)
    out = dict(doc) if isinstance(doc, dict) else list(doc)
    where = draw(st.sampled_from(sorted(out) if isinstance(out, dict) else range(len(out))))
    action = draw(st.sampled_from(["descend", "replace", "drop", "add"]))
    if action == "descend":
        out[where] = draw(mutated(out[where]))
    elif action == "replace":
        out[where] = draw(values)
    elif action == "drop":
        del out[where]
    elif isinstance(out, dict):
        out[draw(st.text(max_size=6))] = draw(values)
    else:
        out.insert(where, draw(values))
    return out


@st.composite
def near_valid(draw, kind):
    """A base document with one header field replaced, its body perhaps
    emptied, and then up to two values mutated anywhere in it."""
    doc = dict(draw(st.sampled_from(BASES[kind])))
    key = draw(st.sampled_from([key for key in HEADER_KEYS if key in doc]))
    doc[key] = draw(numbers | values)
    if draw(st.booleans()):
        doc.update((key, body) for key, body in EMPTY_BODY.items() if key in doc)
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        doc = draw(mutated(doc))
    return canonical_json(doc)


def documents(kind):
    """Near-valid documents half the time; otherwise any JSON value or any text."""
    return st.one_of(near_valid(kind), json_values.map(json.dumps) | st.text(max_size=40))


def check_run(tmp_path, capsys, command, text):
    prefix, _ = COMMANDS[command]
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    code = main([*prefix, str(path)])
    err = capsys.readouterr().err
    assert code in (0, 1, 2), (command, code, text)
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    manifests = [line for line in lines if '"schema":"arrovian/manifest/v1"' in line]
    assert len(manifests) == 1 and lines[-1] == manifests[0], err
    assert json.loads(manifests[0])["command"] == command


FUZZ = settings(
    max_examples=500,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)


@FUZZ
@given(documents("swf"))
def test_fuzz_axioms(tmp_path, capsys, text):
    check_run(tmp_path, capsys, "axioms", text)


@FUZZ
@given(documents("swf"))
def test_fuzz_bridge_extract(tmp_path, capsys, text):
    check_run(tmp_path, capsys, "bridge extract", text)


@FUZZ
@given(documents("swf"))
def test_fuzz_bridge_ks2(tmp_path, capsys, text):
    check_run(tmp_path, capsys, "bridge ks2", text)


@FUZZ
@given(documents("profile"))
def test_fuzz_condorcet_profile(tmp_path, capsys, text):
    check_run(tmp_path, capsys, "condorcet-demo", text)


@FUZZ
@given(documents("family"))
def test_fuzz_filters_family(tmp_path, capsys, text):
    check_run(tmp_path, capsys, "filters", text)


def test_fuzz_bases_are_valid(tmp_path, capsys):
    """Every base document parses, so mutations start from a working run."""
    for command, (_, kind) in COMMANDS.items():
        for doc in BASES[kind]:
            path = tmp_path / "base.json"
            path.write_text(canonical_json(doc), encoding="utf-8")
            prefix, _ = COMMANDS[command]
            code = main([*prefix, str(path)])
            assert code in (0, 1), (command, capsys.readouterr().err)
            capsys.readouterr()
