"""Small shared helpers for deterministic serialization."""

from __future__ import annotations

import hashlib
import json
from json.encoder import encode_basestring_ascii as _quote

# A value that is not a container (None, bool, int, float, str), written as
# json.dumps writes it; other types raise json.dumps's TypeError.
_scalar = json.JSONEncoder().encode


def canonical_json(obj) -> str:
    """Stable rendering: sorted keys, two-space indent, trailing newline.

    The text is exactly `json.dumps(obj, sort_keys=True, indent=2) + "\\n"`,
    and the same inputs raise TypeError.  The standard library renders
    indented JSON through a chain of pure-Python generators; this writer
    builds the same text with one call and one join per value.  Reference
    cycles are not detected: they recurse until RecursionError.
    """
    return _render(obj, "\n") + "\n"


def _key(k) -> str:
    if isinstance(k, str):
        return _quote(k)
    if k is None or isinstance(k, (int, float)):
        return _quote(_scalar(k))
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


def _render(o, nl: str) -> str:
    """The JSON text of o, whose first line starts at the indent ending `nl`."""
    kind = type(o)
    if kind is str:
        return _quote(o)
    if kind is int:
        return int.__repr__(o)
    inner = nl + "  "
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        return "[" + inner + ("," + inner).join([_render(v, inner) for v in o]) + nl + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        items = sorted(o.items())
        return "{" + inner + ("," + inner).join([_key(k) + ": " + _render(v, inner) for k, v in items]) + nl + "}"
    return _scalar(o)


def load_json(text: str):
    """json.loads, where every failure to decode is a ValueError.

    json.JSONDecodeError passes through, with its position.  Nesting deeper
    than the interpreter's recursion limit, and an integer literal longer
    than the interpreter converts, have none; they are raised as a plain
    ValueError that says which.
    """
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except RecursionError:
        raise ValueError("invalid JSON: nested too deeply") from None
    except ValueError as exc:
        raise ValueError(f"invalid JSON: {str(exc).split(';')[0]}") from None


def sha256_hex(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()
