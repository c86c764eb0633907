"""Small shared helpers for deterministic serialization and JSON input."""

from __future__ import annotations

import hashlib
import json
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, Iterator

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


class FormatError(ValueError):
    """An input document failed to decode or validate; `location` says where, when known."""

    def __init__(self, message: str, location: str | None = None):
        self.location = location
        super().__init__(message if location is None else f"{location}: {message}")


def load_object(data: str | dict, error: type[FormatError], kind: str) -> dict:
    """The JSON object in `data`, which is text or an already-decoded value.

    Every defect raises `error`: a syntax error with its line and column as
    `location`; nesting deeper than the interpreter's recursion limit, or
    an integer literal longer than it converts, saying which; and any value
    other than an object as "<kind> document must be a JSON object".
    """
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise error(f"invalid JSON: {exc.msg}", location=f"line {exc.lineno}, column {exc.colno}") from None
        except RecursionError:
            raise error("invalid JSON: nested too deeply") from None
        except ValueError as exc:
            raise error(f"invalid JSON: {str(exc).split(';')[0]}") from None
    if not isinstance(data, dict):
        raise error(f"{kind} document must be a JSON object")
    return data


def slices(data: bytes | str) -> Iterator[bytes | str]:
    """data in consecutive slices of 2**20 items, so that encoding text one slice at a time never copies all of it."""
    return (data[i : i + (1 << 20)] for i in range(0, len(data), 1 << 20))


def sha256_hex(data: bytes | str, write: Callable[[bytes], object] | None = None) -> str:
    """The sha256 of data, text as UTF-8, hashed a slice at a time; `write`, when given, gets each
    slice's bytes too, so that text which is both written and hashed is encoded once."""
    h = hashlib.sha256()
    for piece in slices(data):
        piece = piece.encode("utf-8") if isinstance(piece, str) else piece
        h.update(piece)
        if write is not None:
            write(piece)
    return h.hexdigest()
