"""Small shared helpers for deterministic serialization and JSON input: the indented JSON
writer, which renders an explicit SWF's table a column at a time, the one JSON reader of the
document parsers and the collector pause they run under, slice-wise sha256, and `Value`, the
base of the package's record classes."""

from __future__ import annotations

import functools
import gc
import hashlib
import json
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, Iterator

# A value that is not a container (None, bool, int, float, str), written as
# json.dumps writes it; other types raise json.dumps's TypeError.
_scalar = json.JSONEncoder().encode


class Value:
    """Base of the package's record classes: equality, hash and repr over their compared fields.

    The compared fields are `_fields` where a class names them, else its `__slots__`.  Two
    records are equal when they are of one class with equal fields, and a record hashes as the
    tuple of its fields.  A subclass's `__init__` sets them, and nothing assigns a hashed
    record's fields afterwards; a mutable record sets `__hash__ = None`.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = fields = cls.__dict__.get("_fields", cls.__dict__.get("__slots__"))
        get = attrgetter(*fields)  # one field gives the value itself, which the key wraps in a tuple
        cls._key = staticmethod(get if len(fields) > 1 else lambda self: (get(self),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"


def canonical_json(obj) -> str:
    """Stable rendering: sorted keys, two-space indent, trailing newline.

    The text is exactly `json.dumps(obj, sort_keys=True, indent=2) + "\\n"`,
    and the same inputs raise TypeError.  The standard library renders
    indented JSON through a chain of pure-Python generators; this writer
    builds the same text with one call and one join per value, except that
    a list that `_column` takes whole (an explicit SWF's entries) is
    rendered a column at a time, with no Python call per value.  Every other
    list is rendered value by value, so errors arise in json.dumps's order.
    Reference cycles are not detected: they recurse until RecursionError.
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
        # The column set-up costs about as much as 8 per-value calls of a row list.
        if len(o) >= 8 and (pieces := _column(o, inner)) is not None:
            sep, stride = "," + inner, len(pieces) // len(o)
            if stride == 1:
                return "[" + inner + sep.join(pieces) + nl + "]"
            pieces[stride - 1 : -1 : stride] = [pieces[-1] + sep] * (len(o) - 1)  # each row's close, then a comma
            return "[" + inner + "".join(pieces) + nl + "]"
        return "[" + inner + ("," + inner).join([_render(v, inner) for v in o]) + nl + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        items = sorted(o.items())
        return "{" + inner + ("," + inner).join([_key(k) + ": " + _render(v, inner) for k, v in items]) + nl + "}"
    return _scalar(o)


def _column(col, nl: str) -> list[str] | None:
    """The JSON texts of the values of col, rendered at the indent ending `nl`, as one flat list
    of the same number of pieces per value; None unless every value is an exact str, every value
    an exact int that converts, or every value a list or tuple of one nonzero length whose
    transposed columns qualify in turn.  Each str column quotes each distinct string once, and
    a row column interleaves its columns' pieces by slice assignment."""
    kinds = set(map(type, col))
    if kinds == {str}:
        quoted = {s: _quote(s) for s in set(col)}
        return list(map(quoted.__getitem__, col))
    if kinds == {int}:
        try:
            return list(map(int.__repr__, col))
        except ValueError:  # over the conversion limit: raised by _render, in its order
            return None
    if not kinds <= {list, tuple} or len(widths := set(map(len, col))) != 1 or widths == {0}:
        return None
    inner = nl + "  "
    # Transposed by itemgetter, not zip(*col), which would make an iterator object per row.
    cells = [_column(list(map(itemgetter(i), col)), inner) for i in range(widths.pop())]
    if None in cells:
        return None
    strides = [len(pieces) // len(col) for pieces in cells]
    stride = sum(strides) + len(cells) + 1  # "[" + inner, cells separated by "," + inner, nl + "]"
    out = ["," + inner] * (len(col) * stride)
    out[::stride] = ["[" + inner] * len(col)
    out[stride - 1 :: stride] = [nl + "]"] * len(col)
    at = 1
    for pieces, s in zip(cells, strides):
        for t in range(s):
            out[at + t :: stride] = pieces[t::s]
        at += s + 1
    return out


class FormatError(ValueError):
    """An input document failed to decode or validate; `location` says where, when known."""

    def __init__(self, message: str, location: str | None = None):
        self.location = location
        super().__init__(message if location is None else f"{location}: {message}")


def load_object(data: str | dict, error: type[FormatError], kind: str) -> dict:
    """The JSON object in `data`, which is text or an already-decoded value.

    Every defect raises `error`: a syntax error with its line and column as
    `location`; an object, at any depth, that names one key twice, as
    "duplicate key '<key>'"; nesting deeper than the interpreter's recursion
    limit, or an integer literal longer than it converts, saying which; and
    any value other than an object as "<kind> document must be a JSON object".
    """
    if isinstance(data, str):

        def unique(pairs: list) -> dict:
            obj = dict(pairs)
            if len(obj) < len(pairs):
                seen = set()
                for key, _ in pairs:
                    if key in seen:
                        raise error(f"duplicate key {key!r}")
                    seen.add(key)
            return obj

        try:
            data = json.loads(data, object_pairs_hook=unique)
        except FormatError:
            raise
        except json.JSONDecodeError as exc:
            raise error(f"invalid JSON: {exc.msg}", location=f"line {exc.lineno}, column {exc.colno}") from None
        except RecursionError:
            raise error("invalid JSON: nested too deeply") from None
        except ValueError as exc:
            raise error(f"invalid JSON: {str(exc).split(';')[0]}") from None
    if not isinstance(data, dict):
        raise error(f"{kind} document must be a JSON object")
    return data


def acyclic(fn):
    """fn with the cyclic garbage collector held off while it runs; a collector already off stays off.

    For the document parsers: a decoded JSON document and the tables built
    from it hold no reference cycles, so a collection during a parse frees
    nothing, yet it walks the parse's new lists, and a full one every object
    in the heap, however large.  A parse frees its decoded document before it
    returns, so the collector, switched back on, owes no work for it.  The
    switch is process-wide: while a parse runs, no thread's objects are collected.
    """

    @functools.wraps(fn)
    def run(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return run


_SLICE = 1 << 16  # characters; under glibc malloc's 128 KB mmap threshold, so a slice's copy reuses freed heap


def slices(data: str) -> Iterator[str]:
    """data in consecutive slices of _SLICE characters, so that encoding them one at a time never copies all of it."""
    return (data[i : i + _SLICE] for i in range(0, len(data), _SLICE))


def sha256_hex(data: bytes | str | Iterable[str], write: Callable[[bytes], object] | None = None) -> str:
    """The sha256 of data: bytes whole, text as UTF-8 a slice at a time, whole or as an iterable of pieces;
    `write`, when given, gets the bytes too, so text both written and hashed is encoded once, as it comes."""
    h = hashlib.sha256()
    for text in (data,) if isinstance(data, (bytes, str)) else data:
        for piece in (text,) if isinstance(text, bytes) else map(str.encode, slices(text)):
            h.update(piece)
            if write is not None:
                write(piece)
    return h.hexdigest()
