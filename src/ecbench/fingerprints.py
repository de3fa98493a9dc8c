"""Canonical JSON serialization and SHA-256 fingerprints for artifact files.

The writers here run CPython's C encoder only: `json.dumps` with `indent`
always takes the pure-Python one, so indented text is laid out a container at
a time, with every scalar, and every list of scalars, encoded by C. A list of
strings that need no escapes is not encoded at all: its strings are joined.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterable, Iterator
from json.encoder import encode_basestring_ascii


# `json.dumps` with these arguments builds this same encoder on every call
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_CONTAINERS = (dict, list, tuple)
_SLICE = 1024  # items of a long list per encoder call in `fingerprint`
_DEPTH = 8  # containers `fingerprint` opens before encoding a value whole
# the bytes a JSON string holds as they are: printable ASCII but `"` and `\`
_PLAIN = bytes(range(0x20, 0x7F)).replace(b'"', b"").replace(b"\\", b"")


def canonical_json(doc) -> str:
    """Deterministic JSON encoding: sorted keys, compact separators."""
    plain = _plain_strings(doc, ",")
    return "[" + plain + "]" if plain is not None else _CANONICAL.encode(doc)


def _plain_strings(items, sep: str) -> str | None:
    """The JSON text of the items of `items`, with `sep` between them, when
    `items` is a non-empty list or tuple of strings whose characters the
    encoder writes as they are (`_PLAIN`): the strings are joined, not
    encoded one by one. None for any other value."""
    if not isinstance(items, (list, tuple)) or not items:
        return None
    try:
        text = "".join(items)
    except TypeError:  # an item that is not a string
        return None
    if not text.isascii() or text.encode().translate(None, _PLAIN):
        return None
    return '"' + ('"' + sep + '"').join(items) + '"'


def canonical_column(values: list) -> list[str]:
    """`canonical_json(v)` for each v of `values`, from one encoder call split
    at its commas. The split is exact when it gives one piece per value; when
    a value's own text holds a comma, each value is encoded alone."""
    if not values:
        return []
    pieces = _CANONICAL.encode(values)[1:-1].split(",")
    if len(pieces) == len(values):
        return pieces
    return [_CANONICAL.encode(v) for v in values]


def indented_json(doc) -> str:
    """`json.dumps(doc, indent=2)` for a document whose dict keys are
    strings; any other key raises TypeError."""
    return _indented(doc, "\n")


def _indented(value, newline: str) -> str:
    inner = newline + "  "
    if isinstance(value, dict) and value:
        return "{" + inner + ("," + inner).join(
            encode_basestring_ascii(k) + ": " + _indented(v, inner)
            for k, v in value.items()) + newline + "}"
    if isinstance(value, (list, tuple)) and value:
        plain = _plain_strings(value, "," + inner)
        if plain is not None:
            return "[" + inner + plain + newline + "]"
        if any(issubclass(t, _CONTAINERS) for t in set(map(type, value))):
            return "[" + inner + ("," + inner).join(
                _indented(v, inner) for v in value) + newline + "]"
        # a list of scalars in one call, with this depth's item separator
        text = json.JSONEncoder(separators=("," + inner, ":")).encode(value)
        return "[" + inner + text[1:-1] + newline + "]"
    return _CANONICAL.encode(value)  # a scalar, or an empty container


def fingerprint(doc) -> str:
    """The SHA-256 of `canonical_json(doc)`, hashed a piece of the text at a
    time (`_canonical_pieces`), so that the whole text is never built."""
    return fingerprint_pieces(_canonical_pieces(doc, 0))


def _canonical_pieces(value, depth: int) -> Iterator[str]:
    """The text of `canonical_json(value)` in pieces. A list or tuple of
    more than `_SLICE` items goes `_SLICE` items per encoder call, whatever
    they are (only a piece's size depends on them), and a shorter one that
    holds a container item by item; a dict with string keys that holds a
    container or more than `_SLICE` values goes key by key in sorted order.
    Every other value is encoded whole, as is a container `_DEPTH` levels
    down, so a cycle meets the encoder's own check, and a dict with another
    key type meets its sort and key rules."""
    kind = type(value)
    if kind in _CONTAINERS and value and depth < _DEPTH:
        if kind is not dict and len(value) > _SLICE:
            for first in range(0, len(value), _SLICE):
                yield ("," if first else "[") + canonical_json(
                    value[first:first + _SLICE])[1:-1]
            yield "]"
            return
        nested = any(issubclass(t, _CONTAINERS) for t in set(map(
            type, value.values() if kind is dict else value)))
        if kind is dict:
            if ((nested or len(value) > _SLICE)
                    and all(type(key) is str for key in value)):
                opening = "{"
                for key in sorted(value):
                    yield opening + encode_basestring_ascii(key) + ":"
                    yield from _canonical_pieces(value[key], depth + 1)
                    opening = ","
                yield "}"
                return
        elif nested:
            opening = "["
            for item in value:
                yield opening
                yield from _canonical_pieces(item, depth + 1)
                opening = ","
            yield "]"
            return
    yield canonical_json(value)


def fingerprint_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fingerprint_pieces(pieces: Iterable[str]) -> str:
    """`fingerprint_bytes` of the UTF-8 text that `pieces` join to, hashed
    a piece at a time, so that the whole text is never built."""
    digest = hashlib.sha256()
    for piece in pieces:
        digest.update(piece.encode())
    return digest.hexdigest()
