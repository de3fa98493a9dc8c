"""Canonical JSON serialization and SHA-256 fingerprints for artifact files.

The writers here run CPython's C encoder only: `json.dumps` with `indent`
always takes the pure-Python one, so indented text is laid out a container at
a time, with every scalar, and every list of scalars, encoded by C.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterable, Iterator
from json.encoder import encode_basestring_ascii


# `json.dumps` with these arguments builds this same encoder on every call
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_CONTAINERS = (dict, list, tuple)
_SLICE = 1024  # values of a list of scalars per encoder call in `fingerprint`
_DEPTH = 8  # containers `fingerprint` opens before encoding a value whole


def canonical_json(doc) -> str:
    """Deterministic JSON encoding: sorted keys, compact separators."""
    return _CANONICAL.encode(doc)


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


def indented_json(doc, sort_keys: bool = False) -> str:
    """`json.dumps(doc, sort_keys=sort_keys, indent=2)` for a document whose
    dict keys are strings; any other key raises TypeError."""
    return _indented(doc, sort_keys, "\n")


def _indented(value, sort_keys: bool, newline: str) -> str:
    inner = newline + "  "
    if isinstance(value, dict) and value:
        items = sorted(value.items()) if sort_keys else value.items()
        return "{" + inner + ("," + inner).join(
            encode_basestring_ascii(k) + ": " + _indented(v, sort_keys, inner)
            for k, v in items) + newline + "}"
    if isinstance(value, (list, tuple)) and value:
        if any(issubclass(t, _CONTAINERS) for t in set(map(type, value))):
            return "[" + inner + ("," + inner).join(
                _indented(v, sort_keys, inner) for v in value) + newline + "]"
        # a list of scalars in one call, with this depth's item separator
        text = json.JSONEncoder(separators=("," + inner, ":")).encode(value)
        return "[" + inner + text[1:-1] + newline + "]"
    return _CANONICAL.encode(value)  # a scalar, or an empty container


def fingerprint(doc) -> str:
    """The SHA-256 of `canonical_json(doc)`, hashed a piece of the text at a
    time (`_canonical_pieces`), so that the whole text is never built."""
    return fingerprint_pieces(_canonical_pieces(doc, 0))


def _canonical_pieces(value, depth: int) -> Iterator[str]:
    """The text of `canonical_json(value)` in pieces. A list or tuple that
    holds a container goes item by item, and one of more than `_SLICE`
    scalars `_SLICE` values per encoder call; a dict with string keys that
    holds a container or more than `_SLICE` values goes key by key in sorted
    order. Every other value is encoded whole, as is a container `_DEPTH`
    levels down, so a cycle meets the encoder's own check, and a dict with
    another key type meets its sort and key rules."""
    kind = type(value)
    if kind in _CONTAINERS and value and depth < _DEPTH:
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
        elif len(value) > _SLICE:
            for first in range(0, len(value), _SLICE):
                yield ("," if first else "[") + canonical_json(
                    value[first:first + _SLICE])[1:-1]
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
