"""Canonical JSON serialization and SHA-256 fingerprints for artifact files."""

from __future__ import annotations

import hashlib
import json


# `json.dumps` with these arguments builds this same encoder on every call
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(doc) -> str:
    """Deterministic JSON encoding: sorted keys, compact separators."""
    return _CANONICAL.encode(doc)


def fingerprint(doc) -> str:
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()


def fingerprint_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
