"""Exception hierarchy shared across ecbench modules, and the checks through
which the readers of input files refuse an ill-typed value."""

import json
import numbers
from pathlib import Path


class EcbenchError(Exception):
    """Base class for all ecbench errors."""


class SpaceError(EcbenchError):
    """Invalid factor or configuration-space input."""


class PlanError(EcbenchError):
    """Invalid sampling-design parameters or plan contents."""


class ExecutionError(EcbenchError):
    """A measurement run failed (launch error, bad exit, timeout, bad duration)."""


class PairingError(EcbenchError):
    """Two result sets do not cover identical (ec_index, ordinal) keys."""


class FingerprintError(EcbenchError):
    """A persisted artifact does not match its recorded fingerprint."""


_TYPE_NAMES = {str: "a string", int: "an integer",
               numbers.Integral: "an integer", numbers.Real: "a number",
               dict: "a JSON object"}


def check_type(what: str, value, wanted: type, error: type) -> None:
    """Raise `error` unless `value` is a `wanted`; a bool is not a number."""
    if not isinstance(value, wanted) or isinstance(value, bool):
        raise error(f"{what} must be {_TYPE_NAMES[wanted]}, not {value!r}")


def check_objects(what: str, values, error: type) -> None:
    """Raise `error` unless `values` is a list of JSON objects."""
    if type(values) is not list or not {dict}.issuperset(map(type, values)):
        raise error(f"{what} must be a list of JSON objects")


def read_object(path: str | Path, error: type) -> dict:
    """The JSON object in the file at `path`; `error` for another value."""
    doc = json.loads(Path(path).read_text())
    if type(doc) is not dict:
        raise error(f"{path} must hold a JSON object")
    return doc
