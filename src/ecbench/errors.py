"""Exception hierarchy shared across ecbench modules, and `check_type`,
through which the readers of input files refuse an ill-typed value."""

import numbers


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
               numbers.Integral: "an integer", numbers.Real: "a number"}


def check_type(what: str, value, wanted: type, error: type) -> None:
    """Raise `error` unless `value` is a `wanted`; a bool is not a number."""
    if not isinstance(value, wanted) or isinstance(value, bool):
        raise error(f"{what} must be {_TYPE_NAMES[wanted]}, not {value!r}")
