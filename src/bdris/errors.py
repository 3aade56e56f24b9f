"""Exception types shared across the package, and its one positive-integer check."""

import numbers


class InputError(ValueError):
    """Malformed or out-of-contract input (CLI exit code 2)."""


class NumericalFailure(RuntimeError):
    """A numerical routine failed to converge or violated a hard check (CLI exit code 3)."""


def check_count(value, what: str) -> int:
    """value as an int; InputError unless it is a positive integer (a bool is not, a numpy integer is)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise InputError(f"{what} must be a positive integer, got {value!r}")
    return int(value)
