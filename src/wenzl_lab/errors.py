"""Exception types shared across the package, the ambient-dimension cap,
and the one home of the integer and real argument rules.

The CLI maps these onto process exit codes, so anything user-facing
should raise one of them rather than a bare Exception.  The cap (default
N^legs <= 4096 per side) keeps every dense object at desk scale; whatever
allocates on N^legs legs checks it and raises DimensionCapError.  Every
count, level and cap goes through `_check_int`, every real
parameter through `_check_real`, and every array that must be real
through `_check_real_array`.
"""

from __future__ import annotations

import numbers

import numpy as np

__all__ = ["DEFAULT_DIM_CAP", "WenzlLabError", "DimensionCapError", "InvariantViolation"]

DEFAULT_DIM_CAP = 4096


class WenzlLabError(Exception):
    """Base class for all package-specific errors."""


class DimensionCapError(WenzlLabError):
    """A requested object exceeds the configured ambient-dimension cap."""


class InvariantViolation(WenzlLabError):
    """A mathematical identity that must hold numerically failed its tolerance.

    Raised only for internal consistency failures (never for bad user input),
    so it always indicates a genuine numerical or logic problem.
    """


def _check_int(name: str, value: object, least: int) -> int:
    """`value` as a Python int, so N ** value cannot wrap; ValueError for a
    bool, a non-integral value or one below `least`, which is 0 or 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        sign = "positive" if least else "non-negative"
        raise ValueError(f"{name} must be a {sign} integer, got {value!r}")
    return int(value)


def _check_real(name: str, value: object, rule: str, low: float, high: float) -> float:
    """`value` as a float; ValueError, naming `rule`, for a bool, a non-real
    value or one outside the open interval (low, high)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not low < value < high:
        raise ValueError(f"{name} must be {rule}, got {value!r}")
    return float(value)


def _check_real_array(what: str, value: object) -> np.ndarray:
    """`value` as a float64 array; ValueError if any imaginary part is nonzero,
    which a bare float64 cast would drop with only a warning, or if an entry
    is no number at all, where the cast raises TypeError."""
    arr = np.asarray(value)
    if np.iscomplexobj(arr) and np.any(arr.imag):
        raise ValueError(f"{what} must be real, got a nonzero imaginary part")
    try:
        return np.asarray(arr.real, dtype=np.float64)
    except TypeError as exc:
        raise ValueError(f"{what} must be real, got an entry that is not a real number") from exc


def _check_cap(n: int, legs: int, max_dim: int) -> None:
    """DimensionCapError if N^legs exceeds max_dim; both go through `_check_int`.

    For N >= 2, N^legs >= 2^legs > max_dim once legs reaches the bit length
    of max_dim, so a huge level is refused before N^legs is formed.
    """
    max_dim = _check_int("max_dim", max_dim, 1)
    legs = _check_int("legs", legs, 0)
    if n > 1 and (legs >= max_dim.bit_length() or n**legs > max_dim):
        raise DimensionCapError(f"ambient dimension {n}^{legs} exceeds cap {max_dim}")
