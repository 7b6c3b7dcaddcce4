"""Exception types shared across the package, and the ambient-dimension cap.

The CLI maps these onto process exit codes, so anything user-facing
should raise one of them rather than a bare Exception.  The cap (default
N^legs <= 4096 per side) keeps every dense object at desk scale; whatever
allocates on N^legs legs checks it and raises DimensionCapError.
"""

from __future__ import annotations

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


def _check_cap(n: int, legs: int, max_dim: int) -> None:
    dim = n**legs
    if dim > max_dim:
        raise DimensionCapError(
            f"ambient dimension {n}^{legs} = {dim} exceeds cap {max_dim}"
        )
