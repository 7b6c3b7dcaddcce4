"""Dense real operators on (C^N)^{(x) k} and the ambient-dimension cap.

Operators live in the standard product basis with row-major multi-index
layout, leftmost leg slowest; that single convention fixes how the
Jones-Wenzl projections and the lifted isometries are stored.  Everything
the calculus builds is real in this basis, so storage is float64.

A configurable ambient-dimension cap (default N^legs <= 4096 per side)
keeps every dense object at desk scale; constructors that allocate
check it and raise DimensionCapError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionCapError

__all__ = [
    "DEFAULT_DIM_CAP",
    "TensorShape",
    "TensorOperator",
    "reversal_permutation",
]

DEFAULT_DIM_CAP = 4096


def _check_cap(n: int, legs: int, max_dim: int) -> None:
    dim = n**legs
    if dim > max_dim:
        raise DimensionCapError(
            f"ambient dimension {n}^{legs} = {dim} exceeds cap {max_dim}"
        )


@dataclass(frozen=True)
class TensorShape:
    """Local dimension n and tensor power legs; ambient dimension n**legs."""

    n: int
    legs: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.legs < 0:
            raise ValueError(f"invalid shape n={self.n}, legs={self.legs}")

    @property
    def dim(self) -> int:
        return self.n**self.legs


@dataclass(frozen=True)
class TensorOperator:
    """A linear map (C^N)^{(x) in_legs} -> (C^N)^{(x) out_legs}, dense."""

    out_shape: TensorShape
    in_shape: TensorShape
    data: np.ndarray

    def __post_init__(self) -> None:
        if self.out_shape.n != self.in_shape.n:
            raise ValueError("operator must have one local dimension on both sides")
        arr = np.ascontiguousarray(self.data, dtype=np.float64)
        want = (self.out_shape.dim, self.in_shape.dim)
        if arr.shape != want:
            raise ValueError(f"data shape {arr.shape} does not match {want}")
        object.__setattr__(self, "data", arr)


def reversal_permutation(n: int, r: int) -> np.ndarray:
    """Flat index of the leg-reversed multi-index, for each of the n**r indices.

    This is exactly the cup vector T_r = sum_i e_i (x) e_{i reversed} on
    2r legs, reshaped along its middle cut: T_r[i, j] = 1 iff j == reversal[i].
    """
    idx = np.arange(n**r, dtype=np.int64)
    rev = np.zeros_like(idx)
    x = idx.copy()
    for _ in range(r):  # peel digits least-significant first
        rev = rev * n + x % n
        x //= n
    return rev
