"""Dense real tensor kernel on (C^N)^{(x) k}.

Vectors and operators live in the standard product basis with row-major
multi-index layout, leftmost leg slowest; that single convention fixes
matricization and partial traces for every module downstream.  All
constructions used by the calculus (cup vectors, alternating words,
Jones-Wenzl recursion) are real in this basis, so storage is float64.

A configurable ambient-dimension cap (default N^legs <= 4096 per side)
keeps every dense object at desk scale; constructors that allocate
check it and raise DimensionCapError.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionCapError
from .qnum import QParams

__all__ = [
    "DEFAULT_DIM_CAP",
    "TensorShape",
    "TensorVector",
    "TensorOperator",
    "basis_vector",
    "cup_vector",
    "alternating_vector",
    "tensor_product",
    "partial_trace",
    "matricize",
    "identity_operator",
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
class TensorVector:
    """A vector in (C^N)^{(x) legs}, stored flat in row-major leg order."""

    shape: TensorShape
    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(self.data, dtype=np.float64)
        if arr.shape != (self.shape.dim,):
            raise ValueError(
                f"data length {arr.shape} does not match shape dim {self.shape.dim}"
            )
        object.__setattr__(self, "data", arr)

    def norm(self) -> float:
        return float(np.linalg.norm(self.data))


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


def identity_operator(shape: TensorShape, max_dim: int = DEFAULT_DIM_CAP) -> TensorOperator:
    _check_cap(shape.n, shape.legs, max_dim)
    return TensorOperator(shape, shape, np.eye(shape.dim))


def basis_vector(
    shape: TensorShape,
    multi_index: Sequence[int],
    max_dim: int = DEFAULT_DIM_CAP,
) -> TensorVector:
    """Elementary tensor e_{i(1)} (x) ... (x) e_{i(k)} for 1-based indices."""
    _check_cap(shape.n, shape.legs, max_dim)
    idx = tuple(multi_index)
    if len(idx) != shape.legs:
        raise ValueError(f"expected {shape.legs} indices, got {len(idx)}")
    for i in idx:
        if not 1 <= i <= shape.n:
            raise ValueError(f"index {i} out of range 1..{shape.n}")
    data = np.zeros(shape.dim)
    flat = 0
    for i in idx:  # row-major, leftmost leg slowest
        flat = flat * shape.n + (i - 1)
    data[flat] = 1.0
    return TensorVector(shape, data)


def reversal_permutation(n: int, r: int) -> np.ndarray:
    """Flat index of the leg-reversed multi-index, for each of the n**r indices.

    This is exactly the matricization of the cup vector T_r along its
    middle cut: matricize(T_r, r)[i, j] = 1 iff j == reversal[i].
    """
    idx = np.arange(n**r, dtype=np.int64)
    rev = np.zeros_like(idx)
    x = idx.copy()
    for _ in range(r):  # peel digits least-significant first
        rev = rev * n + x % n
        x //= n
    return rev


def cup_vector(p: QParams, r: int, max_dim: int = DEFAULT_DIM_CAP) -> TensorVector:
    """The nested cup vector T_r on 2r legs.

    T_1 = sum_i e_i (x) e_i and T_r = (iota^{(x) r-1} (x) T_1 (x)
    iota^{(x) r-1}) T_{r-1}, which places a 1 at every position
    (i, i-reversed); squared norm n**r.
    """
    if r < 0:
        raise ValueError(f"cup size must be >= 0, got {r}")
    n = p.n
    _check_cap(n, 2 * r, max_dim)
    shape = TensorShape(n, 2 * r)
    if r == 0:
        return TensorVector(shape, np.ones(1))
    side = n**r
    data = np.zeros((side, side))
    data[np.arange(side), reversal_permutation(n, r)] = 1.0
    return TensorVector(shape, data.reshape(-1))


def alternating_vector(
    shape: TensorShape, i: int, j: int, max_dim: int = DEFAULT_DIM_CAP
) -> TensorVector:
    """The alternating word e_i (x) e_j (x) e_i (x) ... on shape.legs legs."""
    if i == j:
        raise ValueError("alternating word needs two distinct letters")
    word = [i if s % 2 == 0 else j for s in range(shape.legs)]
    return basis_vector(shape, word, max_dim=max_dim)


def tensor_product(a, b, max_dim: int = DEFAULT_DIM_CAP):
    """Kronecker product with leg concatenation, for two vectors or two operators."""
    if isinstance(a, TensorVector) and isinstance(b, TensorVector):
        if a.shape.n != b.shape.n:
            raise ValueError("local dimensions differ")
        shape = TensorShape(a.shape.n, a.shape.legs + b.shape.legs)
        _check_cap(shape.n, shape.legs, max_dim)
        return TensorVector(shape, np.kron(a.data, b.data))
    if isinstance(a, TensorOperator) and isinstance(b, TensorOperator):
        if a.out_shape.n != b.out_shape.n:
            raise ValueError("local dimensions differ")
        n = a.out_shape.n
        out = TensorShape(n, a.out_shape.legs + b.out_shape.legs)
        ins = TensorShape(n, a.in_shape.legs + b.in_shape.legs)
        _check_cap(n, out.legs, max_dim)
        _check_cap(n, ins.legs, max_dim)
        return TensorOperator(out, ins, np.kron(a.data, b.data))
    raise TypeError("tensor_product needs two vectors or two operators")


def partial_trace(op: TensorOperator, split: int, side: str) -> TensorOperator:
    """Trace out the first `split` legs (side="first") or the last
    legs past `split` (side="last") of a square operator.

    The full trace is preserved: Tr(result) = Tr(op).
    """
    if op.out_shape != op.in_shape:
        raise ValueError("partial trace needs a square operator")
    legs = op.out_shape.legs
    if not 0 <= split <= legs:
        raise ValueError(f"split {split} out of range 0..{legs}")
    n = op.out_shape.n
    d1, d2 = n**split, n ** (legs - split)
    blocks = op.data.reshape(d1, d2, d1, d2)
    if side == "first":
        data = np.einsum("abad->bd", blocks)
        kept = TensorShape(n, legs - split)
    elif side == "last":
        data = np.einsum("abcb->ac", blocks)
        kept = TensorShape(n, split)
    else:
        raise ValueError(f"side must be 'first' or 'last', got {side!r}")
    return TensorOperator(kept, kept, data)


def matricize(v: TensorVector, split: int) -> np.ndarray:
    """Reshape to the N^split x N^(legs-split) matrix of the bipartite cut."""
    legs = v.shape.legs
    if not 0 <= split <= legs:
        raise ValueError(f"split {split} out of range 0..{legs}")
    n = v.shape.n
    return v.data.reshape(n**split, n ** (legs - split))
