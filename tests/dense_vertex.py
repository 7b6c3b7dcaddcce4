"""Ambient oracles for the package's leg-coordinate computations.

The dense trivalent vertex
A_k^{l,m} = (p_l (x) p_m) (iota^{(x) l-r} (x) T_r (x) iota^{(x) m-r}) p_k
is built here from the dense Wenzl projections: the cup insertion is a
fancy-indexed scatter and the two projections act leg-wise.  The package
builds the same map in leg coordinates without any p; the tests compare
the two.  The elementary tensors of words, the cup vectors T_r and the
Choi matrix are the other ambient N^legs objects the tests check against;
jw_fixes measures ||p_k v - v|| with the dense p_k.
All vectors are flat arrays in row-major leg order, leftmost leg slowest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from wenzl_lab.errors import InvariantViolation
from wenzl_lab.jones_wenzl import JwProjection, jw_projection
from wenzl_lab.qnum import AdmissibleTriple, QParams
from wenzl_lab.tensor_core import (
    DEFAULT_DIM_CAP,
    TensorOperator,
    TensorShape,
    _check_cap,
    reversal_permutation,
)
from wenzl_lab.vertex import _project_sides, isometry


def basis_vector(
    shape: TensorShape, multi_index: Sequence[int], max_dim: int = DEFAULT_DIM_CAP
) -> np.ndarray:
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
    return data


def alternating_vector(
    shape: TensorShape, i: int, j: int, max_dim: int = DEFAULT_DIM_CAP
) -> np.ndarray:
    """The alternating word e_i (x) e_j (x) e_i (x) ... on shape.legs legs."""
    if i == j:
        raise ValueError("alternating word needs two distinct letters")
    word = [i if s % 2 == 0 else j for s in range(shape.legs)]
    return basis_vector(shape, word, max_dim=max_dim)


def jw_fixes(jw: JwProjection, v: np.ndarray) -> float:
    """||p_k v - v|| for a flat N^k vector; vanishes on words with no adjacent repeated letter."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (jw.op.in_shape.dim,):
        raise ValueError(f"vector shape {v.shape} does not match p_k on {jw.op.in_shape}")
    return float(np.linalg.norm(jw.op.data @ v - v))


def cup_vector(p: QParams, r: int, max_dim: int = DEFAULT_DIM_CAP) -> np.ndarray:
    """The nested cup vector T_r on 2r legs.

    T_1 = sum_i e_i (x) e_i and T_r = (iota^{(x) r-1} (x) T_1 (x)
    iota^{(x) r-1}) T_{r-1}, which places a 1 at every position
    (i, i-reversed); squared norm n**r.
    """
    if r < 0:
        raise ValueError(f"cup size must be >= 0, got {r}")
    _check_cap(p.n, 2 * r, max_dim)
    side = p.n**r
    data = np.zeros((side, side))
    data[np.arange(side), reversal_permutation(p.n, r)] = 1.0
    return data.reshape(-1)


def choi_matrix(p: QParams, t: AdmissibleTriple, scale: float) -> np.ndarray:
    """identity of H_l (x) H_m minus scale times alpha alpha^*, lifted to the
    ambient N^{l+m} x N^{l+m} (the identity of H_l (x) H_m becomes p_l (x) p_m)."""
    iso = isometry(p, t)
    form = np.eye(iso.legs.shape[0]) - scale * (iso.legs @ iso.legs.T)
    half = iso.lift(form)  # (B_l (x) B_m) form
    return iso.lift(half.T)


@dataclass(frozen=True)
class ThreeVertex:
    """The unnormalized vertex A_k^{l,m} as an ambient dense operator."""

    triple: AdmissibleTriple
    op: TensorOperator


def _insert_cup(cols: np.ndarray, n: int, l: int, m: int, r: int) -> np.ndarray:
    """Apply iota^{(x) l-r} (x) T_r (x) iota^{(x) m-r} to N^k-leg columns.

    T_r has one unit entry per pair (i, i-reversed), so the insertion is
    a pure scatter of the existing entries; no arithmetic happens.
    """
    if r == 0:
        return cols
    dl, dm = n ** (l - r), n ** (m - r)
    dr = n**r
    c = cols.shape[1]
    cols3 = cols.reshape(dl, dm, c)
    out = np.zeros((dl, dr, dr, dm, c))
    out[:, np.arange(dr), reversal_permutation(n, r), :, :] = cols3[:, None, :, :]
    return out.reshape(dl * dr * dr * dm, c)


def _vertex_columns(p: QParams, t: AdmissibleTriple, cols: np.ndarray) -> np.ndarray:
    """The vertex applied to N^k-leg columns, through dense p_l and p_m."""
    mid = _insert_cup(cols, p.n, t.l, t.m, t.r)
    pl = jw_projection(p, t.l).op.data
    pm = jw_projection(p, t.m).op.data
    return _project_sides(mid, pl, pm)


def three_vertex(
    p: QParams, t: AdmissibleTriple, max_dim: int = DEFAULT_DIM_CAP
) -> ThreeVertex:
    """The dense ambient vertex A_k^{l,m}: N^k -> N^{l+m}."""
    _check_cap(p.n, max(t.k, t.l + t.m), max_dim)
    pk = jw_projection(p, t.k, max_dim=max_dim).op.data
    data = _vertex_columns(p, t, pk)
    if not np.any(data):
        raise InvariantViolation(f"vertex {t} collapsed to zero")
    return ThreeVertex(
        t, TensorOperator(TensorShape(p.n, t.l + t.m), TensorShape(p.n, t.k), data)
    )


def theta_by_trace(v: ThreeVertex) -> float:
    """Tr(A^* A) = squared Frobenius norm; brute-force route to the theta-net."""
    data = v.op.data
    return float(np.einsum("ij,ij->", data, data))
