"""The dense trivalent vertex, kept as the oracle for `vertex.isometry`.

A_k^{l,m} = (p_l (x) p_m) (iota^{(x) l-r} (x) T_r (x) iota^{(x) m-r}) p_k
is built here from the dense Wenzl projections: the cup insertion is a
fancy-indexed scatter and the two projections act leg-wise.  The package
builds the same map in leg coordinates without any p; the tests compare
the two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from wenzl_lab.errors import InvariantViolation
from wenzl_lab.jones_wenzl import jw_projection
from wenzl_lab.qnum import AdmissibleTriple, QParams
from wenzl_lab.tensor_core import (
    DEFAULT_DIM_CAP,
    TensorOperator,
    TensorShape,
    _check_cap,
    reversal_permutation,
)
from wenzl_lab.vertex import _project_sides


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
