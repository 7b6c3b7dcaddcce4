"""Trivalent vertex intertwiners A_k^{l,m} and equivariant isometries.

The canonical vertex is the composition

    A_k^{l,m} = (p_l (x) p_m) (iota^{(x) l-r} (x) T_r (x) iota^{(x) m-r}) p_k,

with r = (l+m-k)/2 contracted strand pairs.  Its squared Frobenius norm
is the theta-net theta_q(k,l,m), which gives a brute-force oracle for
the closed form, and alpha = ([k+1]_q/theta)^{1/2} A is an isometric
embedding H_k -> H_l (x) H_m.

Nothing here ever materializes p_l (x) p_m: the cup insertion is a
single fancy-indexed scatter and the two projections act leg-wise, so
the heavy objects stay N^{l+m} x (number of columns).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation
from .jones_wenzl import IrrepBasis, jw_projection, onb_of_irrep
from .qnum import AdmissibleTriple, QParams, lambda_log, theta_net_log
from .tensor_core import (
    DEFAULT_DIM_CAP,
    TensorOperator,
    TensorShape,
    _check_cap,
    reversal_permutation,
)

__all__ = [
    "ThreeVertex",
    "EquivariantIsometry",
    "three_vertex",
    "theta_by_trace",
    "isometry",
    "verify_equivariance_proxy",
    "clear_caches",
]

THETA_AGREEMENT_RTOL = 1e-6

_lock = threading.Lock()
_iso_cache: dict[tuple[int, int, int, int], "EquivariantIsometry"] = {}


def clear_caches() -> None:
    with _lock:
        _iso_cache.clear()


@dataclass(frozen=True)
class ThreeVertex:
    """The unnormalized vertex A_k^{l,m} as an ambient dense operator."""

    triple: AdmissibleTriple
    op: TensorOperator


class EquivariantIsometry:
    """alpha_k^{l,m}: H_k -> H_l (x) H_m with alpha^* alpha = identity.

    `reduced` maps IrrepBasis(k) coordinates (dimension [k+1]_q) to the
    ambient N^{l+m} product space; `ambient` is the same map precomposed
    with the basis projection, assembled lazily because it is only
    needed for whole-space diagnostics.
    """

    def __init__(
        self,
        triple: AdmissibleTriple,
        params: QParams,
        basis: IrrepBasis,
        reduced: np.ndarray,
        scale: float,
        theta_closed: float,
        theta_trace: float,
    ):
        self.triple = triple
        self.params = params
        self.basis = basis
        self.reduced = reduced
        self.scale = scale
        self.theta_closed = theta_closed
        self.theta_trace = theta_trace
        self._ambient: TensorOperator | None = None

    @property
    def ambient(self) -> TensorOperator:
        if self._ambient is None:
            n = self.params.n
            t = self.triple
            out_shape = TensorShape(n, t.l + t.m)
            in_shape = TensorShape(n, t.k)
            self._ambient = TensorOperator(
                out_shape, in_shape, self.reduced @ self.basis.columns.T
            )
        return self._ambient


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


def _project_sides(x: np.ndarray, pl: np.ndarray, pm: np.ndarray) -> np.ndarray:
    """Apply p_l (x) p_m leg-wise to columns living on l+m legs."""
    nl, nm = pl.shape[0], pm.shape[0]
    c = x.shape[1]
    t = (pl @ x.reshape(nl, nm * c)).reshape(nl, nm, c)
    t = np.tensordot(pm, t, axes=(1, 1)).transpose(1, 0, 2)
    return np.ascontiguousarray(t.reshape(nl * nm, c))


def _vertex_columns(p: QParams, t: AdmissibleTriple, cols: np.ndarray) -> np.ndarray:
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


def isometry(
    p: QParams, t: AdmissibleTriple, max_dim: int = DEFAULT_DIM_CAP
) -> EquivariantIsometry:
    """The scaled vertex alpha = ([k+1]_q/theta)^{1/2} A, cached per triple.

    The closed-form theta and the Frobenius-trace theta must agree to
    1e-6 relative; disagreement means a construction bug, so it is a
    hard error rather than a silent renormalization.
    """
    key = (p.n, t.k, t.l, t.m)
    hit = _iso_cache.get(key)
    if hit is not None:
        return hit
    _check_cap(p.n, max(t.k, t.l + t.m), max_dim)
    basis = onb_of_irrep(p, t.k, max_dim=max_dim)
    raw = _vertex_columns(p, t, basis.columns)
    # the trace over range(p_k) equals the ambient trace since A = A p_k
    theta_closed = math.exp(theta_net_log(p, t))
    theta_trace = float(np.einsum("ij,ij->", raw, raw))
    if abs(theta_trace - theta_closed) > THETA_AGREEMENT_RTOL * theta_closed:
        raise InvariantViolation(
            f"theta mismatch at {t}: closed form {theta_closed}, trace {theta_trace}"
        )
    scale = math.exp(0.5 * lambda_log(p, t))
    iso = EquivariantIsometry(
        t, p, basis, scale * raw, scale, theta_closed, theta_trace
    )
    with _lock:
        _iso_cache.setdefault(key, iso)
    return _iso_cache[key]


def verify_equivariance_proxy(iso: EquivariantIsometry) -> float:
    """max of ||(p_l (x) p_m) alpha - alpha||_max and ||alpha p_k - alpha||_max.

    Full quantum-group equivariance is not representable numerically;
    intertwining both Jones-Wenzl projections is the checkable proxy.
    """
    p = iso.params
    t = iso.triple
    amb = iso.ambient.data
    pl = jw_projection(p, t.l).op.data
    pm = jw_projection(p, t.m).op.data
    res_range = float(np.abs(_project_sides(amb, pl, pm) - amb).max())
    pk = jw_projection(p, t.k).op.data
    res_domain = float(np.abs(amb @ pk - amb).max())
    return max(res_range, res_domain)
