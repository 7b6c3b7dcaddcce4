"""Equivariant isometries alpha_k^{l,m}: H_k -> H_l (x) H_m.

The canonical vertex is the composition

    A_k^{l,m} = (p_l (x) p_m) (iota^{(x) l-r} (x) T_r (x) iota^{(x) m-r}) p_k,

with r = (l+m-k)/2 contracted strand pairs.  Its squared Frobenius norm
is the theta-net theta_q(k,l,m), which gives a brute-force oracle for
the closed form, and alpha = ([k+1]_q/theta)^{1/2} A is an isometric
embedding H_k -> H_l (x) H_m.

alpha is stored once, in leg coordinates: `legs` is
(B_l^T (x) B_m^T) alpha B_k, a (d_l d_m) x [k+1]_q isometry in the
irrep bases of `jones_wenzl.onb_of_irrep` (the recoupling picture of
Kauffman-Lins on Wenzl's fusion bases).  Since B_l B_l^T = p_l, the
projections p_l, p_m are never formed: the cup is a row gather of B_m
and two matmuls do the rest.  The ambient N^{l+m} x [k+1]_q `reduced`
is lifted on each read, never cached, for the checks that need it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DEFAULT_DIM_CAP, InvariantViolation, _check_cap
from .jones_wenzl import IrrepBasis, jw_projection, onb_of_irrep
from .qnum import AdmissibleTriple, QParams, lambda_log, theta_net_log

__all__ = [
    "EquivariantIsometry",
    "isometry",
    "verify_equivariance_proxy",
    "reversal_permutation",
    "clear_caches",
]

THETA_AGREEMENT_RTOL = 1e-6

_iso_cache: dict[tuple[int, int, int, int], "EquivariantIsometry"] = {}


def clear_caches() -> None:
    _iso_cache.clear()


class _LiftedOnRead:
    """`iso.reduced` = iso.lift(iso.legs), lifted on each read, never cached.

    A non-data descriptor, unlike a property, so an attribute set on an
    instance still shadows it: perfbench's self-test scales `reduced` on a
    copy to see its isometry check fail.
    """

    def __get__(self, iso, owner=None):
        return self if iso is None else iso.lift(iso.legs)


@dataclass(eq=False)  # one cached instance per triple, compared and hashed by identity
class EquivariantIsometry:
    """alpha_k^{l,m}: H_k -> H_l (x) H_m with alpha^* alpha = identity.

    `legs` maps IrrepBasis(k) coordinates to B_l (x) B_m coordinates;
    `reduced` is the same map in the ambient N^{l+m} product space,
    lifted on each read and never cached, because only checks read it.
    """

    triple: AdmissibleTriple
    params: QParams
    basis: IrrepBasis
    basis_l: IrrepBasis
    basis_m: IrrepBasis
    legs: np.ndarray
    scale: float
    theta_closed: float
    theta_trace: float

    def lift(self, x: np.ndarray) -> np.ndarray:
        """(B_l (x) B_m) x: leg coordinates (d_l d_m[, c]) to the ambient N^{l+m}[, c]."""
        bl, bm = self.basis_l.columns, self.basis_m.columns
        half = bl @ x.reshape(bl.shape[1], -1)
        half = half.reshape(bl.shape[0], bm.shape[1], -1)
        return (bm @ half).reshape(bl.shape[0] * bm.shape[0], *x.shape[1:])

    reduced = _LiftedOnRead()


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


def _cup_gather(n: int, t: AdmissibleTriple, bm: np.ndarray) -> np.ndarray:
    """B_m[(rev i, b), :] as an N^r x N^{m-r} x d_m array: T_r pairs each
    i in N^r with its leg reversal, so the cup is a row gather of B_m."""
    return bm.reshape(n**t.r, n ** (t.m - t.r), bm.shape[1])[reversal_permutation(n, t.r)]


def _leg_vertex(
    n: int, t: AdmissibleTriple, bk: np.ndarray, bl: np.ndarray, bm: np.ndarray
) -> np.ndarray:
    """(B_l^T (x) B_m^T)(iota^{(x) l-r} (x) T_r (x) iota^{(x) m-r}) B_k, (d_l d_m) x d_k.

    raw[x, y, c] = sum_{a,i,b} B_l[(a,i),x] B_m[(rev i,b),y] B_k[(a,b),c]
    over a in N^{l-r}, i in N^r, b in N^{m-r}.
    """
    a, i, b = n ** (t.l - t.r), n**t.r, n ** (t.m - t.r)
    dl, dm, dk = bl.shape[1], bm.shape[1], bk.shape[1]
    left = bl.reshape(a, i, dl).transpose(2, 1, 0).reshape(dl * i, a)
    inner = (left @ bk.reshape(a, b * dk)).reshape(dl, i * b, dk)  # [x, (i, b), c]
    flipped = _cup_gather(n, t, bm).reshape(i * b, dm)
    return (flipped.T @ inner).reshape(dl * dm, dk)  # one product per x


def isometry(
    p: QParams, t: AdmissibleTriple, max_dim: int = DEFAULT_DIM_CAP
) -> EquivariantIsometry:
    """The scaled vertex alpha = ([k+1]_q/theta)^{1/2} A, cached per triple.

    The closed-form theta and the Frobenius-trace theta must agree to
    1e-6 relative; disagreement means a construction bug, so it is a
    hard error rather than a silent renormalization.
    """
    _check_cap(p.n, max(t.k, t.l + t.m), max_dim)
    key = (p.n, t.k, t.l, t.m)
    hit = _iso_cache.get(key)
    if hit is not None:
        return hit
    bases = [onb_of_irrep(p, j, max_dim=max_dim) for j in (t.k, t.l, t.m)]
    raw = _leg_vertex(p.n, t, *(b.columns for b in bases))
    # B_l (x) B_m is an isometry on range(p_l (x) p_m), so this is Tr(A^* A)
    theta_closed = math.exp(theta_net_log(p, t))
    theta_trace = float(np.einsum("ij,ij->", raw, raw))
    if abs(theta_trace - theta_closed) > THETA_AGREEMENT_RTOL * theta_closed:
        raise InvariantViolation(
            f"theta mismatch at {t}: closed form {theta_closed}, trace {theta_trace}"
        )
    scale = math.exp(0.5 * lambda_log(p, t))
    raw *= scale
    iso = EquivariantIsometry(t, p, *bases, raw, scale, theta_closed, theta_trace)
    _iso_cache[key] = iso
    return iso


def _project_sides(x: np.ndarray, pl: np.ndarray, pm: np.ndarray) -> np.ndarray:
    """Apply p_l (x) p_m leg-wise to columns living on l+m legs."""
    nl, nm = pl.shape[0], pm.shape[0]
    c = x.shape[1]
    t = (pl @ x.reshape(nl, nm * c)).reshape(nl, nm, c)
    t = np.tensordot(pm, t, axes=(1, 1)).transpose(1, 0, 2)
    return np.ascontiguousarray(t.reshape(nl * nm, c))


def verify_equivariance_proxy(iso: EquivariantIsometry) -> float:
    """max of ||(p_l (x) p_m) alpha - alpha||_max and ||alpha p_k - alpha||_max.

    Full quantum-group equivariance is not representable numerically;
    intertwining both Jones-Wenzl projections is the checkable proxy.
    """
    p = iso.params
    t = iso.triple
    amb = iso.reduced @ iso.basis.columns.T
    pl = jw_projection(p, t.l)
    pm = jw_projection(p, t.m)
    res_range = float(np.abs(_project_sides(amb, pl, pm) - amb).max())
    pk = jw_projection(p, t.k)
    res_domain = float(np.abs(amb @ pk - amb).max())
    return max(res_range, res_domain)
