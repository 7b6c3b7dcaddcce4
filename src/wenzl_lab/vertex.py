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
The two products and the theta trace, and the lift's two products, run in
`jones_wenzl._blas_threads` with their flop counts.

alpha commutes with the diagonal sign matrices, and each basis column lies
in one sector (`IrrepBasis.sectors`), so legs[(x, y), c] is exactly 0 unless
sector(x) XOR sector(y) = sector(c).  At r = 0 and SPLIT_FLOPS or more, the
vertex is built from those blocks alone, each on its sectors' words.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DEFAULT_DIM_CAP, InvariantViolation, _check_cap
from .jones_wenzl import SPLIT_FLOPS, IrrepBasis, _blas_threads, onb_of_irrep
from .qnum import AdmissibleTriple, QParams, lambda_log, theta_net_log

__all__ = [
    "EquivariantIsometry",
    "isometry",
    "reversal_permutation",
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

    def images(self, x: np.ndarray) -> np.ndarray:
        """alpha(x) for IrrepBasis(k) coordinates x ([k+1]_q[, c]), as d_l x d_m
        leg matrices stacked on axis 0, one per column of x."""
        return (x.T @ self.legs.T).reshape(-1, self.basis_l.dim, self.basis_m.dim)

    def lift(self, x: np.ndarray) -> np.ndarray:
        """(B_l (x) B_m) x: leg coordinates (d_l d_m[, c]) to the ambient N^{l+m}[, c]."""
        bl, bm = self.basis_l.columns, self.basis_m.columns
        with _blas_threads(2 * x.size // bl.shape[1] * bl.shape[0] * (bl.shape[1] + bm.shape[0])):
            half = (bl @ x.reshape(bl.shape[1], -1)).reshape(bl.shape[0], bm.shape[1], -1)
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
    n: int, t: AdmissibleTriple, flops: float, bk: IrrepBasis, bl: IrrepBasis, bm: IrrepBasis
) -> np.ndarray:
    """(B_l^T (x) B_m^T)(iota^{(x) l-r} (x) T_r (x) iota^{(x) m-r}) B_k, (d_l d_m) x d_k.

    A build of `flops` two-stage flops at r = 0 and at or above SPLIT_FLOPS
    takes its sector blocks (`_sector_vertex`); any other, `_two_stage_vertex`.
    """
    if t.r == 0 and flops >= SPLIT_FLOPS:
        return _sector_vertex(bk, bl, bm)
    return _two_stage_vertex(n, t, bk.columns, bl.columns, bm.columns)


def _two_stage_vertex(
    n: int, t: AdmissibleTriple, bk: np.ndarray, bl: np.ndarray, bm: np.ndarray
) -> np.ndarray:
    """raw[x, y, c] = sum_{a,i,b} B_l[(a,i),x] B_m[(rev i,b),y] B_k[(a,b),c]
    over a in N^{l-r}, i in N^r, b in N^{m-r}, in 2 d_l d_k i b (a + d_m) flops.
    """
    a, i, b = n ** (t.l - t.r), n**t.r, n ** (t.m - t.r)
    dl, dm, dk = bl.shape[1], bm.shape[1], bk.shape[1]
    left = bl.reshape(a, i, dl).transpose(2, 1, 0).reshape(dl * i, a)
    inner = (left @ bk.reshape(a, b * dk)).reshape(dl, i * b, dk)  # [x, (i, b), c]
    flipped = _cup_gather(n, t, bm).reshape(i * b, dm)
    return (flipped.T @ inner).reshape(dl * dm, dk)  # one product per x


def _sector_vertex(bk: IrrepBasis, bl: IrrepBasis, bm: IrrepBasis) -> np.ndarray:
    """raw at r = 0 block by block: raw[x, y, c] = sum_{a,b} B_l[a,x] B_m[b,y] B_k[(a,b),c]
    needs sector(x) XOR sector(y) = sector(c), and then only the words a of x's
    sector and b of y's.  Every other entry is exactly 0.0.
    """
    raw = np.zeros((bl.dim, bm.dim, bk.dim))
    cube = bk.columns.reshape(bl.columns.shape[0], bm.columns.shape[0], bk.dim)
    lefts, rights = bl.blocks, bm.blocks
    for s, (_, c) in bk.blocks.items():
        for sx, (a, x) in lefts.items():
            if sx ^ s in rights:
                b, y = rights[sx ^ s]
                inner = bl.columns[a, x].T @ cube[a[:, None], b, c].reshape(len(a), -1)
                raw[x, y, c] = bm.columns[b, y].T @ inner.reshape(-1, len(b), c.stop - c.start)
    return raw.reshape(bl.dim * bm.dim, bk.dim)


def isometry(
    p: QParams, t: AdmissibleTriple, max_dim: int = DEFAULT_DIM_CAP
) -> EquivariantIsometry:
    """The scaled vertex alpha = ([k+1]_q/theta)^{1/2} A, cached per triple
    with read-only `legs`.

    The closed-form theta and the Frobenius-trace theta must agree to
    1e-6 relative; disagreement means a construction bug, so it is a
    hard error rather than a silent renormalization.
    """
    _check_cap(p.n, t.l + t.m, max_dim)  # k <= l + m
    key = (p.n, t.k, t.l, t.m)
    hit = _iso_cache.get(key)
    if hit is not None:
        return hit
    bases = [onb_of_irrep(p, j, max_dim=max_dim) for j in (t.k, t.l, t.m)]
    dk, dl, dm = (b.dim for b in bases)
    flops = 2 * dl * dk * p.n**t.m * (p.n ** (t.l - t.r) + dm)
    theta_closed = math.exp(theta_net_log(p, t))
    with _blas_threads(flops):
        raw = _leg_vertex(p.n, t, flops, *bases)
        # B_l (x) B_m is an isometry on range(p_l (x) p_m), so this is Tr(A^* A)
        theta_trace = float(np.einsum("ij,ij->", raw, raw))
        if not abs(theta_trace - theta_closed) <= THETA_AGREEMENT_RTOL * theta_closed:
            raise InvariantViolation(
                f"theta mismatch at {t}: closed form {theta_closed}, trace {theta_trace}"
            )
    scale = math.exp(0.5 * lambda_log(p, t))
    if scale != 1.0:  # 1.0 exactly at r = 0, where lambda_log is 0.0: skip a no-op pass
        raw *= scale
    raw.flags.writeable = False
    iso = EquivariantIsometry(t, p, *bases, raw, scale, theta_closed, theta_trace)
    _iso_cache[key] = iso
    return iso
