"""Jones-Wenzl projections p_k on (C^N)^{(x) k} and irreducible-block bases.

p_k is the unique nonzero self-adjoint idempotent killed by every
adjacent cup-cap, built bottom-up through the Wenzl recursion

    p_k = iota (x) p_{k-1}
        - ([k-1]_q/[k]_q) (iota (x) p_{k-1}) (T_1 T_1^* (x) iota^{(x) k-2}) (iota (x) p_{k-1}).

Because the middle factor is the rank-N^{k-2} Gram matrix U U^T of the
cup columns, the sandwich collapses to a low-rank update
X - c (XU)(XU)^T, which is the only matrix work per level.

The orthonormal basis B_k of H_k = range(p_k) comes from the fusion rule
H_1 (x) H_{k-1} = H_k (+) H_{k-2} (Wenzl 1987) without forming p_k:
B_k = (I_N (x) B_{k-1}) W, W spanning the complement of the embedded H_{k-2}.
W is the trailing columns of the Householder Q of that embedding, never
formed: Q = I - V T V^T in compact-WY form (Schreiber-Van Loan 1989), so
applying it costs two thin products.  The dense p_k stays the oracle that
B_k B_k^T is checked against.

Operators are plain float64 arrays in the standard product basis,
row-major with the leftmost leg slowest; everything the calculus builds
is real there.  Projections and bases are cached per (N, k) in memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DEFAULT_DIM_CAP, InvariantViolation, _check_cap
from .qnum import QParams, dim_irrep, q_int

__all__ = [
    "JwVerification",
    "IrrepBasis",
    "jw_projection",
    "verify_jw",
    "onb_of_irrep",
    "clear_caches",
]

IDEMPOTENCE_TOL = 1e-9
SYMMETRY_TOL = 1e-12
TRACE_RTOL = 1e-8
CAP_ANNIHILATION_TOL = 1e-9
FUSION_GRAM_TOL = 1e-9

_jw_cache: dict[tuple[int, int], np.ndarray] = {}
_basis_cache: dict[tuple[int, int], "IrrepBasis"] = {}


@dataclass(frozen=True)
class JwVerification:
    """Max residuals of the four defining properties of a JW projection."""

    n: int
    k: int
    idempotence: float
    symmetry: float
    trace_rel: float
    cap_annihilation: float
    ok: bool


@dataclass(frozen=True)
class IrrepBasis:
    """Orthonormal columns spanning range(p_k); shape N^k x round([k+1]_q)."""

    params: QParams
    k: int
    columns: np.ndarray

    @property
    def dim(self) -> int:
        return self.columns.shape[1]


def clear_caches() -> None:
    """Drop all cached projections and bases (memory pressure relief)."""
    _jw_cache.clear()
    _basis_cache.clear()


def _wenzl_step(p: QParams, k: int, prev: np.ndarray) -> np.ndarray:
    """One recursion level: p_k from p_{k-1} as a low-rank update."""
    n = p.n
    dim = n**k
    rest = n ** (k - 2)
    x = np.kron(np.eye(n), prev)
    # Y = (iota (x) p_{k-1}) U with U the cup columns: U[(a,b,c), j] = delta_ab delta_cj
    y = np.einsum("xbbj->xj", x.reshape(dim, n, n, rest))
    c = q_int(p, k - 1) / q_int(p, k)
    out = x - c * (y @ y.T)
    return (out + out.T) / 2.0


def jw_projection(p: QParams, k: int, max_dim: int = DEFAULT_DIM_CAP) -> np.ndarray:
    """The level-k Jones-Wenzl projection as an N^k x N^k array, built (and cached) bottom-up.

    k = 0 is the scalar 1 on the empty tensor power; k = 1 the identity.
    """
    if k < 0:
        raise ValueError(f"level must be >= 0, got {k}")
    _check_cap(p.n, k, max_dim)
    key = (p.n, k)
    hit = _jw_cache.get(key)
    if hit is not None:
        return hit
    start = k
    while start > 1 and (p.n, start - 1) not in _jw_cache:
        start -= 1
    for level in range(start, k + 1):
        if level < 2:
            data = np.eye(p.n**level)
        else:
            data = _wenzl_step(p, level, _jw_cache[(p.n, level - 1)])
        _jw_cache[(p.n, level)] = data
    return _jw_cache[key]


def _cap_annihilation_residual(data: np.ndarray, n: int, k: int) -> float:
    """max_i ||(iota^{i-1} (x) T_1 T_1^* (x) iota^{k-i-1}) p||_max.

    Applying T_1^* at legs (i, i+1) already carries the full magnitude,
    since T_1 only scatters those values into fixed positions.
    """
    if k < 2:
        return 0.0
    dim = n**k
    worst = 0.0
    for i in range(1, k):
        left = n ** (i - 1)
        right = n ** (k - i - 1)
        blocks = data.reshape(left, n, n, right * dim)
        contracted = np.einsum("abbc->ac", blocks)
        worst = max(worst, float(np.abs(contracted).max()))
    return worst


def verify_jw(p: QParams, k: int, data: np.ndarray) -> JwVerification:
    """Residuals of idempotence, symmetry, trace, and cap annihilation of an N^k x N^k p_k."""
    data = np.asarray(data, dtype=np.float64)
    if data.shape != (p.n**k, p.n**k):
        raise ValueError(f"p_{k} at N={p.n} is {p.n**k} x {p.n**k}, got shape {data.shape}")
    idem = float(np.abs(data @ data - data).max())
    sym = float(np.abs(data - data.T).max())
    want_trace = dim_irrep(p, k)
    trace_rel = abs(float(np.trace(data)) - want_trace) / want_trace
    cap = _cap_annihilation_residual(data, p.n, k)
    ok = (
        idem <= IDEMPOTENCE_TOL
        and sym <= SYMMETRY_TOL
        and trace_rel <= TRACE_RTOL
        and cap <= CAP_ANNIHILATION_TOL
    )
    return JwVerification(p.n, k, idem, sym, trace_rel, cap, ok)


def _householder_wy(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """V and T with Q = H_1 ... H_p = I - V T V^T for the QR of the n x p matrix m.

    V is the unit lower-trapezoidal matrix of Householder vectors that
    LAPACK leaves below R; T is upper triangular, built by dlarft's forward
    recursion, so a trivial reflector (tau_i = 0) gives a zero column.
    """
    h, tau = np.linalg.qr(m, mode="raw")
    v = np.tril(h.T, -1)
    p = v.shape[1]
    v[np.diag_indices(p)] = 1.0
    gram = v.T @ v
    t = np.zeros((p, p))
    for i in range(p):
        t[:i, i] = -tau[i] * (t[:i, :i] @ gram[:i, i])
        t[i, i] = tau[i]
    return v, t


def _fusion_step(p: QParams, k: int, up: np.ndarray, down: np.ndarray) -> np.ndarray:
    """B_k from B_{k-1} (up) and B_{k-2} (down) via H_1 (x) H_{k-1} = H_k + H_{k-2}.

    M holds the coordinates of the embedded H_{k-2}, (iota (x) p_{k-1})
    (T_1 (x) B_{k-2}), in the basis I_N (x) B_{k-1}; B_k spans the rest.
    With X = I_N (x) B_{k-1} and Q = I - V T V^T the Householder Q of M,
    B_k = X Q[:, p:] = X[:, p:] - (X V)(T V[p:]^T), p = d_{k-2}.
    """
    n, d_up, d_down = p.n, up.shape[1], down.shape[1]
    cube = up.reshape(n, n ** (k - 2), d_up)
    m = (cube.transpose(0, 2, 1) @ down).reshape(n * d_up, d_down)
    gram = m.T @ m
    gram[np.diag_indices_from(gram)] -= q_int(p, k) / q_int(p, k - 1)
    want = round(dim_irrep(p, k))
    if float(np.abs(gram).max()) > FUSION_GRAM_TOL or n * d_up - d_down != want:
        raise InvariantViolation(
            f"fusion step at (n={p.n}, k={k}): M^T M != [{k}]/[{k - 1}] I or not {want} columns"
        )
    v, t = _householder_wy(m)
    xv = (up @ v.reshape(n, d_up, d_down)).reshape(n**k, d_down)
    out = (xv @ (t @ -v[d_down:].T)).reshape(n, n ** (k - 1), want)
    # X[:, p:]: block a of X holds B_{k-1} in columns a d_up .. (a+1) d_up
    for a in range(n):
        lo = max(a * d_up, d_down)
        out[a, :, lo - d_down : (a + 1) * d_up - d_down] += up[:, lo - a * d_up :]
    return out.reshape(n**k, want)


def onb_of_irrep(p: QParams, k: int, max_dim: int = DEFAULT_DIM_CAP) -> IrrepBasis:
    """Orthonormal basis of H_k = range(p_k), built (and cached) bottom-up.

    B_0 = [[1]], B_1 = I_N and B_k from `_fusion_step`; no dense p_k is formed.
    """
    if k < 0:
        raise ValueError(f"level must be >= 0, got {k}")
    _check_cap(p.n, k, max_dim)
    for level in range(k + 1):
        if (p.n, level) in _basis_cache:
            continue
        if level < 2:
            cols = np.eye(p.n**level)
        else:
            up = _basis_cache[(p.n, level - 1)].columns
            down = _basis_cache[(p.n, level - 2)].columns
            cols = _fusion_step(p, level, up, down)
        _basis_cache[(p.n, level)] = IrrepBasis(p, level, cols)
    return _basis_cache[(p.n, k)]

