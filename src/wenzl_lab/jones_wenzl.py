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

This module also owns the package's one BLAS thread policy, the scope
`_blas_threads(flops)` around every BLAS product: a product of fewer than
SPLIT_FLOPS flops (a small fusion level, leg vertex or Wenzl level, and the
optimizer's sweeps and sampling stacks, which pass no count) is too small
to split and runs on one thread; a larger one keeps the caller's count.
numpy's OpenBLAS applies the count process-wide, so a one-thread scope
also holds other Python threads' BLAS work to one thread.  When the package
imports numpy first, OpenBLAS loads on one thread (`wenzl_lab/__init__`) and
stays there at rest: its pool lives only inside scopes of SPLIT_FLOPS or more.

Operators are plain float64 arrays in the standard product basis,
row-major with the leftmost leg slowest; everything the calculus builds
is real there.  Projections and bases are cached per (N, k) in memory,
as read-only arrays, so a caller's write raises instead of corrupting
every later level.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DEFAULT_DIM_CAP, InvariantViolation, _check_cap, _check_int, _check_real_array
from .qnum import QParams, dim_irrep, q_int

__all__ = [
    "JwVerification",
    "IrrepBasis",
    "jw_projection",
    "verify_jw",
    "onb_of_irrep",
]

IDEMPOTENCE_TOL = 1e-9
SYMMETRY_TOL = 1e-12
TRACE_RTOL = 1e-8
CAP_ANNIHILATION_TOL = 1e-9
FUSION_GRAM_TOL = 1e-9
# Dense builds below this many flops run on one BLAS thread.  On 2 cores with
# OpenBLAS 0.3.31, a second thread saved about a tenth of such a build's wall
# time, for twice the CPU, and cost several times over when the second core was
# descheduled; above it, two threads were 8-37 % faster (table in CHANGES.md).
SPLIT_FLOPS = 1e8

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


@functools.cache
def _openblas(name: str):
    """numpy's bundled OpenBLAS function `name`, as ctypes' int(int...), or None without it."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
        fn = getattr(ctypes.CDLL(path), name, None)
        if fn is not None:
            return fn
    return None


_blas_lock = threading.Lock()
# open scopes, those of them that hold the count at 1, the count the last of those
# restores, and whether a pool started by the outermost scope runs (`_pool_deferred` only)
_blas_scopes = {"open": 0, "one": 0, "restore": 0, "pool": False}
_pool_deferred = False  # set by `wenzl_lab/__init__` when OpenBLAS loaded on one thread


@contextlib.contextmanager
def _blas_threads(flops: float = 0.0):
    """Run the block, a product of `flops` flops, on one BLAS thread below
    SPLIT_FLOPS and on the caller's count at or above it.

    `openblas_set_num_threads_local` acts on the whole process, so the first
    one-thread scope to open sets 1 and the last to close restores what that
    call returned: nested scopes, and scopes in other Python threads, leave
    the count as they found it.  Where OpenBLAS loaded on one thread
    (`_pool_deferred`), 1 is the count at rest, and a one-thread scope at rest
    makes no call (any call re-creates a pool that was shut down); a larger
    scope opened with no scope open starts the pool at OpenBLAS's own count,
    and the last scope to close sets 1 and shuts it down, so no idle worker
    spins between scopes.  Without the symbol this does nothing.
    """
    set_threads = _openblas("openblas_set_num_threads_local")
    state = _blas_scopes
    with _blas_lock:
        if _pool_deferred and flops >= SPLIT_FLOPS and not state["open"]:
            set_threads(_openblas("scipy_openblas_get_num_procs64_")())
            state["pool"] = True
        one = flops < SPLIT_FLOPS and (state["pool"] if _pool_deferred else set_threads is not None)
        if one and not state["one"]:
            state["restore"] = set_threads(1)
        state["open"] += 1
        state["one"] += one
    try:
        yield
    finally:
        with _blas_lock:
            state["open"] -= 1
            state["one"] -= one
            if state["pool"] and not state["open"]:
                set_threads(1)
                _openblas("blas_thread_shutdown_")()
                state["pool"] = False
            elif one and not state["one"]:
                set_threads(state["restore"])


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
    k = _check_int("k", k, 0)
    _check_cap(p.n, k, max_dim)
    for level in range(k + 1):
        if (p.n, level) in _jw_cache:
            continue
        if level < 2:
            data = np.eye(p.n**level)
        else:
            with _blas_threads(2 * p.n ** (3 * level - 2)):  # the flops of its (XU)(XU)^T
                data = _wenzl_step(p, level, _jw_cache[(p.n, level - 1)])
        data.flags.writeable = False
        _jw_cache[(p.n, level)] = data
    return _jw_cache[(p.n, k)]


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
    data = _check_real_array(f"p_{k}", data)
    if data.shape != (p.n**k, p.n**k):
        raise ValueError(f"p_{k} at N={p.n} is {p.n**k} x {p.n**k}, got shape {data.shape}")
    with _blas_threads(2 * p.n ** (3 * k)):
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
    if not float(np.abs(gram).max()) <= FUSION_GRAM_TOL or n * d_up - d_down != want:
        raise InvariantViolation(
            f"fusion step at (n={p.n}, k={k}): M^T M != [{k}]/[{k - 1}] I or not {want} columns"
        )
    with _blas_threads():  # a QR is many small level-2 calls: faster on one thread
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
    Each step costs 2 N^k d_{k-2} (d_{k-1} + d_k) flops, which picks its
    BLAS thread count (`_blas_threads`).
    """
    k = _check_int("k", k, 0)
    _check_cap(p.n, k, max_dim)
    for level in range(k + 1):
        if (p.n, level) in _basis_cache:
            continue
        if level < 2:
            cols = np.eye(p.n**level)
        else:
            up = _basis_cache[(p.n, level - 1)].columns
            down = _basis_cache[(p.n, level - 2)].columns
            d_up, d_down = up.shape[1], down.shape[1]
            flops = 2 * p.n**level * d_down * (d_up + p.n * d_up - d_down)
            with _blas_threads(flops):
                cols = _fusion_step(p, level, up, down)
        cols.flags.writeable = False
        _basis_cache[(p.n, level)] = IrrepBasis(p, level, cols)
    return _basis_cache[(p.n, k)]

