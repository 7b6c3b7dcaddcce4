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

p_k commutes with O(N), so with the 2^N diagonal sign matrices: it is block
diagonal over the sectors of words, the parity masks XOR_j 2^(w_j).  The
fusion step keeps each Householder pivot inside its column's sector, so every
column of B_k lies in one sector (`IrrepBasis.sectors`), exactly 0 elsewhere,
and a level of SPLIT_FLOPS or more applies Q one sector block at a time.

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
    """Orthonormal columns spanning range(p_k); shape N^k x round([k+1]_q).

    Column c lies in sector `sectors[c]`: it is exactly 0 on every word w
    whose sector XOR_j 2^(w_j) differs.  `sectors` ascends, so each sector's
    columns are one slice.
    """

    params: QParams
    k: int
    columns: np.ndarray
    sectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.columns.shape[1]

    @property
    def blocks(self) -> dict[int, tuple[np.ndarray, slice]]:
        """{sector: (the rows of its words, the slice of its columns)}."""
        words = _word_sectors(self.params.n, self.k)
        return {s: (np.flatnonzero(words == s), cols) for s, cols in _slices(self.sectors)}


@functools.cache
def _word_sectors(n: int, k: int) -> np.ndarray:
    """XOR_j 2^(w_j) for each w in [N]^k, leftmost leg slowest.  Past 64 letters,
    the last ones share bit 63: a coarser grading, in which they flip sign together."""
    letters = np.uint64(1) << np.minimum(np.arange(n), 63).astype(np.uint64)
    out = np.zeros(1, dtype=np.uint64)
    for _ in range(k):
        out = (out[:, None] ^ letters).reshape(-1)
    out.flags.writeable = False
    return out


def _slices(sectors: np.ndarray) -> list[tuple[int, slice]]:
    """(sector, slice of its entries) for each sector of an ascending array."""
    values, starts = np.unique(sectors, return_index=True)
    ends = [*starts[1:], len(sectors)]
    return [(int(s), slice(lo, hi)) for s, lo, hi in zip(values, starts, ends)]


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


def _pivot_order(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The row order of M for its QR: row j < len(cols) is the first unused row of
    column j's sector, and the rest follow grouped by sector; ties keep row order."""
    by_sector = np.argsort(rows, kind="stable")
    grouped = rows[by_sector]
    taken = np.searchsorted(grouped, cols) + np.arange(len(cols)) - np.searchsorted(cols, cols)
    rest = np.ones(len(rows), dtype=bool)
    rest[taken] = False
    return np.concatenate([by_sector[taken], by_sector[rest]])


def _fusion_step(
    p: QParams, k: int, up: IrrepBasis, down: IrrepBasis, flops: float
) -> IrrepBasis:
    """B_k from B_{k-1} (up) and B_{k-2} (down) via H_1 (x) H_{k-1} = H_k + H_{k-2}.

    M holds the coordinates of the embedded H_{k-2}, (iota (x) p_{k-1})
    (T_1 (x) B_{k-2}), in the basis X = I_N (x) B_{k-1}; B_k spans the rest.
    Row (a, x) of M lies in sector 2^a XOR sectors[x], and M is block diagonal
    over sectors.  With its rows in `_pivot_order` and Q = I - V T V^T their
    Householder Q, B_k = X Q[:, p:] = X[:, p:] - (X V)(T V[p:]^T), p = d_{k-2}:
    each reflector, and so each column of B_k, lies in one sector.  Below
    SPLIT_FLOPS `flops` that is two products over every row; at or above it,
    one product per letter a and sector: B_{k-1} on the words and columns of
    one sector, times the rows (a, x) of Q in it.
    """
    n, d_up, d_down = p.n, up.dim, down.dim
    cube = up.columns.reshape(n, n ** (k - 2), d_up)
    m = (cube.transpose(0, 2, 1) @ down.columns).reshape(n * d_up, d_down)
    rows = (_word_sectors(n, 1)[:, None] ^ up.sectors).reshape(-1)
    gram = m.T @ m
    gram[np.diag_indices_from(gram)] -= q_int(p, k) / q_int(p, k - 1)
    want = round(dim_irrep(p, k))
    if not float(np.abs(gram).max()) <= FUSION_GRAM_TOL or n * d_up - d_down != want:
        raise InvariantViolation(
            f"fusion step at (n={p.n}, k={k}): M^T M != [{k}]/[{k - 1}] I or not {want} columns"
        )
    if np.any(m, where=rows[:, None] != down.sectors):
        raise InvariantViolation(f"fusion step at (n={p.n}, k={k}): M has an entry off its sectors")
    order = _pivot_order(rows, down.sectors)
    with _blas_threads():  # a QR is many small level-2 calls: faster on one thread
        v, t = _householder_wy(m[order])
    placed = np.empty_like(v)
    placed[order] = v  # V's rows back in the row order of X
    placed, rest, sectors = placed.reshape(n, d_up, d_down), order[d_down:], rows[order[d_down:]]
    if flops < SPLIT_FLOPS:  # two products over every row, as many Python steps as letters
        xv = (up.columns @ placed).reshape(n**k, d_down)
        out = (xv @ (t @ -v[d_down:].T)).reshape(n, n ** (k - 1), want)
        for a in range(n):  # X[:, rest]: column (a, x) of X is B_{k-1}[:, x] on block a
            j = np.flatnonzero(rest // d_up == a)
            out[a][:, j] += up.columns[:, rest[j] % d_up]
        return IrrepBasis(p, k, out.reshape(n**k, want), sectors)
    # B_k[(a, w), c] = sum_x B_{k-1}[w, x] Q[(a, x), c], with w, x and c in one sector each
    out = np.zeros((n, n ** (k - 1), want))
    bits, reflectors = _word_sectors(n, 1), dict(_slices(down.sectors))
    words = {s: (w, x, up.columns[w, x]) for s, (w, x) in up.blocks.items()}
    for s, cols in _slices(sectors):
        at, mine = reflectors.get(s, slice(0)), np.flatnonzero(rows == s)
        q = placed.reshape(n * d_up, d_down)[mine, at] @ (t[at, at] @ -v[d_down:][cols, at].T)
        q[np.searchsorted(mine, rest[cols]), np.arange(q.shape[1])] += 1.0  # Q[mine, cols]
        lo = 0  # rows (a, x) of the sector, a slowest
        for a in range(n):
            if int(bits[a]) ^ s in words:
                w, x, block = words[int(bits[a]) ^ s]
                out[a, w, cols] = block @ q[lo : lo + block.shape[1]]
                lo += block.shape[1]
    return IrrepBasis(p, k, out.reshape(n**k, want), sectors)


def onb_of_irrep(p: QParams, k: int, max_dim: int = DEFAULT_DIM_CAP) -> IrrepBasis:
    """Orthonormal basis of H_k = range(p_k), built (and cached) bottom-up.

    B_0 = [[1]], B_1 = I_N and B_k from `_fusion_step`; no dense p_k is formed.
    Each step costs 2 N^k d_{k-2} (d_{k-1} + d_k) flops over every row, which
    picks its BLAS thread count (`_blas_threads`) and whether it takes sector blocks.
    """
    k = _check_int("k", k, 0)
    _check_cap(p.n, k, max_dim)
    for level in range(k + 1):
        if (p.n, level) in _basis_cache:
            continue
        if level < 2:
            basis = IrrepBasis(p, level, np.eye(p.n**level), _word_sectors(p.n, level))
        else:
            up, down = _basis_cache[(p.n, level - 1)], _basis_cache[(p.n, level - 2)]
            flops = 2 * p.n**level * down.dim * (up.dim + p.n * up.dim - down.dim)
            with _blas_threads(flops):
                basis = _fusion_step(p, level, up, down, flops)
        basis.columns.flags.writeable = False
        basis.sectors.flags.writeable = False
        _basis_cache[(p.n, level)] = basis
    return _basis_cache[(p.n, k)]

