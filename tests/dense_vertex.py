"""Ambient oracles for the package's leg-coordinate computations.

The dense trivalent vertex
A_k^{l,m} = (p_l (x) p_m) (iota^{(x) l-r} (x) T_r (x) iota^{(x) m-r}) p_k
is built here from the dense Wenzl projections: the cup insertion is a
fancy-indexed scatter and the two projections act leg-wise.  The package
builds the same map in leg coordinates without any p; the tests compare
the two.  The elementary tensors of words, the cup vectors T_r and the
Choi matrix are the other ambient N^legs objects the tests check against;
jw_fixes measures ||p_k v - v|| with the dense p_k, and word_parities labels
each word with its sector under the diagonal sign matrices of O(N).
All vectors are flat arrays in row-major leg order, leftmost leg slowest.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Sequence

import numpy as np

from wenzl_lab.errors import DEFAULT_DIM_CAP, InvariantViolation, _check_cap
from wenzl_lab.jones_wenzl import jw_projection
from wenzl_lab.qnum import AdmissibleTriple, QParams
from wenzl_lab.vertex import isometry, reversal_permutation


def basis_vector(
    n: int, multi_index: Sequence[int], max_dim: int = DEFAULT_DIM_CAP
) -> np.ndarray:
    """Elementary tensor e_{i(1)} (x) ... (x) e_{i(k)} in (C^n)^{(x) k}, 1-based indices."""
    idx = tuple(multi_index)
    _check_cap(n, len(idx), max_dim)
    for i in idx:
        if not 1 <= i <= n:
            raise ValueError(f"index {i} out of range 1..{n}")
    data = np.zeros(n ** len(idx))
    flat = 0
    for i in idx:  # row-major, leftmost leg slowest
        flat = flat * n + (i - 1)
    data[flat] = 1.0
    return data


def alternating_vector(
    n: int, legs: int, i: int, j: int, max_dim: int = DEFAULT_DIM_CAP
) -> np.ndarray:
    """The alternating word e_i (x) e_j (x) e_i (x) ... on `legs` legs of C^n."""
    if i == j:
        raise ValueError("alternating word needs two distinct letters")
    word = [i if s % 2 == 0 else j for s in range(legs)]
    return basis_vector(n, word, max_dim=max_dim)


def word_parities(n: int, k: int) -> np.ndarray:
    """The sector XOR_j 2^(w_j) of each word w of k letters (0-based), leftmost
    letter slowest: the character by which diag(s_1..s_N)^{(x) k} scales e_w."""
    words = itertools.product(range(n), repeat=k)
    return np.array([functools.reduce(operator.xor, (1 << a for a in w), 0) for w in words])


def jw_fixes(pk: np.ndarray, v: np.ndarray) -> float:
    """||p_k v - v|| for a flat N^k vector; vanishes on words with no adjacent repeated letter."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (pk.shape[1],):
        raise ValueError(f"vector shape {v.shape} does not match p_k of shape {pk.shape}")
    return float(np.linalg.norm(pk @ v - v))


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


def _project_sides(cols: np.ndarray, pl: np.ndarray, pm: np.ndarray) -> np.ndarray:
    """(p_l (x) p_m) cols for columns on l+m legs: p_l on the leading legs,
    then p_m on the trailing ones, each as one reshaped product."""
    nl, nm, c = pl.shape[0], pm.shape[0], cols.shape[1]
    left = (pl @ cols.reshape(nl, nm * c)).reshape(nl, nm, c)
    right = pm @ left.transpose(1, 0, 2).reshape(nm, nl * c)  # [j, (a, c)]
    return right.reshape(nm, nl, c).transpose(1, 0, 2).reshape(nl * nm, c)


def _vertex_columns(p: QParams, t: AdmissibleTriple, cols: np.ndarray) -> np.ndarray:
    """The vertex applied to N^k-leg columns, through dense p_l and p_m."""
    mid = _insert_cup(cols, p.n, t.l, t.m, t.r)
    return _project_sides(mid, jw_projection(p, t.l), jw_projection(p, t.m))


def three_vertex(
    p: QParams, t: AdmissibleTriple, max_dim: int = DEFAULT_DIM_CAP
) -> np.ndarray:
    """The unnormalized dense vertex A_k^{l,m}: N^k -> N^{l+m}, an N^{l+m} x N^k array."""
    _check_cap(p.n, max(t.k, t.l + t.m), max_dim)
    data = _vertex_columns(p, t, jw_projection(p, t.k, max_dim=max_dim))
    if not np.any(data):
        raise InvariantViolation(f"vertex {t} collapsed to zero")
    return data


def theta_by_trace(data: np.ndarray) -> float:
    """Tr(A^* A) = squared Frobenius norm; brute-force route to the theta-net."""
    return float(np.einsum("ij,ij->", data, data))
