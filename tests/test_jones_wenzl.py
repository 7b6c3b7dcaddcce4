"""Tests for Jones-Wenzl projections, their bases, and the fixing property."""

from __future__ import annotations

import math

import numpy as np
import pytest
from conftest import blas_threads, needs_blas_threads, record_blas_threads
from dense_vertex import alternating_vector, basis_vector, cup_vector, jw_fixes, word_parities
from hypothesis import given, settings
from hypothesis import strategies as st

from wenzl_lab import jones_wenzl as jwmod
from wenzl_lab.errors import DimensionCapError, InvariantViolation
from wenzl_lab.jones_wenzl import (
    IrrepBasis,
    clear_caches,
    jw_projection,
    onb_of_irrep,
    verify_jw,
)
from wenzl_lab.qnum import dim_irrep, quantum_parameter

ATOL = 1e-12
RESIDUAL_TOL = 1e-9


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_level_zero_and_one():
    p = quantum_parameter(3)
    assert jw_projection(p, 0).shape == (1, 1)
    assert jw_projection(p, 0)[0, 0] == 1.0
    np.testing.assert_array_equal(jw_projection(p, 1), np.eye(3))


def test_level_two_closed_form():
    p = quantum_parameter(3)
    t1 = cup_vector(p, 1)
    want = np.eye(9) - np.outer(t1, t1) / 3.0
    got = jw_projection(p, 2)
    np.testing.assert_allclose(got, want, atol=ATOL)
    assert np.trace(got) == pytest.approx(8.0, rel=1e-12)


@pytest.mark.parametrize(
    "n,k,want",
    [(3, 3, 21.0), (3, 4, 55.0), (4, 2, 15.0), (4, 3, 56.0), (5, 2, 24.0)],
)
def test_trace_equals_irrep_dimension(n, k, want):
    p = quantum_parameter(n)
    got = float(np.trace(jw_projection(p, k)))
    assert got == pytest.approx(want, rel=1e-10)
    assert dim_irrep(p, k) == pytest.approx(want, rel=1e-9)


def test_projection_cache_reuses_instances():
    p = quantum_parameter(3)
    a = jw_projection(p, 4)
    b = jw_projection(p, 4)
    assert a is b
    # lower levels were materialized on the way up
    assert (3, 2) in jwmod._jw_cache


def test_cap_exceeded():
    p = quantum_parameter(4)
    with pytest.raises(DimensionCapError):
        jw_projection(p, 7)
    p3 = quantum_parameter(3)
    jw_projection(p3, 5, max_dim=3**5)  # boundary is inclusive
    with pytest.raises(DimensionCapError):
        jw_projection(p3, 5, max_dim=3**5 - 1)


BAD_CAPS = [float("nan"), None, True, False, 0, -1, 2.5, 4096.0, "4096"]


@pytest.mark.parametrize("max_dim", BAD_CAPS, ids=repr)
def test_cap_must_be_a_positive_integer(max_dim):
    p = quantum_parameter(3)
    for build in (jw_projection, onb_of_irrep):
        with pytest.raises(ValueError, match="max_dim must be a positive integer"):
            build(p, 2, max_dim=max_dim)


def test_cap_takes_numpy_integers():
    assert jw_projection(quantum_parameter(3), 2, max_dim=np.int64(9)).shape == (9, 9)


def test_cached_arrays_are_read_only():
    p = quantum_parameter(3)
    for level in range(4):
        for arr in (jw_projection(p, level), onb_of_irrep(p, level).columns):
            with pytest.raises(ValueError, match="read-only"):
                arr *= 2
            with pytest.raises(ValueError, match="read-only"):
                arr.reshape(-1)[0] = 1.0
    for level in (2, 3):
        assert verify_jw(p, level, jw_projection(p, level)).ok


# ---------------------------------------------------------------------------
# verification report
# ---------------------------------------------------------------------------

def test_verify_identity_level_is_exact():
    p = quantum_parameter(4)
    rep = verify_jw(p, 1, jw_projection(p, 1))
    assert rep.idempotence == 0.0
    assert rep.symmetry == 0.0
    assert rep.trace_rel == 0.0
    assert rep.cap_annihilation == 0.0
    assert rep.ok


@pytest.mark.parametrize("n,k", [(3, 4), (3, 5), (4, 4), (5, 3)])
def test_verify_recursion_built_levels(n, k):
    p = quantum_parameter(n)
    rep = verify_jw(p, k, jw_projection(p, k))
    assert rep.ok, rep
    assert rep.idempotence <= 1e-9
    assert rep.symmetry <= 1e-12
    assert rep.trace_rel <= 1e-8
    assert rep.cap_annihilation <= 1e-9


def test_verify_flags_corrupted_projection():
    p = quantum_parameter(3)
    bad = jw_projection(p, 2).copy()
    bad[0, 0] += 0.01
    rep = verify_jw(p, 2, bad)
    assert rep.idempotence > 1e-4
    assert not rep.ok


@pytest.mark.parametrize("shape", [(3, 3), (9,), (9, 3), (27, 27)])
def test_verify_rejects_wrong_shape(shape):
    with pytest.raises(ValueError, match="p_2 at N=3 is 9 x 9"):
        verify_jw(quantum_parameter(3), 2, np.zeros(shape))


def test_spectrum_clusters_at_zero_and_one():
    p = quantum_parameter(3)
    vals = np.linalg.eigvalsh(jw_projection(p, 4))
    near0 = np.abs(vals) <= 1e-9
    near1 = np.abs(vals - 1.0) <= 1e-9
    assert np.all(near0 | near1)


def test_absorption():
    p = quantum_parameter(3)
    for k in (2, 3, 4):
        pk = jw_projection(p, k)
        prev = jw_projection(p, k - 1)
        lifted = np.kron(np.eye(3), prev)
        np.testing.assert_allclose(pk @ lifted, pk, atol=1e-10)


# ---------------------------------------------------------------------------
# irrep bases
# ---------------------------------------------------------------------------

def test_onb_level_one_is_full_space():
    p = quantum_parameter(4)
    basis = onb_of_irrep(p, 1)
    assert basis.columns.shape == (4, 4)
    np.testing.assert_allclose(basis.columns.T @ basis.columns, np.eye(4), atol=1e-12)


@pytest.mark.parametrize("n,k,want", [(3, 2, 8), (4, 3, 56), (3, 4, 55)])
def test_onb_column_counts(n, k, want):
    p = quantum_parameter(n)
    basis = onb_of_irrep(p, k)
    assert basis.columns.shape == (n**k, want)
    assert basis.dim == want


def test_onb_columns_orthonormal_and_fixed():
    p = quantum_parameter(3)
    basis = onb_of_irrep(p, 3)
    cols = basis.columns
    np.testing.assert_allclose(cols.T @ cols, np.eye(cols.shape[1]), atol=1e-10)
    pk = jw_projection(p, 3)
    np.testing.assert_allclose(pk @ cols, cols, atol=1e-9)


def test_onb_level_zero():
    p = quantum_parameter(3)
    basis = onb_of_irrep(p, 0)
    np.testing.assert_array_equal(basis.columns, [[1.0]])


def test_onb_fusion_step_rejects_non_orthonormal_basis():
    p = quantum_parameter(3)
    good = onb_of_irrep(p, 2)
    jwmod._basis_cache[(3, 2)] = IrrepBasis(p, 2, 1.01 * good.columns, good.sectors)
    with pytest.raises(InvariantViolation, match="fusion step"):
        onb_of_irrep(p, 3)


def test_onb_fusion_step_rejects_nan_basis(monkeypatch):
    # a NaN Gram entry would pass `err > tol` and leave level 3 full of NaNs
    p = quantum_parameter(3)
    good = onb_of_irrep(p, 2)
    cols = good.columns.copy()
    cols[0, 0] = np.nan
    monkeypatch.setitem(jwmod._basis_cache, (3, 2), IrrepBasis(p, 2, cols, good.sectors))
    with pytest.raises(InvariantViolation, match="fusion step"):
        onb_of_irrep(p, 3)


def test_onb_fusion_step_rejects_basis_off_its_sectors(monkeypatch):
    # a rotation of two columns of different sectors leaves an orthonormal basis of
    # H_2, which passes the Gram check, under labels that no longer hold
    p = quantum_parameter(3)
    good = onb_of_irrep(p, 2)
    first, last = good.sectors[0], good.sectors[-1]
    assert first != last
    cols = good.columns.copy()
    cols[:, [0, -1]] = good.columns[:, [0, -1]] @ (np.array([[1.0, 1.0], [-1.0, 1.0]]) / 2**0.5)
    monkeypatch.setitem(jwmod._basis_cache, (3, 2), IrrepBasis(p, 2, cols, good.sectors))
    with pytest.raises(InvariantViolation, match="fusion step.*off its sectors"):
        onb_of_irrep(p, 3)


@pytest.mark.parametrize(
    "n,k", [(n, k) for n in (2, 3, 4, 5) for k in range(11) if n**k <= 1024]
)
def test_onb_spans_range_of_projection(n, k):
    p = quantum_parameter(n)
    cols = onb_of_irrep(p, k).columns
    assert cols.shape == (n**k, round(dim_irrep(p, k)))
    pk = jw_projection(p, k)
    np.testing.assert_allclose(cols @ cols.T, pk, atol=RESIDUAL_TOL)
    np.testing.assert_allclose(cols.T @ cols, np.eye(cols.shape[1]), atol=RESIDUAL_TOL)


def _fusion_step_complete_qr(p, k, up, down):
    """The fusion step through the complete Q of a QR: the oracle of `_fusion_step`.

    Labels each column of B_{k-1} and B_{k-2} with the parity of the word at
    its largest entry, and orders the rows (a, x) of the embedded H_{k-2},
    of sector 2^a XOR sector(x): first, for each column in turn, the first
    unused row of its sector, then the rest grouped by sector, each group in
    row order.  Forms the whole N d_{k-1} x N d_{k-1} Q of the rows in that
    order, keeps the columns past the embedded H_{k-2} as W and returns
    (I_N (x) B_{k-1}) W.
    """
    n, d_up, d_down = p.n, up.shape[1], down.shape[1]
    cube = up.reshape(n, n ** (k - 2), d_up)
    m = (cube.transpose(0, 2, 1) @ down).reshape(n * d_up, d_down)
    up_sectors = word_parities(n, k - 1)[np.abs(up).argmax(axis=0)]
    rows = [(1 << a) ^ int(s) for a in range(n) for s in up_sectors]
    pivots, used = [], set()
    for s in word_parities(n, k - 2)[np.abs(down).argmax(axis=0)]:
        pivots.append(next(i for i, r in enumerate(rows) if r == s and i not in used))
        used.add(pivots[-1])
    order = pivots + sorted((i for i in range(len(rows)) if i not in used), key=rows.__getitem__)
    q = np.linalg.qr(m[order], mode="complete")[0]
    w = np.empty((n * d_up, n * d_up - d_down))
    w[order] = q[:, d_down:]  # W's rows back in the order of the columns of I_N (x) B_{k-1}
    return (up @ w.reshape(n, d_up, -1)).reshape(n**k, -1)


FUSION_LEVELS = [(n, k) for n in (2, 3, 4, 5) for k in range(2, 13) if n**k <= 4096]


@pytest.mark.parametrize("n,k", FUSION_LEVELS, ids=[f"{n}-{k}" for n, k in FUSION_LEVELS])
def test_fusion_step_matches_complete_qr_oracle(n, k):
    # the same Householder vectors, so the same basis and not merely the same span
    p = quantum_parameter(n)
    got = onb_of_irrep(p, k).columns
    up = onb_of_irrep(p, k - 1).columns
    down = onb_of_irrep(p, k - 2).columns
    want = _fusion_step_complete_qr(p, k, up, down)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= ATOL


def test_householder_wy_survives_trivial_reflector():
    # a first column that is already reduced gives tau_1 = 0 from LAPACK
    rng = np.random.default_rng(0)
    m = rng.standard_normal((7, 4))
    m[:, 0] = 0.0
    m[0, 0] = 2.5
    v, t = jwmod._householder_wy(m)
    assert t[0, 0] == 0.0
    assert np.all(np.isfinite(t))
    q = np.eye(7) - v @ t @ v.T
    np.testing.assert_allclose(q, np.linalg.qr(m, mode="complete")[0], atol=ATOL)


def test_basis_never_forms_complete_q(monkeypatch):
    real_qr = np.linalg.qr

    def qr_without_complete(a, mode="reduced"):
        if mode == "complete":
            raise AssertionError("complete Q formed")
        return real_qr(a, mode=mode)

    monkeypatch.setattr(jwmod.np.linalg, "qr", qr_without_complete)
    p = quantum_parameter(4)
    assert onb_of_irrep(p, 6).columns.shape == (4**6, round(dim_irrep(p, 6)))


# ---------------------------------------------------------------------------
# fixing property
# ---------------------------------------------------------------------------

def test_fixes_alternating_word_exactly_at_level_two():
    p = quantum_parameter(3)
    v = alternating_vector(3, 2, 1, 2)
    assert jw_fixes(jw_projection(p, 2), v) <= 1e-12


def test_fixes_alternating_word_level_four():
    p = quantum_parameter(3)
    v = alternating_vector(3, 4, 1, 2)
    assert jw_fixes(jw_projection(p, 4), v) <= RESIDUAL_TOL


def test_repeated_letter_word_is_moved():
    p = quantum_parameter(3)
    v = basis_vector(3, (1, 1))
    res = jw_fixes(jw_projection(p, 2), v)
    assert res == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-12)
    assert res > 0.3


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(3, 4),
    k=st.integers(1, 5),
    letters=st.tuples(st.integers(1, 3), st.integers(1, 3)).filter(
        lambda t: t[0] != t[1]
    ),
)
def test_fixes_all_mixed_alternating_words(n, k, letters):
    p = quantum_parameter(n)
    v = alternating_vector(n, k, *letters)
    assert jw_fixes(jw_projection(p, k), v) <= RESIDUAL_TOL


def test_fixes_shape_mismatch_rejected():
    p = quantum_parameter(3)
    v = basis_vector(3, (1, 2, 1))
    with pytest.raises(ValueError):
        jw_fixes(jw_projection(p, 2), v)


# ---------------------------------------------------------------------------
# BLAS thread count
# ---------------------------------------------------------------------------

@needs_blas_threads
def test_small_dense_levels_run_on_a_single_blas_thread(monkeypatch):
    # the N=3 levels 2..4 cost at most 2 * 3^10 flops, far below SPLIT_FLOPS,
    # so they drop to one thread even while the pool runs at the caller's count
    caller = blas_threads()
    levels = []
    record_blas_threads(monkeypatch, jwmod, "_wenzl_step", levels)
    jw_projection(quantum_parameter(3), 4)
    assert levels == [1, 1, 1]
    assert blas_threads() == caller
