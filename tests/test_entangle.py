"""Tests for Schmidt spectra, rapid-decay certificates, the optimizer,
and the saturation witness family and its highest-weight product vector."""

from __future__ import annotations

import dataclasses
import itertools
import math
import threading

import numpy as np
import pytest
from conftest import (
    blas_threads,
    needs_blas_threads,
    push_budget,
    put_nan_legs,
    record_blas_threads,
)
from dense_vertex import alternating_vector, basis_vector, jw_fixes
from test_acceptance import SWEEP_FULL, SWEEP_SMALL

from wenzl_lab import entangle, jones_wenzl, vertex
from wenzl_lab.entangle import (
    SIDE_AGREEMENT_TOL,
    max_schmidt_optimizer,
    rd_certificate,
    schmidt_spectrum,
    verify_saturation,
    witness_family,
    witness_family_size,
    witness_image,
)
from wenzl_lab.errors import DEFAULT_DIM_CAP, InvariantViolation
from wenzl_lab.jones_wenzl import jw_projection, onb_of_irrep
from wenzl_lab.qnum import AdmissibleTriple, admissible_triples, quantum_parameter
from wenzl_lab.vertex import EquivariantIsometry, isometry


def _image(p, t, v):
    """alpha(v) as its d_l x d_m leg matrix, for an ambient vector v of H_k."""
    iso = isometry(p, t)
    coords = iso.basis.columns.T @ v
    return (iso.legs @ coords).reshape(iso.basis_l.dim, iso.basis_m.dim)


# ---------------------------------------------------------------------------
# schmidt_spectrum
# ---------------------------------------------------------------------------

def test_schmidt_of_bell_image():
    p = quantum_parameter(3)
    t = AdmissibleTriple(0, 1, 1)
    v = _image(p, t, basis_vector(3, ()))
    rep = schmidt_spectrum(v)
    np.testing.assert_allclose(rep.coefficients, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)
    assert rep.entropy == pytest.approx(math.log(3.0), rel=1e-10)
    assert rep.numerical_rank == 3


def test_schmidt_of_separable_vector():
    n = 3
    a = basis_vector(n, (2,))
    b = basis_vector(n, (1, 2))
    rep = schmidt_spectrum(np.outer(a, b))
    assert rep.max == pytest.approx(1.0, rel=1e-12)
    assert rep.entropy == pytest.approx(0.0, abs=1e-12)
    assert rep.numerical_rank == 1


def test_schmidt_of_highest_weight_image_is_rank_one():
    p = quantum_parameter(3)
    t = AdmissibleTriple(2, 1, 1)
    v = _image(p, t, alternating_vector(3, 2, 1, 2))
    rep = schmidt_spectrum(v)
    assert rep.numerical_rank == 1
    assert rep.max == pytest.approx(1.0, rel=1e-9)


def test_schmidt_sum_equals_squared_norm():
    rng = np.random.default_rng(11)
    v = rng.standard_normal((9, 9))
    rep = schmidt_spectrum(v)
    assert rep.coefficients.sum() == pytest.approx(np.linalg.norm(v) ** 2, rel=1e-9)
    assert np.all(np.diff(rep.coefficients) <= 1e-15)


def test_schmidt_zero_vector_rejected():
    with pytest.raises(ValueError, match="zero vector"):
        schmidt_spectrum(np.zeros((3, 3)))


@pytest.mark.parametrize("shape", [(9,), (3, 3, 3)])
def test_schmidt_needs_a_matrix(shape):
    with pytest.raises(ValueError, match="needs a matrix"):
        schmidt_spectrum(np.ones(shape))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_schmidt_needs_finite_entries(bad):
    mat = np.eye(3)
    mat[1, 2] = bad
    with pytest.raises(ValueError, match="finite entries"):
        schmidt_spectrum(mat)


def test_schmidt_rejects_finite_input_whose_squared_norm_overflows():
    with pytest.raises(ValueError, match="overflows"):
        schmidt_spectrum(np.array([[1e200]]))


def test_schmidt_vectors_live_in_projected_ranges():
    # singular vectors with weight lie in range(p_l) and range(p_m)
    p = quantum_parameter(3)
    t = AdmissibleTriple(1, 1, 2)
    rng = np.random.default_rng(5)
    iso = isometry(p, t)
    coords = rng.standard_normal(iso.reduced.shape[1])
    coords /= np.linalg.norm(coords)
    mat = (iso.reduced @ coords).reshape(3, 9)
    u, s, vt = np.linalg.svd(mat)
    pl = jw_projection(p, 1)
    pm = jw_projection(p, 2)
    for col in range(len(s)):
        if s[col] <= 1e-8:
            continue
        assert np.linalg.norm(pl @ u[:, col] - u[:, col]) < 1e-8
        assert np.linalg.norm(pm @ vt[col] - vt[col]) < 1e-8


# ---------------------------------------------------------------------------
# rapid-decay certificate
# ---------------------------------------------------------------------------

def test_rd_certificate_bell_is_exact():
    p = quantum_parameter(3)
    cert = rd_certificate(p, AdmissibleTriple(0, 1, 1), samples=50, seed=1)
    assert cert.max_observed == pytest.approx(1.0 / 3.0, rel=1e-10)
    assert cert.bound_exact == pytest.approx(1.0 / 3.0, rel=1e-10)
    assert not cert.violated


@pytest.mark.parametrize(
    "n,k,l,m",
    [(3, 1, 1, 2), (3, 2, 2, 2), (3, 2, 1, 1), (4, 2, 2, 2), (3, 1, 2, 3)],
)
def test_rd_certificate_never_violated(n, k, l, m):
    p = quantum_parameter(n)
    cert = rd_certificate(p, AdmissibleTriple(k, l, m), samples=100, seed=2)
    assert not cert.violated
    assert cert.max_observed <= cert.bound_exact + 1e-8
    assert cert.bound_exact <= cert.bound_coarse + 1e-12


def test_rd_certificate_deterministic():
    p = quantum_parameter(3)
    t = AdmissibleTriple(1, 1, 2)
    a = rd_certificate(p, t, samples=64, seed=9)
    b = rd_certificate(p, t, samples=64, seed=9)
    assert a.max_observed == b.max_observed


@pytest.mark.parametrize("samples", [0, -1])
def test_rd_certificate_rejects_too_few_samples(samples):
    with pytest.raises(ValueError, match="samples must be a positive integer"):
        rd_certificate(quantum_parameter(3), AdmissibleTriple(1, 1, 2), samples=samples)


@pytest.mark.parametrize(
    "kwargs", [{"samples": 2.5}, {"samples": True}, {"seed": 1.5}, {"seed": -1}]
)
def test_rd_certificate_rejects_non_integer_counts(kwargs):
    with pytest.raises(ValueError, match="must be"):
        rd_certificate(quantum_parameter(3), AdmissibleTriple(1, 1, 2), **kwargs)


@pytest.mark.parametrize("chunk", [1, 3])
def test_image_spectra_chunks_match_one_stack(monkeypatch, chunk):
    # the budget is in bytes: one byte short of `chunk` images leaves chunk - 1 columns
    p, t = quantum_parameter(3), AdmissibleTriple(2, 2, 2)
    iso = isometry(p, t)
    x = np.random.default_rng(4).standard_normal((iso.basis.dim, 7))
    whole = entangle._image_spectra(iso, x)
    one_rd = rd_certificate(p, t, samples=20, seed=5).max_observed
    push_budget(monkeypatch, iso, chunk)
    block = lambda a, b: x[:, a:b]  # noqa: E731
    spectra = entangle._pushed(iso, 7, block, lambda cols: entangle._image_spectra(iso, cols))
    assert [len(s) for s in spectra] == [chunk] * (7 // chunk) + [7 % chunk] * (7 % chunk > 0)
    np.testing.assert_allclose(np.concatenate(spectra), whole, rtol=0, atol=1e-12)
    assert abs(rd_certificate(p, t, samples=20, seed=5).max_observed - one_rd) <= 1e-12
    monkeypatch.setattr(entangle, "_PUSH_BYTES", entangle._PUSH_BYTES - 1)
    assert entangle._pushed(iso, 7, block, lambda cols: cols.shape[1])[0] == max(1, chunk - 1)


def test_rd_certificate_highest_weight_attains_one():
    p = quantum_parameter(3)
    cert = rd_certificate(p, AdmissibleTriple(2, 1, 1), samples=100, seed=3)
    assert cert.bound_exact == pytest.approx(1.0, rel=1e-10)
    assert cert.max_observed <= 1.0 + 1e-8


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "n,k,l,m,want",
    [
        (3, 0, 1, 1, math.sqrt(1.0 / 3.0)),
        (3, 1, 1, 2, math.sqrt(3.0 / 8.0)),
        (3, 2, 1, 1, 1.0),
        (4, 2, 2, 2, math.sqrt(2.0 / 7.0)),
    ],
)
def test_optimizer_attains_supremum(n, k, l, m, want):
    p = quantum_parameter(n)
    res = max_schmidt_optimizer(p, AdmissibleTriple(k, l, m), restarts=20, seed=0)
    assert res.converged
    assert res.value == pytest.approx(want, abs=1e-6)
    assert res.value <= want + 1e-8


def test_optimizer_deterministic_and_argmax_consistent():
    p = quantum_parameter(3)
    t = AdmissibleTriple(2, 2, 2)
    a = max_schmidt_optimizer(p, t, restarts=8, seed=4)
    b = max_schmidt_optimizer(p, t, restarts=8, seed=4)
    assert a.value == b.value
    np.testing.assert_array_equal(a.xi, b.xi)
    # the returned triple, in irrep coordinates, reproduces the reported value
    iso = isometry(p, t)
    assert a.xi.shape == (iso.basis.dim,)
    assert (a.eta.shape, a.zeta.shape) == ((iso.basis_l.dim,), (iso.basis_m.dim,))
    overlap = (iso.legs @ a.xi) @ np.kron(a.eta, a.zeta)
    assert abs(overlap) == pytest.approx(a.value, rel=1e-9)


def test_optimizer_unit_vectors():
    p = quantum_parameter(3)
    res = max_schmidt_optimizer(p, AdmissibleTriple(1, 1, 2), restarts=5, seed=7)
    for vec in (res.xi, res.eta, res.zeta):
        assert np.linalg.norm(vec) == pytest.approx(1.0, rel=1e-10)


def _serial_restart(reduced, nl, nm, rng, tol, max_iters):
    """One restart of the alternating power iteration, one vector at a time.

    The reference the batched optimizer is checked against: the same
    draws from the same generator, with an explicit xi step and ambient
    GEMVs through `reduced` on either side of the fusion rule.
    """
    d = reduced.shape[1]

    def normalized(vec):
        nrm = np.linalg.norm(vec)
        if nrm < 1e-300:  # degenerate contraction; restart direction
            vec = rng.standard_normal(vec.shape)
            nrm = np.linalg.norm(vec)
        return vec / nrm

    xi = normalized(rng.standard_normal(d))
    eta = normalized(rng.standard_normal(nl))
    zeta = normalized(rng.standard_normal(nm))
    prev = -1.0
    outer = np.empty((nl, nm))
    for sweep in range(1, max_iters + 1):
        mat = (reduced @ xi).reshape(nl, nm)
        eta = normalized(mat @ zeta)
        zeta = normalized(mat.T @ eta)
        np.outer(eta, zeta, out=outer)
        raw = reduced.T @ outer.reshape(-1)
        obj = float(np.linalg.norm(raw))
        xi = normalized(raw)
        if abs(obj - prev) <= tol * max(1.0, obj):
            return obj, True, sweep
        prev = obj
    return prev, False, max_iters


def _dense_block_sweep(cube, c, eta, zeta, normalized):
    """One exact block sweep of one restart, from `legs` as a d_l x d_m x [k+1] cube.

    eta becomes its projection onto the top eigenspace of L L^T, with L
    (d_l x [k+1]) `legs` contracted with zeta: the top d_l - c
    eigenvectors when d_l exceeds c = d_l d_m - [k+1], else the top one.
    zeta follows from eta the same way.  Returns eta, zeta and the
    objective ||legs^T (eta (x) zeta)||.
    """

    def block(mat, cur):
        vecs = np.linalg.eigh(mat @ mat.T)[1]
        top = vecs[:, min(c, len(vecs) - 1) :]
        return normalized(top @ (top.T @ cur))

    eta = block(np.einsum("xyk,y->xk", cube, zeta), eta)
    mat = np.einsum("x,xyk->yk", eta, cube)
    zeta = block(mat, zeta)
    return eta, zeta, float(np.linalg.norm(mat.T @ zeta))


def _serial_block_restart(iso, rng, tol, max_iters):
    """One complement-side restart of the exact block step, one vector at a time.

    The reference the batched complement side is checked against: the
    same three draws from the same generator (xi's is unused), then
    `_dense_block_sweep` through the dense `legs`, never through C.
    """
    bl, bm = iso.basis_l.columns, iso.basis_m.columns
    cube = iso.legs.reshape(bl.shape[1], bm.shape[1], -1)
    c = bl.shape[1] * bm.shape[1] - cube.shape[2]

    def normalized(vec):
        nrm = np.linalg.norm(vec)
        if nrm < 1e-300:  # degenerate projection; restart direction
            vec = rng.standard_normal(vec.shape)
            nrm = np.linalg.norm(vec)
        return vec / nrm

    normalized(rng.standard_normal(cube.shape[2]))
    eta = normalized(rng.standard_normal(bl.shape[0])) @ bl
    zeta = normalized(rng.standard_normal(bm.shape[0])) @ bm
    prev = -1.0
    for sweep in range(1, max_iters + 1):
        eta, zeta, obj = _dense_block_sweep(cube, c, eta, zeta, normalized)
        if abs(obj - prev) <= tol * max(1.0, obj):
            return obj, True, sweep
        prev = obj
    return prev, False, max_iters


def _serial_optimizer(p, t, restarts, seed, tol=1e-12, max_iters=1000):
    """Per-restart (value, converged, sweeps) and the winning index, from the
    serial restart of the side of the fusion rule the optimizer runs on."""
    iso = isometry(p, t)
    d_l, d_m, d_k = iso.basis_l.dim, iso.basis_m.dim, iso.basis.dim
    rngs = [np.random.default_rng(seq) for seq in np.random.SeedSequence(seed).spawn(restarts)]
    if d_l * d_m - d_k < d_k:  # the complement side
        rows = [_serial_block_restart(iso, rng, tol, max_iters) for rng in rngs]
    else:
        reduced = iso.reduced
        rows = [_serial_restart(reduced, p.n**t.l, p.n**t.m, rng, tol, max_iters) for rng in rngs]
    winner = max(range(restarts), key=lambda i: (rows[i][0], -i))
    return rows, winner


@pytest.mark.parametrize(
    "n,k,l,m",
    [
        (3, 1, 1, 2),
        (3, 2, 2, 2),
        (4, 2, 3, 3),
        # complement side: d_l d_m - [k+1] < [k+1]
        (3, 4, 2, 2),
        (4, 5, 3, 2),
        (5, 4, 3, 1),
        (3, 2, 0, 2),  # empty complement
        (2, 2, 1, 1),
    ],
)
def test_optimizer_matches_serial_oracle(n, k, l, m):
    p = quantum_parameter(n)
    t = AdmissibleTriple(k, l, m)
    res = max_schmidt_optimizer(p, t, restarts=20, seed=0)
    rows, winner = _serial_optimizer(p, t, restarts=20, seed=0)
    value, converged, _ = rows[winner]
    assert res.converged == converged
    assert res.value == pytest.approx(value, rel=1e-12, abs=0.0)
    assert res.restart_converged == tuple(row[1] for row in rows)
    assert res.restart_sweeps == tuple(row[2] for row in rows)


@pytest.mark.parametrize("n,k,l,m", [(4, 4, 3, 3)])
def test_optimizer_tails_match_serial_oracle(n, k, l, m):
    # an alpha-side triple where a few restarts run on alone for hundreds
    # of sweeps after the rest left the batch
    p = quantum_parameter(n)
    t = AdmissibleTriple(k, l, m)
    res = max_schmidt_optimizer(p, t, restarts=12, seed=0)
    rows, _ = _serial_optimizer(p, t, restarts=12, seed=0)
    assert max(res.restart_sweeps) == 1000 and min(res.restart_sweeps) < 500
    assert res.restart_sweeps == tuple(row[2] for row in rows)
    assert res.restart_converged == tuple(row[1] for row in rows)


def test_bare_row_norm_is_linalg_norm_bit_for_bit():
    # `_unit_rows` and the optimizer's objective take row norms in this
    # bare form; a numpy that summed `norm` otherwise would move the
    # pinned sweep counts without a word
    rng = np.random.default_rng(0)
    for length in range(1, 701):
        rows = rng.standard_normal((3, length))
        np.testing.assert_array_equal(
            np.sqrt(np.add.reduce(rows * rows, axis=1)), np.linalg.norm(rows, axis=1)
        )


FUSION_LEGS = sorted({(p.n, t.l, t.m) for p, t in SWEEP_SMALL})


@pytest.mark.parametrize("n,l,m", FUSION_LEGS)
def test_fusion_rule_leg_coordinates_are_orthogonal(n, l, m):
    # H_l (x) H_m = (+)_r H_{l+m-2r}: the alpha_{k'} fill the product space
    p = quantum_parameter(n)
    stack = np.hstack([isometry(p, t).legs for t in admissible_triples(l, m)])
    assert stack.shape[0] == stack.shape[1]
    gram = stack.T @ stack
    gram[np.diag_indices_from(gram)] -= 1.0
    assert np.abs(gram).max() <= 1e-9


@pytest.mark.parametrize(
    "corrupt,message",
    [
        (lambda cols, top: 3.0 * cols, "fusion rule"),
        (lambda cols, top: 2.0 * cols, "fusion rule"),
        (lambda cols, top: 1.5 * cols, "fusion rule"),
        (lambda cols, top: cols[:, 1:], "fusion rule"),
        (lambda cols, top: top[:, : cols.shape[1]].copy(), "direct value"),
    ],
    ids=["scaled", "scaled-2", "scaled-1.5", "missing-column", "inside-range"],
)
def test_optimizer_rejects_broken_complement(monkeypatch, corrupt, message):
    # (4, 2, 2) is highest weight, so its optimum has no weight on alpha_2
    # and the iteration alone would not see a rescaled alpha_2; the
    # complement's C^T C = I check and column count catch it up front.
    # Orthonormal columns taken from alpha_4's own range pass that check
    # but leave the wrong projector, which the direct value exposes.
    p, t = _break_complement(monkeypatch, corrupt)
    with pytest.raises(InvariantViolation, match=message):
        max_schmidt_optimizer(p, t, restarts=4, seed=0)


@pytest.mark.parametrize("k", [2, 4], ids=["alpha-side", "complement-side"])
def test_optimizer_rejects_nan_legs(monkeypatch, k):
    # neither side's sweep reads alpha's own `legs`, so only the direct
    # value sees the NaN, and `err > tol` would let it through
    p, t = quantum_parameter(3), AdmissibleTriple(k, 2, 2)
    iso = isometry(p, t)
    legs = iso.legs.copy()
    legs[0, 0] = np.nan
    monkeypatch.setitem(vertex._iso_cache, (3, k, 2, 2), dataclasses.replace(iso, legs=legs))
    with pytest.raises(InvariantViolation, match="direct value"):
        max_schmidt_optimizer(p, t, restarts=4, seed=0)


@pytest.mark.parametrize("at", [(0, 0), (-1, -1)], ids=["first", "last"])
@pytest.mark.parametrize(
    "call, message",
    [(rd_certificate, "image Gram"), (verify_saturation, "witness image")],
    ids=["rd_certificate", "verify_saturation"],
)
def test_nan_legs_are_an_invariant_violation(monkeypatch, at, call, message):
    # the checks sit on the small products, the image Gram stack and the
    # witness image, which a NaN anywhere in `legs` reaches (NaN * 0 is NaN)
    p, t = put_nan_legs(monkeypatch, at)
    with pytest.raises(InvariantViolation, match=message):
        call(p, t)


def _break_complement(monkeypatch, corrupt):
    """Put a corrupted alpha_2 at N=3 (2, 2, 2) into the isometry cache,
    where the optimizer at (4, 2, 2) reads it as its complement C."""
    p = quantum_parameter(3)
    t = AdmissibleTriple(4, 2, 2)
    other = isometry(p, AdmissibleTriple(2, 2, 2))
    bad = EquivariantIsometry(
        other.triple,
        p,
        other.basis,
        other.basis_l,
        other.basis_m,
        corrupt(other.legs, isometry(p, t).legs),
        other.scale,
        other.theta_closed,
        other.theta_trace,
    )
    monkeypatch.setitem(vertex._iso_cache, (3, 2, 2, 2), bad)
    return p, t


def test_optimizer_restart_record():
    p = quantum_parameter(3)
    t = AdmissibleTriple(1, 1, 2)
    res = max_schmidt_optimizer(p, t, restarts=7, seed=3)
    _, winner = _serial_optimizer(p, t, restarts=7, seed=3)
    assert len(res.restart_sweeps) == len(res.restart_converged) == 7
    assert res.restart_sweeps[winner] == res.sweeps
    assert res.restart_converged[winner] == res.converged


def test_optimizer_unconverged_restarts_report_last_value():
    p = quantum_parameter(3)
    t = AdmissibleTriple(2, 2, 2)
    res = max_schmidt_optimizer(p, t, restarts=4, seed=1, max_iters=2)
    rows, _ = _serial_optimizer(p, t, restarts=4, seed=1, max_iters=2)
    assert res.restart_sweeps == (2, 2, 2, 2)
    assert res.restart_converged == (False,) * 4
    assert not res.converged
    assert res.value == pytest.approx(max(row[0] for row in rows), rel=1e-12, abs=0.0)
    np.testing.assert_allclose(res.restart_values, [row[0] for row in rows], rtol=1e-12, atol=0)


@pytest.mark.parametrize("n,k,l,m", [(3, 2, 2, 2), (4, 2, 3, 3), (3, 4, 2, 2)])
def test_optimizer_restart_values(n, k, l, m):
    # one alpha-side, one N=4 alpha-side and one complement-side triple
    p = quantum_parameter(n)
    t = AdmissibleTriple(k, l, m)
    res = max_schmidt_optimizer(p, t, restarts=7, seed=3)
    rows, winner = _serial_optimizer(p, t, restarts=7, seed=3)
    assert len(res.restart_values) == 7
    np.testing.assert_allclose(res.restart_values, [row[0] for row in rows], rtol=1e-12, atol=0)
    assert max(res.restart_values) == res.restart_values[winner]
    assert abs(res.value - res.restart_values[winner]) <= SIDE_AGREEMENT_TOL
    assert all(v <= res.value + SIDE_AGREEMENT_TOL for v in res.restart_values)


ALPHA_SIDE = [(p, t) for p, t in SWEEP_SMALL if t.r >= 1]
HIGHEST_WEIGHT = [(p, t) for p, t in SWEEP_SMALL if t.r == 0]  # the complement side


def _normalized(rows, norms=None):
    if norms is None:
        norms = np.linalg.norm(rows, axis=1)
    return rows / norms[:, None]


@pytest.mark.parametrize(
    "p,t", ALPHA_SIDE, ids=[f"N{p.n}-{t.k}{t.l}{t.m}" for p, t in ALPHA_SIDE]
)
def test_factored_sweep_matches_dense_legs_step(p, t):
    # one sweep through B_k, B_l, B_m and the cup against the same sweep
    # through the dense leg matrix: eta, zeta from alpha(xi), then alpha^*
    iso = isometry(p, t)
    legs, dl, dm = iso.legs, iso.basis_l.dim, iso.basis_m.dim
    rng = np.random.default_rng(11)
    xi = _normalized(rng.standard_normal((3, iso.basis.dim)))
    zeta = _normalized(rng.standard_normal((3, dm)))
    mats = (xi @ legs.T).reshape(3, dl, dm)
    eta_want = _normalized(np.einsum("rxy,ry->rx", mats, zeta))
    zeta_want = _normalized(np.einsum("rx,rxy->ry", eta_want, mats))
    outer = (eta_want[:, :, None] * zeta_want[:, None, :]).reshape(3, -1)
    xi_want = outer @ legs
    cup = vertex._cup_gather(p.n, t, iso.basis_m.columns)
    gather = cup.reshape(-1, dm)
    cz = (zeta @ gather.T).reshape(3, *cup.shape[:2])
    ops = (iso.scale * iso.basis.columns, iso.basis_l.columns, cup)
    eta, zeta, obj, (xi, cz) = entangle._alpha_step(ops, (xi, cz), _normalized)
    for got, want in ((eta, eta_want), (zeta, zeta_want), (obj[:, None] * xi, xi_want)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    np.testing.assert_allclose(cz.reshape(3, -1), zeta @ gather.T, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "p,t", HIGHEST_WEIGHT, ids=[f"N{p.n}-{t.k}{t.l}{t.m}" for p, t in HIGHEST_WEIGHT]
)
def test_complement_sweep_matches_dense_legs_block_solve(p, t):
    # one exact block sweep through C against the same sweep through the
    # dense legs, where eta and zeta come from top eigenspaces of L L^T.
    # Near-degenerate top eigenvalues leave the vectors themselves (not
    # only their signs) ill-determined, so each is checked by what it
    # attains: eta the optimum of its block, and (eta, zeta) the objective
    iso = isometry(p, t)
    dl, dm = iso.basis_l.dim, iso.basis_m.dim
    cube = entangle._complement_legs(iso, DEFAULT_DIM_CAP).reshape(dl, dm, -1)
    ops = (cube, np.ascontiguousarray(cube.swapaxes(0, 1)))
    rng = np.random.default_rng(11)
    eta = _normalized(rng.standard_normal((3, dl)))
    zeta = _normalized(rng.standard_normal((3, dm)))
    got_eta, got_zeta, obj, state = entangle._complement_sweep(ops, (eta, zeta), _normalized)
    assert state[0] is got_eta and state[1] is got_zeta
    legs_cube = iso.legs.reshape(dl, dm, -1)
    for row in range(3):
        want_eta, _, want_obj = _dense_block_sweep(
            legs_cube, dl * dm - iso.basis.dim, eta[row], zeta[row], lambda v: v / np.linalg.norm(v)
        )
        assert obj[row] == pytest.approx(want_obj, rel=0, abs=1e-12)
        by_zeta = np.einsum("xyk,y->xk", legs_cube, zeta[row])
        assert np.linalg.norm(by_zeta.T @ got_eta[row]) == pytest.approx(
            np.linalg.norm(by_zeta.T @ want_eta), rel=0, abs=1e-12
        )
        direct = np.linalg.norm(np.kron(got_eta[row], got_zeta[row]) @ iso.legs)
        assert direct == pytest.approx(obj[row], rel=0, abs=1e-12)


@pytest.mark.parametrize(
    "p,t", HIGHEST_WEIGHT, ids=[f"N{p.n}-{t.k}{t.l}{t.m}" for p, t in HIGHEST_WEIGHT]
)
def test_highest_weight_restarts_converge_within_five_sweeps(p, t):
    # the exact block step reaches the supremum 1 at once; a power step
    # here converged sublinearly and ran restarts on to max_iters
    res = max_schmidt_optimizer(p, t, restarts=20, seed=0)
    assert all(res.restart_converged)
    assert max(res.restart_sweeps) <= 5
    assert abs(res.value - 1.0) <= 1e-13


def test_complement_projection_redraws_an_iterate_inside_range(monkeypatch):
    # N=2 (2, 1, 1): B_1 = I and C is the cup (e_0 e_0 + e_1 e_1) / sqrt 2,
    # so A_zeta = zeta / sqrt 2 and with eta = zeta = e_0 the iterate lies
    # inside range(A_zeta): its projection is exactly 0, and restart 0 must
    # redraw eta from its own generator after its three starting draws
    real = entangle._complement_sweep
    row_norms, etas = [], []

    def sweep(ops, state, unit):
        def recording_unit(rows, norms=None):
            row_norms.append(float(np.linalg.norm(rows[0])))
            return unit(rows, norms)

        if not etas:
            eta, zeta = (part.copy() for part in state)
            eta[0] = zeta[0] = (1.0, 0.0)
            state = (eta, zeta)
        out = real(ops, state, recording_unit)
        etas.append(out[0][0].copy())
        return out

    monkeypatch.setattr(entangle, "_complement_sweep", sweep)
    res = max_schmidt_optimizer(quantum_parameter(2), AdmissibleTriple(2, 1, 1), restarts=3, seed=5)
    assert row_norms[0] == 0.0  # the branch was taken
    rng = np.random.default_rng(np.random.SeedSequence(5).spawn(3)[0])
    for size in (3, 2, 2):
        rng.standard_normal(size)
    redraw = rng.standard_normal(2)
    np.testing.assert_allclose(etas[0], redraw / np.linalg.norm(redraw), rtol=0, atol=1e-15)
    assert all(res.restart_converged)
    assert abs(res.restart_values[0] - 1.0) <= 1e-13


def _crafted_degenerate_run(monkeypatch):
    """The optimizer at N=3 (0,1,1) with restart 0's first (eta, zeta) set to (e_0, e_1).

    B_1 is the identity there, so alpha^*(e_0 (x) e_1) = s <cup|e_0 (x) e_1>
    is exactly 0 and restart 0 must redraw xi.  Returns the result and
    each sweep's objective in row 0, the norm of its xi before the redraw.
    """
    real = entangle._alpha_step
    crafted = iter(np.eye(3)[:2])
    xi_norms = []

    def step(ops, state, unit):
        def crafted_unit(rows, norms=None):
            rows = unit(rows, norms)
            vec = next(crafted, None)
            if vec is not None:
                rows[0] = vec
            return rows

        eta, zeta, obj, state = real(ops, state, crafted_unit)
        xi_norms.append(float(obj[0]))
        return eta, zeta, obj, state

    with monkeypatch.context() as patch:
        patch.setattr(entangle, "_alpha_step", step)
        res = max_schmidt_optimizer(
            quantum_parameter(3), AdmissibleTriple(0, 1, 1), restarts=4, seed=5
        )
    return res, xi_norms


def test_optimizer_redraws_degenerate_xi(monkeypatch):
    a, norms_a = _crafted_degenerate_run(monkeypatch)
    b, norms_b = _crafted_degenerate_run(monkeypatch)
    assert norms_a[0] == 0.0  # the branch was taken
    assert norms_a[1] > 0.0 and norms_a == norms_b
    assert a.restart_values == b.restart_values and a.restart_sweeps == b.restart_sweeps
    np.testing.assert_array_equal(a.xi, b.xi)
    assert all(a.restart_converged)
    assert a.restart_values[0] == pytest.approx(math.sqrt(1.0 / 3.0), rel=1e-12)
    assert a.value == pytest.approx(math.sqrt(1.0 / 3.0), rel=1e-12)


def test_ascend_keeps_each_restart_with_its_record_and_generator():
    # a scripted step that runs no alpha: restart 1 leaves at sweep 2 and
    # restart 0 at sweep 4, restart 2 stops at max_iters.  At sweep 3
    # restart 2 sits in row 1, and the step hands `unit` a zero row there,
    # which must be redrawn from rngs[2], not from rngs[1]
    objectives = {0: [1.0, 2.0, 7.0, 7.0], 1: [4.0, 4.0], 2: [1.0, 2.0, 3.0, 4.0, 9.0]}
    sweeps, redrawn = [], []

    def step(ops, state, unit):
        (rows,) = state
        sweeps.append(rows.tolist())
        s = len(sweeps)
        eta = np.array([[r + 1.0, s] for r in rows])
        if s == 3:
            eta[1] = 0.0
        eta = unit(eta)
        if s == 3:
            redrawn.append(eta[1].copy())
        zeta = unit(np.array([[s, r + 1.0, 1.0] for r in rows]))
        return eta, zeta, np.array([objectives[r][s - 1] for r in rows]), state

    rngs = [np.random.default_rng(seed) for seed in range(3)]
    records = entangle._ascend(step, None, (np.arange(3),), rngs, 1e-12, 5)
    assert sweeps == [[0, 1, 2], [0, 1, 2], [0, 2], [0, 2], [2]]
    want = np.random.default_rng(2).standard_normal(2)
    np.testing.assert_allclose(redrawn[0], want / np.linalg.norm(want), rtol=0, atol=1e-15)
    assert rngs[1].bit_generator.state == np.random.default_rng(1).bit_generator.state
    assert len(records) == 3
    for r, (obj, stop, converged) in enumerate([(7.0, 4, True), (4.0, 2, True), (9.0, 5, False)]):
        got_obj, got_stop, got_converged, eta, zeta = records[r]
        assert (got_obj, got_stop, bool(got_converged)) == (obj, stop, converged)
        np.testing.assert_allclose(eta, _normalized(np.array([[r + 1.0, stop]]))[0], atol=1e-15)
        np.testing.assert_allclose(zeta, _normalized(np.array([[stop, r + 1.0, 1.0]]))[0], atol=1e-15)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"tol": -1.0},
        {"tol": 0.0},
        {"tol": float("nan")},
        {"tol": float("inf")},
        {"tol": True},
        {"tol": "x"},
        {"tol": 1e-12 + 0j},
        {"max_iters": 0},
        {"restarts": 0},
        {"restarts": 2.5},
        {"restarts": True},
        {"max_iters": 10.5},
        {"max_iters": True},
        {"seed": 1.5},
        {"seed": True},
        {"seed": -1},
    ],
)
def test_optimizer_rejects_bad_settings(kwargs):
    with pytest.raises(ValueError):
        max_schmidt_optimizer(quantum_parameter(3), AdmissibleTriple(1, 1, 2), **kwargs)


# ---------------------------------------------------------------------------
# one BLAS thread for the sweeps and the sampling stacks
# ---------------------------------------------------------------------------

@needs_blas_threads
@pytest.mark.parametrize(
    "k,l,m,sweep", [(2, 2, 2, "_alpha_step"), (4, 2, 2, "_complement_sweep")]
)
def test_optimizer_sweeps_on_one_blas_thread(monkeypatch, k, l, m, sweep):
    caller = blas_threads()
    sweeps, builds = [], []
    record_blas_threads(monkeypatch, entangle, sweep, sweeps)
    for build in ("isometry", "_complement_legs"):
        record_blas_threads(monkeypatch, entangle, build, builds)
    max_schmidt_optimizer(quantum_parameter(3), AdmissibleTriple(k, l, m), restarts=3, seed=0)
    assert sweeps and set(sweeps) == {1}
    assert builds and set(builds) == {caller}
    assert blas_threads() == caller


@needs_blas_threads
def test_complement_gram_on_one_blas_thread(monkeypatch):
    """N=3 (4;2,2)'s C^T C (64 x 9 complement columns, 1.0e4 flops) runs in its own
    scope, so on one thread whatever count its caller holds; the optimizer calls
    `_complement_legs` before it opens its own scope."""
    iso = isometry(quantum_parameter(3), AdmissibleTriple(4, 2, 2))
    caller = blas_threads()
    grams = []

    class Recorded(np.ndarray):  # `comp`, whose `@` records the count in force
        def __matmul__(self, other):
            grams.append(blas_threads())
            return np.asarray(self) @ np.asarray(other)

    hstack = np.hstack
    monkeypatch.setattr(np, "hstack", lambda arrays: hstack(arrays).view(Recorded))
    comp = entangle._complement_legs(iso, DEFAULT_DIM_CAP)
    assert comp.shape == (64, 9) and grams == [1]
    assert blas_threads() == caller


@needs_blas_threads
def test_rd_certificate_samples_on_one_blas_thread(monkeypatch):
    caller = blas_threads()
    stacks = []
    record_blas_threads(monkeypatch, np.linalg, "eigvalsh", stacks, lambda a, *rest: a.ndim == 3)
    rd_certificate(quantum_parameter(3), AdmissibleTriple(2, 2, 2), samples=5)
    assert stacks == [1]
    assert blas_threads() == caller


@needs_blas_threads
def test_optimizer_restores_blas_threads_after_invariant_violation(monkeypatch):
    p, t = _break_complement(monkeypatch, lambda cols, top: top[:, : cols.shape[1]].copy())
    caller = blas_threads()
    sweeps = []
    record_blas_threads(monkeypatch, entangle, "_complement_sweep", sweeps)
    with pytest.raises(InvariantViolation, match="direct value"):
        max_schmidt_optimizer(p, t, restarts=4, seed=0)
    assert sweeps and set(sweeps) == {1}
    assert blas_threads() == caller


@needs_blas_threads
def test_one_blas_thread_scopes_nest_and_overlap_across_threads():
    caller = blas_threads()
    with jones_wenzl._blas_threads():
        with jones_wenzl._blas_threads():
            assert blas_threads() == 1
        assert blas_threads() == 1
    assert blas_threads() == caller
    # two threads open scopes in one order and close them in the same order
    a_open, b_open, a_closed = (threading.Event() for _ in range(3))
    seen = []

    def first():
        with jones_wenzl._blas_threads():
            a_open.set()
            b_open.wait(10)
        a_closed.set()

    def second():
        a_open.wait(10)
        with jones_wenzl._blas_threads():
            b_open.set()
            a_closed.wait(10)
            seen.append(blas_threads())

    workers = [threading.Thread(target=first), threading.Thread(target=second)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(30)
    assert seen == [1]
    assert blas_threads() == caller


def test_one_blas_thread_without_the_symbol_changes_nothing(monkeypatch):
    p, t = quantum_parameter(3), AdmissibleTriple(2, 2, 2)
    want = max_schmidt_optimizer(p, t, restarts=3, seed=0)
    monkeypatch.setattr(jones_wenzl, "_openblas", lambda name: None)
    caller = blas_threads()
    with jones_wenzl._blas_threads():
        assert blas_threads() == caller
    got = max_schmidt_optimizer(p, t, restarts=3, seed=0)
    assert got.restart_sweeps == want.restart_sweeps
    assert got.value == pytest.approx(want.value, rel=1e-14, abs=0.0)


# ---------------------------------------------------------------------------
# saturation witness
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "n,k,l,m,want",
    [(3, 1, 1, 2, 1), (4, 2, 2, 2, 2), (5, 0, 1, 1, 3), (3, 2, 2, 2, 1)],
)
def test_witness_family_sizes(n, k, l, m, want):
    p, t = quantum_parameter(n), AdmissibleTriple(k, l, m)
    etas, zetas = witness_family(isometry(p, t))
    assert witness_family_size(p, t) == want
    assert len(etas) == want
    assert len(zetas) == want


def test_witness_families_orthonormal():
    p = quantum_parameter(4)
    for fam in witness_family(isometry(p, AdmissibleTriple(2, 2, 2))):
        np.testing.assert_allclose(fam @ fam.T, np.eye(len(fam)), atol=1e-12)


def test_witness_rejects_highest_weight_and_rank_two():
    with pytest.raises(ValueError, match="r >= 1"):
        witness_family(isometry(quantum_parameter(3), AdmissibleTriple(2, 1, 1)))
    with pytest.raises(ValueError, match="rank >= 3"):
        witness_family(isometry(quantum_parameter(2), AdmissibleTriple(0, 1, 1)))


def test_witness_xi_is_alternating_word():
    # alpha^* alpha = 1, so legs^T pulls the witness image back to xi
    p = quantum_parameter(3)
    iso = isometry(p, AdmissibleTriple(2, 2, 2))
    xi = iso.legs.T @ witness_image(iso).ravel()
    want = alternating_vector(3, 2, 1, 2)
    np.testing.assert_allclose(xi, onb_of_irrep(p, 2).columns.T @ want, rtol=0, atol=1e-15)


def _family_words(n, t):
    """(eta_i, zeta_i) words from the definition: eta_i is the first l-r
    letters of 1212... (length k) then i, zeta_i is i reversed then the
    last m-r letters, for i(1) >= 3 with no adjacent repeat in i."""
    word = [1 if s % 2 == 0 else 2 for s in range(t.k)]
    return [
        (word[: t.l - t.r] + list(i), list(i[::-1]) + word[t.l - t.r :])
        for i in itertools.product(range(1, n + 1), repeat=t.r)
        if i[0] >= 3 and all(a != b for a, b in zip(i, i[1:]))
    ]


WITNESS_ORACLE = [(p, t) for p, t in SWEEP_FULL if t.r >= 1 and p.n ** (t.l + t.m) <= 1024]


@pytest.mark.parametrize(
    "p,t", WITNESS_ORACLE, ids=[f"{p.n}-{t.k}-{t.l}-{t.m}" for p, t in WITNESS_ORACLE]
)
def test_witness_legs_match_ambient_oracle(p, t):
    iso = isometry(p, t)
    image = witness_image(iso)
    # the leg spectrum is the spectrum of the ambient lift across the l|m cut
    lifted = iso.lift(image.ravel()).reshape(p.n**t.l, p.n**t.m)
    ambient = np.linalg.svd(lifted, compute_uv=False) ** 2
    leg = schmidt_spectrum(image).coefficients
    assert np.abs(ambient[: leg.size] - leg).max() <= 1e-12
    assert np.abs(ambient[leg.size :]).max(initial=0.0) <= 1e-12
    # xi and every family row are B^T e_w of the dense word vector, and
    # every family word is fixed by its dense Jones-Wenzl projection
    etas, zetas = witness_family(iso)
    xi_word = alternating_vector(p.n, t.k, 1, 2)
    xi = iso.legs.T @ image.ravel()  # alpha^* alpha = 1
    np.testing.assert_allclose(xi, iso.basis.columns.T @ xi_word, rtol=0, atol=1e-15)
    words = _family_words(p.n, t)
    assert len(words) == witness_family_size(p, t) == len(etas)
    jw_l, jw_m = jw_projection(p, t.l), jw_projection(p, t.m)
    for row, (eta_word, zeta_word) in enumerate(words):
        eta = basis_vector(p.n, eta_word)
        zeta = basis_vector(p.n, zeta_word)
        np.testing.assert_allclose(
            etas[row], iso.basis_l.columns.T @ eta, rtol=0, atol=1e-15
        )
        np.testing.assert_allclose(
            zetas[row], iso.basis_m.columns.T @ zeta, rtol=0, atol=1e-15
        )
        assert jw_fixes(jw_l, eta) <= 1e-9
        assert jw_fixes(jw_m, zeta) <= 1e-9


def test_witness_rejects_word_with_repeated_letter(monkeypatch):
    # swap the last index for one with an adjacent repeat: the family keeps
    # its size, but eta = (1, 3, 3) and zeta = (3, 3, 2) are not fixed by
    # p_3, so their rows of B_3 fall short of unit norm
    p, t = quantum_parameter(3), AdmissibleTriple(2, 3, 3)
    real = entangle._witness_indices(3, 2)
    assert real == [(3, 1), (3, 2)]
    monkeypatch.setattr(entangle, "_witness_indices", lambda n, r: [(3, 1), (3, 3)])
    with pytest.raises(InvariantViolation, match="not fixed"):
        witness_family(isometry(p, t))


def test_witness_rejects_a_family_of_the_wrong_size(monkeypatch):
    # dropping (3, 2) leaves one index where (N-2)(N-1)^(r-1) counts two
    p, t = quantum_parameter(3), AdmissibleTriple(2, 3, 3)
    real = entangle._witness_indices
    monkeypatch.setattr(entangle, "_witness_indices", lambda n, r: real(n, r)[:-1])
    with pytest.raises(InvariantViolation, match="witness family size 1 != "):
        witness_family(isometry(p, t))


def _nan_row(iso, field, row):
    """iso as a built record with a NaN in one row of one of its bases: the
    isometry's theta check would meet a NaN put into the cached basis first."""
    basis = getattr(iso, field)
    cols = basis.columns.copy()
    cols[row, 0] = np.nan
    return dataclasses.replace(iso, **{field: dataclasses.replace(basis, columns=cols)})


def test_witness_rejects_nan_basis_row():
    # row 2 of B_2 is the family word eta = (1, 3) at (2, 2, 2); a NaN norm
    # would pass `err > tol`
    iso = isometry(quantum_parameter(3), AdmissibleTriple(2, 2, 2))
    with pytest.raises(InvariantViolation, match="not fixed"):
        witness_family(_nan_row(iso, "basis_l", 2))


def test_witness_image_rejects_nan_xi_row():
    # row 1 of B_2 is xi's word (1, 2)
    iso = isometry(quantum_parameter(3), AdmissibleTriple(2, 2, 2))
    with pytest.raises(InvariantViolation, match="not fixed"):
        witness_image(_nan_row(iso, "basis", 1))


@pytest.mark.parametrize(
    "n,k,l,m,lam,size",
    [
        (3, 1, 1, 2, 3.0 / 8.0, 1),
        (4, 2, 2, 2, 2.0 / 7.0, 2),
        (3, 0, 1, 1, 1.0 / 3.0, 1),
    ],
)
def test_verify_saturation_plateau(n, k, l, m, lam, size):
    p = quantum_parameter(n)
    rep = verify_saturation(p, AdmissibleTriple(k, l, m))
    assert rep.family_size == size
    assert rep.lambda_expected == pytest.approx(lam, rel=1e-9)
    assert rep.plateau_ok
    assert rep.max_rel_err <= 1e-8
    np.testing.assert_allclose(rep.top_values, lam, rtol=1e-8)


def test_verify_saturation_bell_has_degenerate_plateau():
    # all [2]_q Schmidt values tie at 1/N; the report notes the larger plateau
    p = quantum_parameter(3)
    rep = verify_saturation(p, AdmissibleTriple(0, 1, 1))
    assert rep.observed_plateau_size == 3
    assert not rep.boundary_separated
    assert rep.mass == pytest.approx(1.0 / 3.0, rel=1e-10)


def test_verify_saturation_mass_monotone_in_rank():
    masses = []
    for n in range(3, 8):
        p = quantum_parameter(n)
        masses.append(verify_saturation(p, AdmissibleTriple(0, 1, 1)).mass)
        assert masses[-1] == pytest.approx((n - 2) / n, rel=1e-9)
    assert all(a < b for a, b in zip(masses, masses[1:]))


# ---------------------------------------------------------------------------
# highest-weight product vector
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,l,m", [(3, 1, 1), (3, 2, 1), (3, 1, 2), (3, 3, 2), (2, 2, 2)])
def test_highest_weight_witness_is_the_product_of_its_split_words(n, l, m):
    # at r = 0, alpha is the inclusion of H_{l+m}, so the alternating word
    # 1212... of length l+m splits into its first l and last m letters
    p = quantum_parameter(n)
    iso = isometry(p, AdmissibleTriple(l + m, l, m))
    image = witness_image(iso)
    v = image.ravel()
    word = [1 + s % 2 for s in range(l + m)]
    product = np.kron(basis_vector(n, word[:l]), basis_vector(n, word[l:]))
    np.testing.assert_allclose(iso.lift(v), product, atol=1e-12)
    assert schmidt_spectrum(image).numerical_rank == 1
    assert np.linalg.norm(iso.legs @ (iso.legs.T @ v) - v) < 1e-9
