"""Tests for Schmidt spectra, rapid-decay certificates, the optimizer,
and the saturation/separability witness families."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from dense_vertex import alternating_vector, basis_vector, jw_fixes
from test_acceptance import SWEEP_FULL, SWEEP_SMALL

from wenzl_lab import entangle, vertex
from wenzl_lab.entangle import (
    SIDE_AGREEMENT_TOL,
    entropy_dim_tradeoff,
    higher_rank_value,
    max_schmidt_optimizer,
    rd_certificate,
    saturation_witness,
    schmidt_spectrum,
    separability_witness_highest_weight,
    verify_saturation,
    witness_image,
)
from wenzl_lab.errors import DimensionCapError, InvariantViolation
from wenzl_lab.jones_wenzl import jw_projection, onb_of_irrep
from wenzl_lab.qnum import AdmissibleTriple, admissible_triples, q_int, quantum_parameter
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
    with pytest.raises(ValueError, match="samples must be at least 1"):
        rd_certificate(quantum_parameter(3), AdmissibleTriple(1, 1, 2), samples=samples)


@pytest.mark.parametrize(
    "kwargs", [{"samples": 2.5}, {"samples": True}, {"seed": 1.5}, {"seed": -1}]
)
def test_rd_certificate_rejects_non_integer_counts(kwargs):
    with pytest.raises(ValueError, match="must be"):
        rd_certificate(quantum_parameter(3), AdmissibleTriple(1, 1, 2), **kwargs)


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


def _serial_optimizer(p, t, restarts, seed, tol=1e-12, max_iters=1000):
    """Per-restart (value, converged, sweeps) and the winning index."""
    reduced = isometry(p, t).reduced
    rows = [
        _serial_restart(
            reduced, p.n**t.l, p.n**t.m, np.random.default_rng(seq), tol, max_iters
        )
        for seq in np.random.SeedSequence(seed).spawn(restarts)
    ]
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
    with pytest.raises(InvariantViolation, match=message):
        max_schmidt_optimizer(p, t, restarts=4, seed=0)


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


def _normalized(rows):
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


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
    eta, zeta, xi, cz = entangle._alpha_sweep(ops, xi, cz, _normalized)
    for got, want in ((eta, eta_want), (zeta, zeta_want), (xi, xi_want)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    np.testing.assert_allclose(cz.reshape(3, -1), zeta @ gather.T, rtol=0, atol=1e-12)


def _crafted_degenerate_run(monkeypatch):
    """The optimizer at N=3 (0,1,1) with restart 0's first (eta, zeta) set to (e_0, e_1).

    B_1 is the identity there, so alpha^*(e_0 (x) e_1) = s <cup|e_0 (x) e_1>
    is exactly 0 and restart 0 must redraw xi.  Returns the result and
    the norm of each sweep's xi in row 0.
    """
    real = entangle._alpha_sweep
    crafted = iter(np.eye(3)[:2])
    xi_norms = []

    def sweep(ops, xi, cz, unit):
        def crafted_unit(rows):
            rows = unit(rows)
            vec = next(crafted, None)
            if vec is not None:
                rows[0] = vec
            return rows

        eta, zeta, xi, cz = real(ops, xi, cz, crafted_unit)
        xi_norms.append(float(np.linalg.norm(xi[0])))
        return eta, zeta, xi, cz

    with monkeypatch.context() as patch:
        patch.setattr(entangle, "_alpha_sweep", sweep)
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


@pytest.mark.parametrize(
    "kwargs",
    [
        {"tol": -1.0},
        {"tol": 0.0},
        {"tol": float("nan")},
        {"tol": float("inf")},
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
# saturation witness
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "n,k,l,m,want",
    [(3, 1, 1, 2, 1), (4, 2, 2, 2, 2), (5, 0, 1, 1, 3), (3, 2, 2, 2, 1)],
)
def test_witness_family_sizes(n, k, l, m, want):
    p = quantum_parameter(n)
    wit = saturation_witness(p, AdmissibleTriple(k, l, m))
    assert wit.family_size == want
    assert len(wit.eta_family) == want
    assert len(wit.zeta_family) == want


def test_witness_families_orthonormal():
    p = quantum_parameter(4)
    wit = saturation_witness(p, AdmissibleTriple(2, 2, 2))
    for fam in (wit.eta_family, wit.zeta_family):
        np.testing.assert_allclose(fam @ fam.T, np.eye(len(fam)), atol=1e-12)


def test_witness_rejects_highest_weight_and_rank_two():
    with pytest.raises(ValueError):
        saturation_witness(quantum_parameter(3), AdmissibleTriple(2, 1, 1))
    with pytest.raises(ValueError):
        saturation_witness(quantum_parameter(2), AdmissibleTriple(0, 1, 1))


def test_witness_xi_is_alternating_word():
    p = quantum_parameter(3)
    wit = saturation_witness(p, AdmissibleTriple(2, 2, 2))
    want = alternating_vector(3, 2, 1, 2)
    np.testing.assert_allclose(wit.xi, onb_of_irrep(p, 2).columns.T @ want, rtol=0, atol=1e-15)


def test_witness_honours_dimension_cap():
    # the bases of H_k, H_l and H_m are capped, and nothing else: at N = 3,
    # (4, 3, 3) needs N^k = 81 but never the N^(l+m) = 729 of the isometry
    p, t = quantum_parameter(3), AdmissibleTriple(4, 3, 3)
    with pytest.raises(DimensionCapError):
        saturation_witness(p, t, max_dim=80)
    assert saturation_witness(p, t, max_dim=81).family_size == 1
    p4, square = quantum_parameter(4), AdmissibleTriple(2, 2, 2)
    with pytest.raises(DimensionCapError):
        saturation_witness(p4, square, max_dim=15)
    assert saturation_witness(p4, square, max_dim=16).family_size == 2


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
    wit = saturation_witness(p, t)
    xi_word = alternating_vector(p.n, t.k, 1, 2)
    np.testing.assert_allclose(wit.xi, iso.basis.columns.T @ xi_word, rtol=0, atol=1e-15)
    words = _family_words(p.n, t)
    assert len(words) == wit.family_size
    jw_l, jw_m = jw_projection(p, t.l), jw_projection(p, t.m)
    for row, (eta_word, zeta_word) in enumerate(words):
        eta = basis_vector(p.n, eta_word)
        zeta = basis_vector(p.n, zeta_word)
        np.testing.assert_allclose(
            wit.eta_family[row], iso.basis_l.columns.T @ eta, rtol=0, atol=1e-15
        )
        np.testing.assert_allclose(
            wit.zeta_family[row], iso.basis_m.columns.T @ zeta, rtol=0, atol=1e-15
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
        saturation_witness(p, t)


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
# higher-rank family value
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "n,k,l,m,want",
    [
        (3, 1, 1, 2, math.sqrt(3.0 / 8.0)),
        (4, 2, 2, 2, 2.0 * math.sqrt(2.0 / 7.0)),
        (3, 0, 1, 1, math.sqrt(1.0 / 3.0)),
    ],
)
def test_higher_rank_exact_value(n, k, l, m, want):
    p = quantum_parameter(n)
    rep = higher_rank_value(p, AdmissibleTriple(k, l, m))
    assert rep.lhs == pytest.approx(want, rel=1e-9)
    assert rep.rhs_exact == pytest.approx(want, rel=1e-9)
    assert rep.exact_ok


def test_higher_rank_floor_flag_behaviour():
    # the printed floor |A| q^{r/2} is not attainable at Bell-type
    # triples (it exceeds the exact value); the flag records this
    p3 = quantum_parameter(3)
    bell = higher_rank_value(p3, AdmissibleTriple(0, 1, 1))
    assert not bell.floor_ok
    assert bell.lhs >= bell.rhs_floor * math.sqrt(1 - p3.q**2) - 1e-12
    wide = higher_rank_value(p3, AdmissibleTriple(2, 2, 2))
    assert wide.floor_ok


# ---------------------------------------------------------------------------
# separability witness
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "l,m,i,j,word_l,word_r",
    [
        (1, 1, 1, 2, (1,), (2,)),
        (2, 1, 1, 2, (1, 2), (1,)),
        (1, 2, 1, 2, (1,), (2, 1)),
        (3, 2, 2, 3, (2, 3, 2), (3, 2)),
    ],
)
def test_separability_witness_words(l, m, i, j, word_l, word_r):
    p = quantum_parameter(3)
    rep = separability_witness_highest_weight(p, l, m, i, j)
    left, right = basis_vector(3, word_l), basis_vector(3, word_r)
    # the leg matrix lifts to the ambient product of the two words
    bl, bm = onb_of_irrep(p, l).columns, onb_of_irrep(p, m).columns
    np.testing.assert_allclose(bl @ rep.vector @ bm.T, np.outer(left, right), atol=1e-12)
    assert rep.schmidt_rank == 1
    assert rep.residual < 1e-9


def test_separability_witness_rejects_equal_letters():
    with pytest.raises(ValueError):
        separability_witness_highest_weight(quantum_parameter(3), 1, 1, 2, 2)


@pytest.mark.parametrize("i,j", [(1, 4), (0, 2), (1.5, 2), (2, 1.0), (True, 2)])
def test_separability_witness_rejects_letters_out_of_range(i, j):
    with pytest.raises(ValueError, match="out of range"):
        separability_witness_highest_weight(quantum_parameter(3), 1, 1, i, j)


# ---------------------------------------------------------------------------
# entropy / dimension trade-off
# ---------------------------------------------------------------------------

def test_tradeoff_bell_limit():
    p = quantum_parameter(3)
    rep = entropy_dim_tradeoff(p, AdmissibleTriple(0, 2, 2), mu=1e-9)
    assert rep.entropy_lower == pytest.approx(math.log(8.0), rel=1e-9)
    assert rep.value == pytest.approx(math.log(8.0), rel=1e-6)


def test_tradeoff_highest_weight_negative():
    p = quantum_parameter(3)
    rep = entropy_dim_tradeoff(p, AdmissibleTriple(2, 1, 1), mu=0.3)
    assert rep.entropy_lower == pytest.approx(0.0, abs=1e-12)
    assert rep.dim_term < 0
    assert rep.value == pytest.approx(0.3 * rep.dim_term, rel=1e-12)


def test_tradeoff_frozen_value():
    # (2, 2, 2) at N = 3: entropy floor log(theta/[3]) = log(7/3), and the
    # relative-dimension term uses the true subspace dimensions, i.e.
    # log [3] - 2 log [3] = -log 8 (H_2 x H_2 has dimension 64, not 9).
    p = quantum_parameter(3)
    rep = entropy_dim_tradeoff(p, AdmissibleTriple(2, 2, 2), mu=0.4)
    want = math.log(7.0 / 3.0) + 0.4 * (math.log(8.0) - 2.0 * math.log(8.0))
    assert rep.entropy_lower == pytest.approx(math.log(7.0 / 3.0), rel=1e-12)
    assert rep.dim_term == pytest.approx(-math.log(8.0), rel=1e-12)
    assert rep.value == pytest.approx(want, rel=1e-10)
    assert rep.value == pytest.approx(0.0155212437, abs=1e-9)


def test_tradeoff_positive_below_half_on_spots():
    # On the (0, l, l) spot the value is (1 - 2 mu) log [l+1] with the true
    # dimension counting, hence strictly positive exactly for mu < 1/2.
    for n in (3, 4, 5):
        p = quantum_parameter(n)
        for level in (1, 2, 3):
            t = AdmissibleTriple(0, level, level)
            below = entropy_dim_tradeoff(p, t, mu=0.49)
            above = entropy_dim_tradeoff(p, t, mu=0.51)
            expect = (1.0 - 2.0 * 0.49) * math.log(q_int(p, level + 1))
            assert below.value == pytest.approx(expect, rel=1e-10)
            assert below.value > 0.0
            assert above.value < 0.0


def test_tradeoff_rejects_bad_mu():
    p = quantum_parameter(3)
    for mu in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            entropy_dim_tradeoff(p, AdmissibleTriple(0, 1, 1), mu)
