"""Tests for the complementary channels, their norms, MOE brackets,
and the Choi-matrix d-positivity witness machinery."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from conftest import blas_threads, needs_blas_threads, put_nan_legs, record_blas_threads
from dense_vertex import choi_matrix
from hypothesis import given, settings
from hypothesis import strategies as st
from test_acceptance import SWEEP_SMALL

from wenzl_lab import channel as channel_module
from wenzl_lab import entangle, vertex
from wenzl_lab.channel import (
    TRACE_FIRST,
    TRACE_LAST,
    channel_apply,
    channel_norm_report,
    choi_witness_value,
    d_positivity_threshold,
    moe_bracket,
)
from wenzl_lab.entangle import max_schmidt_optimizer, rd_certificate
from wenzl_lab.errors import DimensionCapError, InvariantViolation
from wenzl_lab.qnum import AdmissibleTriple, quantum_parameter, rd_constant
from wenzl_lab.vertex import EquivariantIsometry, isometry

P3 = quantum_parameter(3)
P4 = quantum_parameter(4)

BELL = AdmissibleTriple(0, 1, 1)
MIDDLE = AdmissibleTriple(1, 1, 2)
HIGHEST = AdmissibleTriple(2, 1, 1)
SQUARE = AdmissibleTriple(2, 2, 2)


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    weights = rng.dirichlet(np.ones(dim))
    basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return (basis * weights) @ basis.T


def converged_norm(p, t) -> float:
    rep = channel_norm_report(p, t)
    assert rep.converged, t
    return rep.norm_1_to_inf


def von_neumann_entropy(rho: np.ndarray) -> float:
    """-sum lambda log lambda over the spectrum of a state, with 0 log 0 = 0."""
    w = np.linalg.eigvalsh(rho)
    w = w[w > 0.0]
    return float(-(w * np.log(w)).sum())


def random_pure(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    return np.outer(v, v)


# ---------------------------------------------------------------------------
# channel application
# ---------------------------------------------------------------------------

def test_bell_channel_outputs_maximally_mixed():
    out = channel_apply(P3, BELL, np.array([[1.0]]))
    np.testing.assert_allclose(out, np.eye(3) / 3.0, atol=1e-12)


def test_pure_output_spectrum_equals_schmidt_spectrum():
    iso = isometry(P3, MIDDLE)
    rng = np.random.default_rng(11)
    xi = rng.standard_normal(iso.basis.dim)
    xi /= np.linalg.norm(xi)
    out = channel_apply(P3, MIDDLE, np.outer(xi, xi))
    spectrum = np.linalg.eigvalsh(out)
    spectrum = np.sort(spectrum[spectrum > 1e-12])[::-1]

    mat = (iso.reduced @ xi).reshape(3, 9)
    lam = np.sort(np.linalg.svd(mat, compute_uv=False) ** 2)[::-1]
    lam = lam[: len(spectrum)]
    np.testing.assert_allclose(spectrum, lam, atol=1e-10)


def test_maximally_mixed_input_gives_trace_one_psd_output():
    for p, t in ((P3, MIDDLE), (P3, HIGHEST), (P4, SQUARE)):
        dim = isometry(p, t).basis.dim
        out = channel_apply(p, t, np.eye(dim) / dim)
        assert np.trace(out) == pytest.approx(1.0, abs=1e-9)
        assert np.linalg.eigvalsh(out)[0] >= -1e-9


def test_cptp_on_random_states():
    rng = np.random.default_rng(0)
    for p, t in ((P3, BELL), (P3, MIDDLE), (P3, SQUARE)):
        dim = isometry(p, t).basis.dim
        for direction in (TRACE_FIRST, TRACE_LAST):
            for _ in range(34):
                out = channel_apply(p, t, random_state(rng, dim), direction)
                assert abs(np.trace(out) - 1.0) <= 1e-9
                assert np.linalg.eigvalsh(out)[0] >= -1e-9


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_complementary_outputs_share_nonzero_spectrum(seed):
    rng = np.random.default_rng(seed)
    rho = random_pure(rng, 3)
    first = channel_apply(P3, MIDDLE, rho, TRACE_FIRST)
    last = channel_apply(P3, MIDDLE, rho, TRACE_LAST)
    s_first = np.linalg.eigvalsh(first)
    s_last = np.linalg.eigvalsh(last)
    s_first = np.sort(s_first[np.abs(s_first) > 1e-10])
    s_last = np.sort(s_last[np.abs(s_last) > 1e-10])
    assert len(s_first) == len(s_last)
    np.testing.assert_allclose(s_first, s_last, atol=1e-9)


@pytest.mark.parametrize("direction", [TRACE_FIRST, TRACE_LAST])
def test_output_is_in_kept_basis_coordinates(direction):
    # d_kept square, and B_kept out B_kept^T is the ambient partial trace
    iso = isometry(P3, MIDDLE)
    rho = random_state(np.random.default_rng(4), iso.basis.dim)
    out = channel_apply(P3, MIDDLE, rho, direction)
    kept = iso.basis_m if direction == TRACE_FIRST else iso.basis_l
    assert out.shape == (kept.dim, kept.dim)
    full = iso.reduced @ rho @ iso.reduced.T
    blocks = full.reshape(3, 9, 3, 9)
    want = (
        np.einsum("abad->bd", blocks) if direction == TRACE_FIRST
        else np.einsum("abcb->ac", blocks)
    )
    np.testing.assert_allclose(kept.columns @ out @ kept.columns.T, want, atol=1e-12)


def test_channel_rejects_bad_inputs():
    with pytest.raises(ValueError):
        channel_apply(P3, MIDDLE, np.eye(2) / 2.0)  # wrong dimension
    with pytest.raises(ValueError):
        channel_apply(P3, MIDDLE, np.diag([1.4, -0.4, 0.0]))  # negative eigenvalue
    with pytest.raises(ValueError):
        channel_apply(P3, MIDDLE, np.eye(3))  # trace 3
    skew = np.eye(3) / 3.0
    skew[0, 1] = 0.2
    with pytest.raises(ValueError):
        channel_apply(P3, MIDDLE, skew)  # not symmetric
    nan_state = np.eye(3) / 3.0
    nan_state[2, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        channel_apply(P3, MIDDLE, nan_state)


def test_channel_accepts_a_state_within_the_input_trace_tolerance():
    rho = np.eye(3) / 3.0 * (1.0 + 5e-9)
    out = channel_apply(P3, MIDDLE, rho)
    assert np.trace(out) == pytest.approx(np.trace(rho), rel=0, abs=1e-12)


def test_channel_output_trace_drift_is_an_invariant_violation(monkeypatch):
    iso = isometry(P3, MIDDLE)
    scaled = dataclasses.replace(iso, legs=iso.legs * (1.0 + 1e-6))
    monkeypatch.setitem(vertex._iso_cache, (3, 1, 1, 2), scaled)
    with pytest.raises(InvariantViolation, match="channel output trace"):
        channel_apply(P3, MIDDLE, np.eye(3) / 3.0)


def test_channel_output_trace_nan_is_an_invariant_violation(monkeypatch):
    p, t = put_nan_legs(monkeypatch)
    with pytest.raises(InvariantViolation, match="channel output trace"):
        channel_apply(p, t, np.eye(8) / 8.0)


@pytest.mark.parametrize("at", [(0, 0), (-1, -1)], ids=["first", "last"])
def test_moe_and_choi_refuse_nan_legs(monkeypatch, at):
    # before the checks, both raised ValueError, and choi blamed the scale
    p, t = put_nan_legs(monkeypatch, at)
    with pytest.raises(InvariantViolation, match="witness image"):
        moe_bracket(p, t)
    with pytest.raises(InvariantViolation, match="Choi form"):
        choi_witness_value(p, t, 1, 1.0)


def test_moe_floor_above_the_upper_end_is_an_invariant_violation(monkeypatch):
    # a floor of 50 nats sits far above any entropy alpha can output
    monkeypatch.setattr(channel_module, "lambda_log", lambda p, t: -50.0)
    with pytest.raises(InvariantViolation, match="MOE floor"):
        moe_bracket(P3, MIDDLE, samples=5, restarts=2)


def test_choi_negative_sample_at_or_below_the_threshold_is_an_invariant_violation(monkeypatch):
    # at 100x the true threshold the sampled form goes negative, which a
    # threshold of inf calls a contradiction of d-positivity
    scale = 100.0 * d_positivity_threshold(P3, BELL, 1)
    monkeypatch.setattr(channel_module, "d_positivity_threshold", lambda p, t, d: math.inf)
    with pytest.raises(InvariantViolation, match="d-positivity contradicted"):
        choi_witness_value(P3, BELL, 1, scale, samples=5)


def test_channel_rejects_bad_direction():
    with pytest.raises(ValueError, match="direction must be one of"):
        channel_apply(P3, BELL, np.array([[1.0]]), "trace-both")
    # refused before alpha is built: a good direction under this cap is a DimensionCapError
    with pytest.raises(ValueError, match="direction must be one of"):
        channel_apply(P3, MIDDLE, np.eye(3) / 3.0, "trace-both", max_dim=1)
    with pytest.raises(DimensionCapError):
        channel_apply(P3, MIDDLE, np.eye(3) / 3.0, TRACE_FIRST, max_dim=1)


# ---------------------------------------------------------------------------
# S1 -> Sinf norms
# ---------------------------------------------------------------------------

def test_norm_frozen_values():
    assert converged_norm(P3, BELL) == pytest.approx(1.0 / 3.0, rel=1e-6)
    assert converged_norm(P3, MIDDLE) == pytest.approx(3.0 / 8.0, rel=1e-6)
    assert converged_norm(P3, HIGHEST) == pytest.approx(1.0, rel=1e-6)


def test_norm_matches_closed_form_and_direction_free():
    # the optimizer's argmax is a norming input of both channels of the pair
    for p, t in ((P3, SQUARE), (P4, MIDDLE)):
        rep = channel_norm_report(p, t)
        assert rep.converged
        assert rep.norm_1_to_inf == pytest.approx(rep.closed_form, rel=1e-6)
        xi = max_schmidt_optimizer(p, t).xi
        for direction in (TRACE_FIRST, TRACE_LAST):
            top = np.linalg.eigvalsh(channel_apply(p, t, np.outer(xi, xi), direction))[-1]
            assert top == pytest.approx(rep.norm_1_to_inf, rel=1e-9)


def test_norm_report_brackets_bell():
    rep = channel_norm_report(P3, BELL)
    q = P3.q
    assert rep.converged
    assert rep.closed_form == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert rep.bracket_lower_printed == pytest.approx(q, rel=1e-12)
    assert rep.bracket_lower_sharp == pytest.approx(q * (1 - q * q), rel=1e-12)
    assert rep.bracket_upper == pytest.approx(rd_constant(P3) ** 2 * q, rel=1e-12)
    # 1/3 < q(3) = 0.3819..., so the printed lower endpoint is not met,
    # while the sharp endpoint q (1 - q^2) = 0.326... is.
    assert not rep.in_printed_bracket
    assert rep.in_sharp_bracket
    assert abs(rep.residual) <= 1e-6


def test_norm_report_brackets_highest_weight():
    rep = channel_norm_report(P3, HIGHEST)
    assert rep.closed_form == pytest.approx(1.0, rel=1e-12)
    assert rep.bracket_lower_printed == pytest.approx(1.0)
    assert rep.in_printed_bracket
    assert rep.in_sharp_bracket


@pytest.mark.parametrize(
    "report", [channel_norm_report, lambda p, t, tol: moe_bracket(p, t, samples=4, tol=tol)]
)
def test_tol_reaches_optimizer(monkeypatch, report):
    seen = []
    real = channel_module.max_schmidt_optimizer

    def recording(*args, **kwargs):
        seen.append(kwargs.get("tol"))
        return real(*args, **kwargs)

    monkeypatch.setattr(channel_module, "max_schmidt_optimizer", recording)
    report(P3, MIDDLE, tol=1e-6)
    assert seen == [1e-6]


# ---------------------------------------------------------------------------
# MOE brackets
# ---------------------------------------------------------------------------

def test_moe_bell_bracket_is_tight():
    b = moe_bracket(P3, BELL, samples=40)
    assert b.lower == pytest.approx(math.log(3.0), rel=1e-12)
    assert b.upper == pytest.approx(math.log(3.0), rel=1e-12)
    assert abs(b.upper - b.lower) < 1e-8
    assert b.coarse_lower <= b.lower + 1e-8


def test_moe_square_n4_frozen_lower():
    b = moe_bracket(P4, SQUARE, samples=40)
    assert b.lower == pytest.approx(math.log(3.5), rel=1e-12)
    assert b.upper >= b.lower - 1e-8
    assert SQUARE.r == 1
    assert b.coarse_lower == pytest.approx(
        -math.log(P4.q) - 2.0 * math.log(rd_constant(P4)), rel=1e-12
    )


def test_moe_highest_weight_is_zero_via_separable_witness():
    b = moe_bracket(P3, HIGHEST, samples=40)
    assert b.lower == pytest.approx(0.0, abs=1e-12)
    assert b.upper == pytest.approx(0.0, abs=1e-12)
    assert b.witness_entropy == pytest.approx(0.0, abs=1e-12)
    assert b.argmin == "saturation-witness"


def test_moe_bracket_ordering_small_sweep():
    for p in (P3, P4):
        for l in range(3):
            for m in range(l, 3):
                for t in (
                    AdmissibleTriple(k, l, m)
                    for k in range(m - l, l + m + 1, 2)
                ):
                    b = moe_bracket(p, t, samples=25, restarts=6)
                    assert b.lower <= b.upper + 1e-8
                    assert b.coarse_lower <= b.lower + 1e-8


@pytest.mark.parametrize("samples", [0, -1])
def test_moe_rejects_too_few_samples(samples):
    with pytest.raises(ValueError, match="samples must be a positive integer"):
        moe_bracket(P3, MIDDLE, samples=samples)


BAD_COUNTS = [
    (call, kwargs)
    for call in ("moe", "choi")
    for kwargs in ({"samples": 2.5}, {"samples": True}, {"seed": 1.5}, {"seed": -1})
] + [("threshold", {"d": True}), ("threshold", {"d": 2.0})]


@pytest.mark.parametrize(
    "call, kwargs",
    BAD_COUNTS,
    ids=[f"{call}-{key}={value}" for call, kwargs in BAD_COUNTS for key, value in kwargs.items()],
)
def test_channel_rejects_non_integer_counts(call, kwargs):
    calls = {
        "moe": lambda **kw: moe_bracket(P3, MIDDLE, **kw),
        "choi": lambda **kw: choi_witness_value(P3, BELL, 1, 1.0, **kw),
        "threshold": lambda **kw: d_positivity_threshold(P3, BELL, **kw),
    }
    with pytest.raises(ValueError, match="must be"):
        calls[call](**kwargs)


@pytest.mark.parametrize("tol", [True, "x", 0.0])
def test_moe_rejects_bad_tol(tol):
    with pytest.raises(ValueError, match="tol must be a positive finite real"):
        moe_bracket(P3, MIDDLE, samples=5, tol=tol)


@needs_blas_threads
def test_moe_sampling_on_one_blas_thread(monkeypatch):
    caller = blas_threads()
    sweeps, images, stacks = [], [], []
    record_blas_threads(monkeypatch, entangle, "_alpha_step", sweeps)
    record_blas_threads(
        monkeypatch, EquivariantIsometry, "images", images, lambda iso, x: x.ndim == 2
    )
    record_blas_threads(monkeypatch, np.linalg, "eigvalsh", stacks, lambda a, *rest: a.ndim == 3)
    moe_bracket(P3, SQUARE, samples=5, restarts=3)
    assert sweeps and set(sweeps) == {1}
    assert images == [1] and stacks == [1]
    assert blas_threads() == caller


def _entropy_by_svd(stack: np.ndarray) -> list[float]:
    """Entropy of each matrix's normalized squared singular values, 0 log 0 = 0."""
    out = []
    for sigma in np.linalg.svd(stack, compute_uv=False):
        lam = sigma * sigma
        lam = lam[lam > 0.0] / lam.sum()
        out.append(float(-(lam * np.log(lam)).sum()))
    return out


@pytest.mark.parametrize(
    "p,t", SWEEP_SMALL, ids=[f"N{p.n}-{t.k}{t.l}{t.m}" for p, t in SWEEP_SMALL]
)
def test_gram_spectra_match_svd(p, t):
    # rd_certificate and moe_bracket read spectra off eigvalsh of Grams;
    # rebuild their images here and take the SVD instead
    iso = isometry(p, t)
    shape = (-1, iso.basis_l.dim, iso.basis_m.dim)
    x = np.random.default_rng(np.random.SeedSequence(0)).standard_normal((iso.basis.dim, 200))
    x /= np.linalg.norm(x, axis=0)
    stack = (iso.legs @ x).T.reshape(shape)
    sigma = np.linalg.svd(stack, compute_uv=False)
    width = sigma.shape[1]
    np.testing.assert_allclose(
        entangle._image_spectra(iso, x)[:, ::-1][:, :width], sigma * sigma, rtol=0, atol=1e-14
    )
    assert abs(rd_certificate(p, t).max_observed - float((sigma[:, 0] ** 2).max())) <= 1e-14

    b = moe_bracket(p, t, samples=200, restarts=2, seed=0)
    xi = max_schmidt_optimizer(p, t, restarts=2, seed=0).xi
    draws = np.random.default_rng(0).standard_normal((200, iso.basis.dim))
    cols = np.column_stack([xi, draws.T])
    cols /= np.linalg.norm(cols, axis=0)
    entropies = _entropy_by_svd((iso.legs @ cols).T.reshape(shape))
    assert b.optimizer_entropy == pytest.approx(entropies[0], rel=0, abs=1e-12)
    assert b.sampled_entropy == pytest.approx(min(entropies[1:]), rel=0, abs=1e-12)


def test_moe_deterministic():
    a = moe_bracket(P3, MIDDLE, samples=30, seed=42)
    b = moe_bracket(P3, MIDDLE, samples=30, seed=42)
    assert a == b


def test_entropy_never_below_negative_log_norm():
    floor = -math.log(converged_norm(P3, MIDDLE))
    rng = np.random.default_rng(3)
    for _ in range(25):
        rho = random_pure(rng, 3)
        assert von_neumann_entropy(channel_apply(P3, MIDDLE, rho)) >= floor - 1e-8
    for _ in range(10):
        rho = random_state(rng, 3)
        assert von_neumann_entropy(channel_apply(P3, MIDDLE, rho)) >= floor - 1e-8


# ---------------------------------------------------------------------------
# Choi matrices and d-positivity
# ---------------------------------------------------------------------------

def test_choi_scale_zero_is_product_projector():
    C = choi_matrix(P3, BELL, 0.0)
    np.testing.assert_allclose(C, np.eye(9), atol=1e-12)
    C2 = choi_matrix(P3, MIDDLE, 0.0)
    w = np.linalg.eigvalsh(C2)
    assert np.all((np.abs(w) < 1e-9) | (np.abs(w - 1.0) < 1e-9))
    assert np.sum(w > 0.5) == 3 * 8  # dim H_1 * dim H_2


def test_choi_scale_one_is_psd_with_01_spectrum():
    for p, t in ((P3, BELL), (P3, MIDDLE), (P4, SQUARE)):
        w = np.linalg.eigvalsh(choi_matrix(p, t, 1.0))
        assert w[0] >= -1e-9
        assert np.all((w < 1e-9) | (np.abs(w - 1.0) < 1e-9))


def test_choi_scale_two_bell_smallest_eigenvalue():
    w = np.linalg.eigvalsh(choi_matrix(P3, BELL, 2.0))
    assert w[0] == pytest.approx(-1.0, abs=1e-10)


def test_choi_matrix_symmetric():
    C = choi_matrix(P4, SQUARE, 1.3)
    np.testing.assert_allclose(C, C.T, atol=1e-12)


def test_threshold_frozen_values():
    assert d_positivity_threshold(P3, BELL, 1) == pytest.approx(3.0, rel=1e-12)
    assert d_positivity_threshold(P3, BELL, 2) == pytest.approx(1.5, rel=1e-12)
    assert d_positivity_threshold(P4, SQUARE, 2) == pytest.approx(1.75, rel=1e-12)


def test_threshold_rejects_bad_d():
    for bad in (0, -1, 1.5):
        with pytest.raises(ValueError):
            d_positivity_threshold(P3, BELL, bad)


def test_witness_zero_at_threshold():
    cases = [(P3, BELL, 1), (P3, BELL, 2), (P3, MIDDLE, 1), (P4, SQUARE, 1), (P4, SQUARE, 2)]
    for p, t, d in cases:
        thr = d_positivity_threshold(p, t, d)
        rep = choi_witness_value(p, t, d, thr, samples=10)
        assert abs(rep.witness_value) < 1e-9
        assert rep.threshold == pytest.approx(thr, rel=1e-12)


def test_witness_negative_above_threshold():
    for p, t, d in ((P3, BELL, 1), (P3, BELL, 2), (P4, SQUARE, 2)):
        thr = d_positivity_threshold(p, t, d)
        rep = choi_witness_value(p, t, d, thr * 1.01, samples=5)
        assert rep.witness_value < 0.0


def test_witness_formula_below_threshold():
    rep = choi_witness_value(P3, MIDDLE, 1, 1.0, samples=10)
    lam = 3.0 / 8.0
    assert rep.witness_value == pytest.approx(1.0 - lam, rel=1e-8)
    assert rep.predicted_value == pytest.approx(1.0 - lam, rel=1e-12)
    assert rep.witness_value >= 0.0


def test_witness_affine_in_scale_with_root_at_threshold():
    p, t, d = P4, SQUARE, 2
    scales = (0.5, 1.0, 1.75, 2.0)
    values = [
        choi_witness_value(p, t, d, s, samples=1).witness_value for s in scales
    ]
    slope = (values[1] - values[0]) / (scales[1] - scales[0])
    for s, v in zip(scales, values):
        assert v == pytest.approx(values[0] + slope * (s - scales[0]), abs=1e-9)
    root = scales[0] - values[0] / slope
    assert root == pytest.approx(d_positivity_threshold(p, t, d), abs=1e-9)


def test_witness_prediction_exact_on_family_and_bell_plateau():
    rep = choi_witness_value(P4, SQUARE, 2, 1.2, samples=1)
    assert rep.family_size == 2
    assert rep.witness_value == pytest.approx(rep.predicted_value, rel=1e-8)
    # Bell d = 2 needs a plateau pair beyond the size-1 index family; with a
    # one-dimensional embedded space the form value is still exact.
    rep2 = choi_witness_value(P3, BELL, 2, 1.1, samples=1)
    assert rep2.family_size == 1
    assert rep2.witness_rank == 2
    assert rep2.witness_value == pytest.approx(rep2.predicted_value, rel=1e-8)


def test_witness_rejects_unusable_parameters():
    with pytest.raises(ValueError, match="positive integer"):
        choi_witness_value(P3, BELL, 0, 1.0)
    with pytest.raises(ValueError, match="r >= 1"):
        choi_witness_value(P3, HIGHEST, 1, 1.0)
    with pytest.raises(ValueError, match="index family size"):
        choi_witness_value(P3, BELL, 4, 1.0)
    for samples in (0, -1):
        with pytest.raises(ValueError, match="samples must be a positive integer"):
            choi_witness_value(P3, BELL, 1, 1.0, samples=samples)
    for scale in (math.nan, math.inf, -math.inf, "x", True):
        with pytest.raises(ValueError, match="scale must be a finite number"):
            choi_witness_value(P3, BELL, 1, scale, samples=3)
    # finite, so they pass the scale rule, but d (1 - scale d [k+1]/theta) is not
    for scale in (1e308, -1e308):
        with pytest.raises(ValueError, match="scale .* overflows the Choi form"):
            choi_witness_value(P3, BELL, 2, scale, samples=3)


def test_sampled_min_respects_positivity_below_threshold():
    for p, t, d in ((P3, BELL, 1), (P3, BELL, 2), (P3, MIDDLE, 1), (P4, SQUARE, 2)):
        lam = math.exp(-math.log(d_positivity_threshold(p, t, 1)))
        for scale in (1.0, d_positivity_threshold(p, t, d)):
            rep = choi_witness_value(p, t, d, scale, samples=60, seed=1)
            assert rep.sampled_min >= (1.0 - scale * d * lam) - 1e-6
            assert rep.sampled_min >= -1e-6 or scale > rep.threshold


def test_choi_samples_build_one_seed_child_at_a_time(monkeypatch):
    # the same children as SeedSequence(seed).spawn(samples), without holding them all
    p, t, d, scale, samples, seed = P4, AdmissibleTriple(1, 2, 1), 3, 0.5, 30, 0
    iso = isometry(p, t)
    rank = min(d, iso.basis_l.dim, iso.basis_m.dim)
    spawned = math.inf
    for child in np.random.SeedSequence(seed).spawn(samples):
        rng = np.random.default_rng(child)
        qu, _ = np.linalg.qr(rng.standard_normal((iso.basis_l.dim, rank)))
        qv, _ = np.linalg.qr(rng.standard_normal((iso.basis_m.dim, rank)))
        weights = rng.standard_normal(rank)
        weights /= np.linalg.norm(weights)
        x = ((qu * weights) @ qv.T).ravel()
        spawned = min(spawned, channel_module._choi_qform(iso.legs, scale, x))

    class Unspawnable(np.random.SeedSequence):
        def spawn(self, n_children):
            raise AssertionError(f"spawned {n_children} children at once")

    monkeypatch.setattr(np.random, "SeedSequence", Unspawnable)
    rep = choi_witness_value(p, t, d, scale, samples=samples, seed=seed)
    assert rep.sampled_min == spawned


def test_choi_report_deterministic():
    a = choi_witness_value(P3, BELL, 2, 1.4, samples=25, seed=9)
    b = choi_witness_value(P3, BELL, 2, 1.4, samples=25, seed=9)
    assert a == b


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------

def test_von_neumann_entropy_examples():
    v = np.zeros(4)
    v[1] = 1.0
    assert von_neumann_entropy(np.outer(v, v)) == 0.0
    assert von_neumann_entropy(np.eye(3) / 3.0) == pytest.approx(math.log(3.0))
    assert von_neumann_entropy(np.diag([0.5, 0.5, 0.0])) == pytest.approx(
        math.log(2.0)
    )
