"""Tests for the complementary channels, their norms, MOE brackets,
and the Choi-matrix d-positivity witness machinery."""

from __future__ import annotations

import importlib
import math

import numpy as np
import pytest
from dense_vertex import choi_matrix
from hypothesis import given, settings
from hypothesis import strategies as st

from wenzl_lab.channel import (
    TRACE_FIRST,
    TRACE_LAST,
    channel,
    channel_apply,
    channel_norm_report,
    choi_witness_value,
    d_positivity_threshold,
    moe_bracket,
    von_neumann_entropy,
)
from wenzl_lab.errors import InvariantViolation
from wenzl_lab.qnum import AdmissibleTriple, quantum_parameter, rd_constant

# the package re-exports the function `channel`, which shadows the submodule
channel_module = importlib.import_module("wenzl_lab.channel")

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


def converged_norm(ch) -> float:
    rep = channel_norm_report(ch)
    assert rep.converged, ch.triple
    return rep.norm_1_to_inf


def random_pure(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    return np.outer(v, v)


# ---------------------------------------------------------------------------
# channel application
# ---------------------------------------------------------------------------

def test_bell_channel_outputs_maximally_mixed():
    ch = channel(P3, BELL)
    out = channel_apply(ch, np.array([[1.0]]))
    np.testing.assert_allclose(out, np.eye(3) / 3.0, atol=1e-12)


def test_pure_output_spectrum_equals_schmidt_spectrum():
    ch = channel(P3, MIDDLE)
    rng = np.random.default_rng(11)
    xi = rng.standard_normal(ch.input_dim)
    xi /= np.linalg.norm(xi)
    out = channel_apply(ch, np.outer(xi, xi))
    spectrum = np.linalg.eigvalsh(out)
    spectrum = np.sort(spectrum[spectrum > 1e-12])[::-1]

    mat = (ch.iso.reduced @ xi).reshape(3, 9)
    lam = np.sort(np.linalg.svd(mat, compute_uv=False) ** 2)[::-1]
    lam = lam[: len(spectrum)]
    np.testing.assert_allclose(spectrum, lam, atol=1e-10)


def test_maximally_mixed_input_gives_trace_one_psd_output():
    for p, t in ((P3, MIDDLE), (P3, HIGHEST), (P4, SQUARE)):
        ch = channel(p, t)
        rho = np.eye(ch.input_dim) / ch.input_dim
        out = channel_apply(ch, rho)
        assert np.trace(out) == pytest.approx(1.0, abs=1e-9)
        assert np.linalg.eigvalsh(out)[0] >= -1e-9


def test_cptp_on_random_states():
    rng = np.random.default_rng(0)
    for p, t in ((P3, BELL), (P3, MIDDLE), (P3, SQUARE)):
        for direction in (TRACE_FIRST, TRACE_LAST):
            ch = channel(p, t, direction)
            for _ in range(34):
                out = channel_apply(ch, random_state(rng, ch.input_dim))
                assert abs(np.trace(out) - 1.0) <= 1e-9
                assert np.linalg.eigvalsh(out)[0] >= -1e-9


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_complementary_outputs_share_nonzero_spectrum(seed):
    rng = np.random.default_rng(seed)
    rho = random_pure(rng, 3)
    first = channel_apply(channel(P3, MIDDLE, TRACE_FIRST), rho)
    last = channel_apply(channel(P3, MIDDLE, TRACE_LAST), rho)
    s_first = np.linalg.eigvalsh(first)
    s_last = np.linalg.eigvalsh(last)
    s_first = np.sort(s_first[np.abs(s_first) > 1e-10])
    s_last = np.sort(s_last[np.abs(s_last) > 1e-10])
    assert len(s_first) == len(s_last)
    np.testing.assert_allclose(s_first, s_last, atol=1e-9)


@pytest.mark.parametrize("direction", [TRACE_FIRST, TRACE_LAST])
def test_output_is_in_kept_basis_coordinates(direction):
    # d_kept square, and B_kept out B_kept^T is the ambient partial trace
    ch = channel(P3, MIDDLE, direction)
    rho = random_state(np.random.default_rng(4), ch.input_dim)
    out = channel_apply(ch, rho)
    iso = ch.iso
    kept = iso.basis_m if direction == TRACE_FIRST else iso.basis_l
    assert out.shape == (ch.output_dim, ch.output_dim) == (kept.dim, kept.dim)
    full = iso.reduced @ rho @ iso.reduced.T
    blocks = full.reshape(3, 9, 3, 9)
    want = (
        np.einsum("abad->bd", blocks) if direction == TRACE_FIRST
        else np.einsum("abcb->ac", blocks)
    )
    np.testing.assert_allclose(kept.columns @ out @ kept.columns.T, want, atol=1e-12)


def test_channel_rejects_bad_inputs():
    ch = channel(P3, MIDDLE)
    with pytest.raises(ValueError):
        channel_apply(ch, np.eye(2) / 2.0)  # wrong dimension
    with pytest.raises(ValueError):
        channel_apply(ch, np.diag([1.4, -0.4, 0.0]))  # negative eigenvalue
    with pytest.raises(ValueError):
        channel_apply(ch, np.eye(3))  # trace 3
    skew = np.eye(3) / 3.0
    skew[0, 1] = 0.2
    with pytest.raises(ValueError):
        channel_apply(ch, skew)  # not symmetric
    nan_state = np.eye(3) / 3.0
    nan_state[2, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        channel_apply(ch, nan_state)


def test_channel_rejects_bad_direction():
    with pytest.raises(ValueError):
        channel(P3, BELL, "trace-both")


# ---------------------------------------------------------------------------
# S1 -> Sinf norms
# ---------------------------------------------------------------------------

def test_norm_frozen_values():
    assert converged_norm(channel(P3, BELL)) == pytest.approx(
        1.0 / 3.0, rel=1e-6
    )
    assert converged_norm(channel(P3, MIDDLE)) == pytest.approx(
        3.0 / 8.0, rel=1e-6
    )
    assert converged_norm(channel(P3, HIGHEST)) == pytest.approx(
        1.0, rel=1e-6
    )


def test_norm_matches_closed_form_and_direction_free():
    for p, t in ((P3, SQUARE), (P4, MIDDLE)):
        first = converged_norm(channel(p, t, TRACE_FIRST))
        last = converged_norm(channel(p, t, TRACE_LAST))
        closed = channel_norm_report(channel(p, t)).closed_form
        assert first == pytest.approx(closed, rel=1e-6)
        assert last == pytest.approx(closed, rel=1e-6)


def test_norm_report_brackets_bell():
    rep = channel_norm_report(channel(P3, BELL))
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
    rep = channel_norm_report(channel(P3, HIGHEST))
    assert rep.closed_form == pytest.approx(1.0, rel=1e-12)
    assert rep.bracket_lower_printed == pytest.approx(1.0)
    assert rep.in_printed_bracket
    assert rep.in_sharp_bracket


@pytest.mark.parametrize(
    "report", [channel_norm_report, lambda ch, tol: moe_bracket(ch, samples=4, tol=tol)]
)
def test_tol_reaches_optimizer(monkeypatch, report):
    seen = []
    real = channel_module.max_schmidt_optimizer

    def recording(*args, **kwargs):
        seen.append(kwargs.get("tol"))
        return real(*args, **kwargs)

    monkeypatch.setattr(channel_module, "max_schmidt_optimizer", recording)
    report(channel(P3, MIDDLE), tol=1e-6)
    assert seen == [1e-6]


# ---------------------------------------------------------------------------
# MOE brackets
# ---------------------------------------------------------------------------

def test_moe_bell_bracket_is_tight():
    b = moe_bracket(channel(P3, BELL), samples=40)
    assert b.lower == pytest.approx(math.log(3.0), rel=1e-12)
    assert b.upper == pytest.approx(math.log(3.0), rel=1e-12)
    assert abs(b.upper - b.lower) < 1e-8
    assert b.coarse_lower <= b.lower + 1e-8


def test_moe_square_n4_frozen_lower():
    b = moe_bracket(channel(P4, SQUARE), samples=40)
    assert b.lower == pytest.approx(math.log(3.5), rel=1e-12)
    assert b.upper >= b.lower - 1e-8
    assert SQUARE.r == 1
    assert b.coarse_lower == pytest.approx(
        -math.log(P4.q) - 2.0 * math.log(rd_constant(P4)), rel=1e-12
    )


def test_moe_highest_weight_is_zero_via_separable_witness():
    b = moe_bracket(channel(P3, HIGHEST), samples=40)
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
                    b = moe_bracket(channel(p, t), samples=25, restarts=6)
                    assert b.lower <= b.upper + 1e-8
                    assert b.coarse_lower <= b.lower + 1e-8


@pytest.mark.parametrize("samples", [0, -1])
def test_moe_rejects_too_few_samples(samples):
    with pytest.raises(ValueError, match="samples must be at least 1"):
        moe_bracket(channel(P3, MIDDLE), samples=samples)


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
        "moe": lambda **kw: moe_bracket(channel(P3, MIDDLE), **kw),
        "choi": lambda **kw: choi_witness_value(P3, BELL, 1, 1.0, **kw),
        "threshold": lambda **kw: d_positivity_threshold(P3, BELL, **kw),
    }
    with pytest.raises(ValueError, match="must be"):
        calls[call](**kwargs)


def test_moe_deterministic():
    a = moe_bracket(channel(P3, MIDDLE), samples=30, seed=42)
    b = moe_bracket(channel(P3, MIDDLE), samples=30, seed=42)
    assert a == b


def test_entropy_never_below_negative_log_norm():
    ch = channel(P3, MIDDLE)
    floor = -math.log(converged_norm(ch))
    rng = np.random.default_rng(3)
    for _ in range(25):
        rho = random_pure(rng, ch.input_dim)
        assert von_neumann_entropy(channel_apply(ch, rho)) >= floor - 1e-8
    for _ in range(10):
        rho = random_state(rng, ch.input_dim)
        assert von_neumann_entropy(channel_apply(ch, rho)) >= floor - 1e-8


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
        with pytest.raises(ValueError, match="samples must be at least 1"):
            choi_witness_value(P3, BELL, 1, 1.0, samples=samples)
    for scale in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="scale must be a finite number"):
            choi_witness_value(P3, BELL, 1, scale, samples=3)


def test_sampled_min_respects_positivity_below_threshold():
    for p, t, d in ((P3, BELL, 1), (P3, BELL, 2), (P3, MIDDLE, 1), (P4, SQUARE, 2)):
        lam = math.exp(-math.log(d_positivity_threshold(p, t, 1)))
        for scale in (1.0, d_positivity_threshold(p, t, d)):
            rep = choi_witness_value(p, t, d, scale, samples=60, seed=1)
            assert rep.sampled_min >= (1.0 - scale * d * lam) - 1e-6
            assert rep.sampled_min >= -1e-6 or scale > rep.threshold


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


def test_von_neumann_entropy_rejects_bad_states():
    with pytest.raises(ValueError):
        von_neumann_entropy(np.ones(3))  # not a matrix
    with pytest.raises(ValueError):
        von_neumann_entropy(np.eye(3))  # trace 3
    with pytest.raises(ValueError):
        von_neumann_entropy(np.diag([1.5, -0.5]))  # negative eigenvalue
    skew = np.eye(2) / 2.0
    skew[0, 1] = 1e-3
    with pytest.raises(ValueError):
        von_neumann_entropy(skew)  # not symmetric
    with pytest.raises(ValueError, match="non-finite"):
        von_neumann_entropy(np.array([[np.nan]]))
