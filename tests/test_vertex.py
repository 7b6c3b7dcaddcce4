"""Tests for trivalent vertices and equivariant isometries.

The central oracle equivalences: the brute-force Frobenius trace of the
dense vertex must reproduce the closed-form theta-net, and the isometry
built in leg coordinates must equal the dense vertex (`dense_vertex`).
"""

from __future__ import annotations

import numpy as np
import pytest
from dense_vertex import _vertex_columns, cup_vector, theta_by_trace, three_vertex
from test_acceptance import SWEEP_FULL

import wenzl_lab.jones_wenzl as jwmod
import wenzl_lab.vertex as vxmod
from wenzl_lab import cli
from wenzl_lab.channel import channel, channel_apply, choi_witness_value, moe_bracket
from wenzl_lab.entangle import (
    higher_rank_value,
    max_schmidt_optimizer,
    rd_certificate,
    saturation_witness,
    separability_witness_highest_weight,
    verify_saturation,
)
from wenzl_lab.errors import DimensionCapError, InvariantViolation
from wenzl_lab.jones_wenzl import jw_projection, onb_of_irrep
from wenzl_lab.jones_wenzl import clear_caches as clear_jw
from wenzl_lab.qnum import (
    AdmissibleTriple,
    admissible_triples,
    q_int,
    quantum_parameter,
    theta_net,
)
from wenzl_lab.vertex import (
    clear_caches,
    isometry,
    verify_equivariance_proxy,
)

THETA_RTOL = 1e-7
ISO_TOL = 1e-9


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()
    clear_jw()


# ---------------------------------------------------------------------------
# vertex construction and the theta oracle
# ---------------------------------------------------------------------------

def test_bell_vertex_is_cup():
    p = quantum_parameter(3)
    v = three_vertex(p, AdmissibleTriple(0, 1, 1))
    np.testing.assert_allclose(
        v[:, 0], cup_vector(p, 1), atol=1e-12
    )
    assert theta_by_trace(v) == pytest.approx(3.0, rel=1e-12)


def test_highest_weight_vertex_is_projection():
    p = quantum_parameter(3)
    v = three_vertex(p, AdmissibleTriple(2, 1, 1))
    np.testing.assert_allclose(v, jw_projection(p, 2), atol=1e-10)
    assert theta_by_trace(v) == pytest.approx(8.0, rel=THETA_RTOL)


@pytest.mark.parametrize(
    "n,k,l,m,want",
    [
        (3, 1, 1, 2, 8.0),
        (3, 2, 2, 2, 56.0 / 3.0),
        (4, 2, 2, 2, 52.5),
        (3, 0, 2, 2, 8.0),
    ],
)
def test_theta_by_trace_frozen_values(n, k, l, m, want):
    p = quantum_parameter(n)
    v = three_vertex(p, AdmissibleTriple(k, l, m))
    assert theta_by_trace(v) == pytest.approx(want, rel=THETA_RTOL)


@pytest.mark.parametrize("n", [3, 4])
def test_theta_trace_matches_closed_form_sweep(n):
    p = quantum_parameter(n)
    for l in range(0, 4):
        for m in range(0, 4):
            if n ** (l + m) > 4096 or n ** (l + m) > 3**6:
                continue  # keep the unit sweep fast; acceptance covers the rest
            for t in admissible_triples(l, m):
                got = theta_by_trace(three_vertex(p, t))
                assert got == pytest.approx(theta_net(p, t), rel=THETA_RTOL), t


def test_vertex_norm_bounded_by_qint():
    # ||A||^2 <= [r+1]_q
    for n, k, l, m in [(3, 0, 1, 1), (3, 1, 1, 2), (3, 2, 2, 2), (4, 0, 2, 2)]:
        p = quantum_parameter(n)
        t = AdmissibleTriple(k, l, m)
        top = np.linalg.svd(three_vertex(p, t), compute_uv=False)[0]
        assert top**2 <= q_int(p, t.r + 1) * (1 + 1e-10)


def test_vertex_cap():
    p = quantum_parameter(3)
    with pytest.raises(DimensionCapError):
        three_vertex(p, AdmissibleTriple(0, 1, 1), max_dim=8)


# ---------------------------------------------------------------------------
# isometries
# ---------------------------------------------------------------------------

def test_bell_isometry_is_normalized_cup():
    p = quantum_parameter(3)
    iso = isometry(p, AdmissibleTriple(0, 1, 1))
    assert iso.reduced.shape == (9, 1)
    np.testing.assert_allclose(
        np.abs(iso.reduced[:, 0]),
        cup_vector(p, 1) / np.sqrt(3.0),
        atol=1e-12,
    )


def test_highest_weight_isometry_has_unit_scale():
    p = quantum_parameter(3)
    iso = isometry(p, AdmissibleTriple(2, 1, 1))
    assert iso.scale == pytest.approx(1.0, rel=1e-9)
    np.testing.assert_allclose(
        iso.reduced @ iso.basis.columns.T, jw_projection(p, 2), atol=1e-9
    )
    # on basis coordinates the inclusion is exactly the basis itself
    np.testing.assert_allclose(iso.reduced, onb_of_irrep(p, 2).columns, atol=1e-9)


@pytest.mark.parametrize(
    "n,k,l,m", [(3, 0, 1, 1), (3, 1, 1, 2), (3, 2, 2, 2), (3, 3, 2, 3), (4, 2, 1, 3)]
)
def test_isometry_contract(n, k, l, m):
    p = quantum_parameter(n)
    iso = isometry(p, AdmissibleTriple(k, l, m))
    gram = iso.reduced.T @ iso.reduced
    assert np.abs(gram - np.eye(gram.shape[0])).max() <= ISO_TOL


def test_isometry_injective():
    p = quantum_parameter(3)
    iso = isometry(p, AdmissibleTriple(1, 1, 2))
    smin = np.linalg.svd(iso.reduced, compute_uv=False)[-1]
    assert smin >= 1 - 1e-8


def test_isometry_cached():
    p = quantum_parameter(3)
    t = AdmissibleTriple(1, 1, 2)
    assert isometry(p, t) is isometry(p, t)


def test_cached_isometry_still_honours_cap():
    p = quantum_parameter(3)
    t = AdmissibleTriple(2, 2, 2)
    isometry(p, t)
    with pytest.raises(DimensionCapError):
        isometry(p, t, max_dim=9)
    assert isometry(p, t, max_dim=81) is isometry(p, t)


DENSE_ORACLE = [(p, t) for p, t in SWEEP_FULL if p.n ** (t.l + t.m) <= 1024]


@pytest.mark.parametrize(
    "p,t", DENSE_ORACLE, ids=[f"{p.n}-{t.k}-{t.l}-{t.m}" for p, t in DENSE_ORACLE]
)
def test_legs_match_dense_vertex(p, t):
    # legs = scale (B_l^T (x) B_m^T) A B_k and reduced = scale A B_k, with A
    # the dense-p vertex of the oracle module
    iso = isometry(p, t)
    dense = iso.scale * _vertex_columns(p, t, onb_of_irrep(p, t.k).columns)
    bl, bm = onb_of_irrep(p, t.l).columns, onb_of_irrep(p, t.m).columns
    cube = dense.reshape(bl.shape[0], bm.shape[0], -1)
    half = np.tensordot(bl, cube, axes=(0, 0))  # (d_l, N^m, d_k)
    legs = np.tensordot(bm, half, axes=(0, 1)).transpose(1, 0, 2).reshape(iso.legs.shape)
    assert np.abs(iso.legs - legs).max() <= 1e-12
    assert np.abs(iso.reduced - dense).max() <= 1e-12


def test_pipeline_never_builds_dense_objects(capsys, monkeypatch):
    # the pipeline works on legs alone: no Wenzl projection is formed and
    # no isometry is lifted to the ambient space
    def no_lift(iso, x):
        pytest.fail(f"the pipeline lifted {iso.triple} to the ambient space")

    monkeypatch.setattr(vxmod.EquivariantIsometry, "lift", no_lift)
    clear_jw()
    for n, k, l, m in [(4, 2, 2, 2), (3, 4, 2, 2)]:
        p, t = quantum_parameter(n), AdmissibleTriple(k, l, m)
        isometry(p, t)
        max_schmidt_optimizer(p, t, restarts=4, seed=0)
        rd_certificate(p, t, samples=10, seed=0)
        ch = channel(p, t)
        moe_bracket(ch, samples=5, restarts=3, seed=0)
        channel_apply(ch, np.eye(ch.input_dim) / ch.input_dim)
    # the witness family, on the index family (N=4) and beyond it (Bell, d = 2)
    p4, square = quantum_parameter(4), AdmissibleTriple(2, 2, 2)
    p3, bell = quantum_parameter(3), AdmissibleTriple(0, 1, 1)
    saturation_witness(p4, square)
    verify_saturation(p4, square)
    higher_rank_value(p4, square)
    choi_witness_value(p4, square, 2, 1.0, samples=3)
    choi_witness_value(p3, bell, 2, 1.0, samples=3)
    separability_witness_highest_weight(p3, 2, 2, 1, 2)
    triple = ["--n", "4", "--k", "2", "--l", "2", "--m", "2"]
    for argv in (["schmidt"], ["saturation"], ["choi", "--d", "2", "--scale", "1.5"]):
        assert cli.main(argv + triple + ["--samples", "3"]) == 0
    capsys.readouterr()
    assert not jwmod._jw_cache
    assert vxmod._iso_cache


def test_theta_disagreement_is_hard_error(monkeypatch):
    p = quantum_parameter(3)
    monkeypatch.setattr(vxmod, "theta_net_log", lambda *_: 0.0)
    with pytest.raises(InvariantViolation):
        isometry(p, AdmissibleTriple(1, 1, 2))


# ---------------------------------------------------------------------------
# equivariance proxy
# ---------------------------------------------------------------------------

def test_proxy_exact_for_bell():
    p = quantum_parameter(3)
    assert verify_equivariance_proxy(isometry(p, AdmissibleTriple(0, 1, 1))) <= 1e-12


@pytest.mark.parametrize("k,l,m", [(1, 1, 2), (3, 2, 3), (2, 2, 2)])
def test_proxy_small_residual(k, l, m):
    p = quantum_parameter(3)
    assert verify_equivariance_proxy(isometry(p, AdmissibleTriple(k, l, m))) <= 1e-9
