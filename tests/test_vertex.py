"""Tests for trivalent vertices and equivariant isometries.

The central oracle equivalences: the brute-force Frobenius trace of the
dense vertex must reproduce the closed-form theta-net, and the isometry
built in leg coordinates must equal the dense vertex (`dense_vertex`).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from conftest import blas_threads, needs_blas_threads, record_blas_threads
from dense_vertex import _vertex_columns, cup_vector, theta_by_trace, three_vertex, word_parities
from test_acceptance import SWEEP_FULL, SWEEP_SMALL

import wenzl_lab.jones_wenzl as jwmod
import wenzl_lab.vertex as vxmod
from wenzl_lab import cli
from wenzl_lab.channel import channel_apply, choi_witness_value, moe_bracket
from wenzl_lab.entangle import (
    max_schmidt_optimizer,
    rd_certificate,
    verify_saturation,
    witness_family,
)
from wenzl_lab.errors import DimensionCapError, InvariantViolation
from wenzl_lab.jones_wenzl import jw_projection, onb_of_irrep
from wenzl_lab.jones_wenzl import clear_caches as clear_jw
from wenzl_lab.qnum import (
    AdmissibleTriple,
    admissible_triples,
    dim_irrep,
    q_int,
    quantum_parameter,
    theta_net_log,
)
from wenzl_lab.vertex import clear_caches, isometry

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
                assert got == pytest.approx(math.exp(theta_net_log(p, t)), rel=THETA_RTOL), t


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
    assert iso.scale == 1.0  # lambda_log is exactly 0.0 at r = 0
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


@pytest.mark.parametrize("max_dim", [float("nan"), None, True, 0, 81.0])
def test_isometry_cap_must_be_a_positive_integer(max_dim):
    with pytest.raises(ValueError, match="max_dim must be a positive integer"):
        isometry(quantum_parameter(3), AdmissibleTriple(2, 1, 1), max_dim=max_dim)


def test_cached_legs_are_read_only():
    p = quantum_parameter(3)
    t = AdmissibleTriple(2, 2, 2)
    before = isometry(p, t).legs.copy()
    with pytest.raises(ValueError, match="read-only"):
        isometry(p, t).legs[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        isometry(p, t).legs.reshape(-1)[:] *= 2
    np.testing.assert_array_equal(isometry(p, t).legs, before)


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


# ---------------------------------------------------------------------------
# sign sectors: p_k, the bases and alpha commute with the diagonal sign matrices
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "p,t", SWEEP_FULL, ids=[f"{p.n}-{t.k}-{t.l}-{t.m}" for p, t in SWEEP_FULL]
)
def test_bases_and_legs_keep_their_sectors(p, t):
    # compared with 0.0, no tolerance: each entry off the sectors sums products that
    # all have an exact 0.0 factor
    iso = isometry(p, t)
    for basis in (iso.basis, iso.basis_l, iso.basis_m):
        words = word_parities(p.n, basis.k)
        assert not np.any(basis.columns[words[:, None] != basis.sectors]), basis.k
    pairs = (iso.basis_l.sectors[:, None] ^ iso.basis_m.sectors).reshape(-1)
    assert not np.any(iso.legs[pairs[:, None] != iso.basis.sectors])


def test_projections_vanish_off_their_sector_blocks():
    for n, k in sorted({(p.n, t.k) for p, t in SWEEP_FULL}):
        words = word_parities(n, k)
        assert not np.any(jw_projection(quantum_parameter(n), k)[words[:, None] != words]), (n, k)


SECTOR_BUILDS = [  # r = 0 and the flops of `isometry`'s scope at or above SPLIT_FLOPS
    (p, t) for p, t in SWEEP_FULL
    if t.r == 0 and 2 * round(dim_irrep(p, t.l)) * round(dim_irrep(p, t.k)) * p.n**t.m
    * (p.n**t.l + round(dim_irrep(p, t.m))) >= jwmod.SPLIT_FLOPS
]


@pytest.mark.parametrize(
    "p,t", SECTOR_BUILDS, ids=[f"{p.n}-{t.k}-{t.l}-{t.m}" for p, t in SECTOR_BUILDS]
)
def test_sector_vertex_matches_two_stage_product(p, t):
    # the builds that take the sector blocks, against the product over every word
    iso = isometry(p, t)
    bk, bl, bm = iso.basis, iso.basis_l, iso.basis_m
    want = vxmod._two_stage_vertex(p.n, t, bk.columns, bl.columns, bm.columns)
    assert np.abs(vxmod._sector_vertex(bk, bl, bm) - want).max() <= 1e-14
    assert np.abs(iso.legs - want).max() <= 1e-14


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
        moe_bracket(p, t, samples=5, restarts=3, seed=0)
        dim = isometry(p, t).basis.dim
        channel_apply(p, t, np.eye(dim) / dim)
    # the witness family, on the index family (N=4) and beyond it (Bell, d = 2)
    p4, square = quantum_parameter(4), AdmissibleTriple(2, 2, 2)
    p3, bell = quantum_parameter(3), AdmissibleTriple(0, 1, 1)
    witness_family(isometry(p4, square))
    verify_saturation(p4, square)
    choi_witness_value(p4, square, 2, 1.0, samples=3)
    choi_witness_value(p3, bell, 2, 1.0, samples=3)
    triple = ["--n", "4", "--k", "2", "--l", "2", "--m", "2"]
    choi = ["choi", "--d", "2", "--scale", "1.5", "--samples", "3"]
    for argv in (["schmidt"], ["saturation"], choi):
        assert cli.main(argv + triple) == 0
    capsys.readouterr()
    assert not jwmod._jw_cache
    assert vxmod._iso_cache


def test_isometry_report_forms_no_wenzl_projection(capsys):
    # the CLI report forms legs^T legs for its Gram check and never reaches the recursion
    clear_jw()
    assert cli.main(["isometry", "--n", "3", "--k", "2", "--l", "2", "--m", "2"]) == 0
    capsys.readouterr()
    assert not jwmod._jw_cache


def test_theta_disagreement_is_hard_error(monkeypatch):
    p = quantum_parameter(3)
    monkeypatch.setattr(vxmod, "theta_net_log", lambda *_: 0.0)
    with pytest.raises(InvariantViolation):
        isometry(p, AdmissibleTriple(1, 1, 2))


def test_nan_theta_trace_is_hard_error(monkeypatch):
    # a NaN in the cached level-2 basis makes the trace theta NaN, which
    # `err > tol` would let through
    p = quantum_parameter(3)
    basis = onb_of_irrep(p, 2)
    cols = basis.columns.copy()
    cols[0, 0] = np.nan
    monkeypatch.setitem(jwmod._basis_cache, (3, 2), dataclasses.replace(basis, columns=cols))
    with pytest.raises(InvariantViolation, match="theta mismatch"):
        isometry(p, AdmissibleTriple(2, 2, 2))


# ---------------------------------------------------------------------------
# BLAS thread count by build size
# ---------------------------------------------------------------------------

@needs_blas_threads
def test_small_builds_run_on_one_blas_thread(monkeypatch):
    # N=3 (6,3,3) from cold caches: fusion steps of levels 2..6 (at most
    # 4.2e7 flops) and its leg vertex (2.1e7) sit below SPLIT_FLOPS
    caller = blas_threads()
    steps, legs, entries = [], [], []
    record_blas_threads(monkeypatch, jwmod, "_fusion_step", steps)
    record_blas_threads(monkeypatch, vxmod, "_leg_vertex", legs)
    record_blas_threads(monkeypatch, vxmod, "isometry", entries)
    vxmod.isometry(quantum_parameter(3), AdmissibleTriple(6, 3, 3))
    assert steps == [1] * 5
    assert legs == [1]
    assert entries == [caller]
    assert blas_threads() == caller


@needs_blas_threads
def test_large_builds_keep_the_callers_blas_threads(monkeypatch):
    # the N=5 level-5 fusion step costs 2.3e9 flops, the N=4 (6,4,2) leg vertex 5.3e9
    caller = blas_threads()
    p5, p4 = quantum_parameter(5), quantum_parameter(4)
    onb_of_irrep(p5, 4)
    onb_of_irrep(p4, 6)
    steps, legs = [], []
    record_blas_threads(monkeypatch, jwmod, "_fusion_step", steps)
    record_blas_threads(monkeypatch, vxmod, "_leg_vertex", legs)
    onb_of_irrep(p5, 5)
    isometry(p4, AdmissibleTriple(6, 4, 2))
    assert steps == [caller]
    assert legs == [caller]
    assert blas_threads() == caller


@needs_blas_threads
def test_theta_mismatch_in_a_one_thread_build_restores_blas_threads(monkeypatch):
    caller = blas_threads()
    legs = []
    record_blas_threads(monkeypatch, vxmod, "_leg_vertex", legs)
    monkeypatch.setattr(vxmod, "theta_net_log", lambda *_: 0.0)
    with pytest.raises(InvariantViolation, match="theta mismatch"):
        isometry(quantum_parameter(3), AdmissibleTriple(2, 2, 2))
    assert legs == [1]
    assert blas_threads() == caller


def test_split_size_moves_neither_legs_nor_sweeps(monkeypatch):
    # every build on the caller's count, then every build on one thread;
    # N=2 (2,1,1) is the rounding-sensitive triple of the golden max-schmidt pin
    runs = []
    for split in (0, math.inf):
        monkeypatch.setattr(jwmod, "SPLIT_FLOPS", split)
        clear_caches()
        clear_jw()
        legs = {(p.n, t): isometry(p, t).legs for p, t in SWEEP_SMALL}
        sweeps = [
            max_schmidt_optimizer(quantum_parameter(n), AdmissibleTriple(*klm)).restart_sweeps
            for n, klm in [(2, (2, 1, 1)), (5, (4, 2, 2))]
        ]
        runs.append((legs, sweeps))
    (legs_split, sweeps_split), (legs_one, sweeps_one) = runs
    assert sweeps_split == sweeps_one
    assert max(np.abs(legs_split[key] - legs_one[key]).max() for key in legs_split) <= 1e-14
