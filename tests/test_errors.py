"""Tests for the argument rules in `errors`: integer levels, counts and ranks,
real parameters, real arrays, and the ambient-dimension cap on numpy-integer
and huge levels."""

from __future__ import annotations

import math

import numpy as np
import pytest

from wenzl_lab import jones_wenzl as jwmod
from wenzl_lab.channel import channel_apply
from wenzl_lab.entangle import rd_certificate, schmidt_spectrum
from wenzl_lab.errors import DimensionCapError, _check_cap, _check_int, _check_real
from wenzl_lab.jones_wenzl import clear_caches, jw_projection, onb_of_irrep, verify_jw
from wenzl_lab.qnum import (
    AdmissibleTriple,
    admissible_triples,
    dim_irrep,
    log_dim,
    q_int,
    quantum_parameter,
)

P3 = quantum_parameter(3)


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


def test_check_int_returns_a_python_int():
    value = _check_int("k", np.int64(40), 0)
    assert type(value) is int and value == 40
    assert 3**value == 3**40  # an np.int64 power would wrap


@pytest.mark.parametrize("value", [True, 2.0, 2.5, "2", None, -1])
def test_check_int_refuses(value):
    with pytest.raises(ValueError, match="k must be a non-negative integer"):
        _check_int("k", value, 0)


def test_check_real_returns_a_float_inside_the_open_interval():
    assert _check_real("mu", np.float64(0.5), "in (0, 1)", 0.0, 1.0) == 0.5
    for value in (True, "x", None, math.nan, 0.0, 1.0):
        with pytest.raises(ValueError, match=r"mu must be in \(0, 1\)"):
            _check_real("mu", value, "in (0, 1)", 0.0, 1.0)


def test_cap_counts_numpy_integer_legs_exactly():
    with pytest.raises(DimensionCapError):
        _check_cap(3, np.int64(40), 4096)


@pytest.mark.parametrize("n,legs", [(3, 10**5), (2, 15000)])
def test_cap_refuses_huge_levels_with_a_cap_error(n, legs):
    # N^legs has more than 4,300 digits, past Python's int-to-str limit
    with pytest.raises(DimensionCapError, match=rf"{n}\^{legs} exceeds cap 4096"):
        _check_cap(n, legs, 4096)


def test_cap_never_refuses_rank_one():
    _check_cap(1, 10**9, 1)


@pytest.mark.parametrize("build", [jw_projection, onb_of_irrep])
def test_builders_refuse_numpy_level_over_cap_before_building(build, monkeypatch):
    def refuse(*args):
        pytest.fail("a level was built past the cap")

    monkeypatch.setattr(jwmod, "_wenzl_step", refuse)
    monkeypatch.setattr(jwmod, "_fusion_step", refuse)
    with pytest.raises(DimensionCapError):
        build(P3, np.int64(40))


BAD_LEVELS = [
    ("onb_of_irrep", lambda: onb_of_irrep(P3, 2.5)),
    ("jw_projection", lambda: jw_projection(P3, 2.0)),
    ("q_int", lambda: q_int(P3, 2.5)),
    ("dim_irrep", lambda: dim_irrep(P3, 1.5)),
    ("log_dim", lambda: log_dim(P3, 2.5)),
    ("onb_of_irrep-bool", lambda: onb_of_irrep(P3, True)),
    ("jw_projection-bool", lambda: jw_projection(P3, True)),
    ("q_int-bool", lambda: q_int(P3, True)),
]


@pytest.mark.parametrize("call", [c for _, c in BAD_LEVELS], ids=[i for i, _ in BAD_LEVELS])
def test_non_integer_levels_raise_value_error(call):
    with pytest.raises(ValueError, match="must be a non-negative integer"):
        call()


def test_numpy_integer_levels_and_counts_work():
    two = np.int64(2)
    assert q_int(P3, two) == q_int(P3, 2) == 3.0
    assert dim_irrep(P3, two) == 8.0
    assert log_dim(P3, np.int64(5)) == log_dim(P3, 5)
    assert onb_of_irrep(P3, two) is onb_of_irrep(P3, 2)
    assert jw_projection(P3, two) is jw_projection(P3, 2)
    assert admissible_triples(np.int64(1), np.int64(1)) == admissible_triples(1, 1)
    t = AdmissibleTriple(1, 1, 2)
    counted = rd_certificate(P3, t, samples=np.int64(8), seed=np.int64(1))
    assert counted == rd_certificate(P3, t, samples=8, seed=1)


def test_quantum_parameter_takes_a_numpy_rank_as_a_python_int():
    p = quantum_parameter(np.int64(3))
    assert type(p.n) is int and p == quantum_parameter(3)
    for bad in (2.0, True, "3"):
        with pytest.raises(ValueError, match="rank must be a positive integer"):
            quantum_parameter(bad)


def test_schmidt_spectrum_refuses_complex_input():
    # the float cast alone would report max 1.0; the true value is (3 + sqrt 5) / 2
    with pytest.raises(ValueError, match="must be real"):
        schmidt_spectrum(np.array([[1, 1j], [0, 1]]))
    real = schmidt_spectrum(np.array([[1, 0j], [0, 1]]))  # a zero imaginary part is real
    assert real.max == pytest.approx(1.0)


def test_channel_apply_refuses_complex_state():
    rho = np.eye(3, dtype=complex) / 3.0
    rho[0, 1], rho[1, 0] = 0.1j, -0.1j
    with pytest.raises(ValueError, match="input state must be real"):
        channel_apply(P3, AdmissibleTriple(1, 1, 2), rho)


def test_verify_jw_refuses_complex_projection():
    data = jw_projection(P3, 2).astype(complex)
    data[0, 1] += 0.3j
    data[1, 0] -= 0.3j
    with pytest.raises(ValueError, match="p_2 must be real"):
        verify_jw(P3, 2, data)


def _with_object_entry(arr):
    """arr as an object array whose entry [0, 1] is no number at all."""
    out = np.asarray(arr, dtype=object).copy()
    out[0, 1] = object()
    return out


def test_schmidt_spectrum_refuses_object_entries():
    with pytest.raises(ValueError, match="Schmidt spectrum input must be real"):
        schmidt_spectrum([[1, object()]])


def test_channel_apply_refuses_object_entries():
    with pytest.raises(ValueError, match="input state must be real"):
        channel_apply(P3, AdmissibleTriple(1, 1, 2), _with_object_entry(np.eye(3) / 3.0))


def test_verify_jw_refuses_object_entries():
    with pytest.raises(ValueError, match="p_2 must be real"):
        verify_jw(P3, 2, _with_object_entry(jw_projection(P3, 2)))
