"""Tests for quantum-integer arithmetic and theta-net closed forms.

Oracles are deliberately independent of the implementation: quantum
integers via the exact integer three-term recursion, theta-nets via
fractions.Fraction products of those integers, and the rapid-decay
constant via a high-precision mpmath series.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wenzl_lab.qnum import (
    AdmissibleTriple,
    admissible_triples,
    dim_irrep,
    q_factorial_log,
    q_int,
    quantum_parameter,
    rd_bound,
    rd_constant,
    theta_bound_ratio,
    theta_net,
    theta_net_log,
)

RTOL = 1e-12
RECURSION_RTOL = 1e-10


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def qint_exact(n: int, m: int) -> int:
    """[m]_q as an exact integer via [s+1] = n [s] - [s-1]."""
    a, b = 0, 1
    for _ in range(m):
        a, b = b, n * b - a
    return a


def theta_exact(n: int, k: int, l: int, m: int) -> Fraction:
    """Theta-net as an exact rational from integer quantum factorials."""
    r = (l + m - k) // 2

    def fact(x: int) -> int:
        out = 1
        for s in range(1, x + 1):
            out *= qint_exact(n, s)
        return out

    num = fact(r) * fact(l - r) * fact(m - r) * fact(k + r + 1)
    den = fact(l) * fact(m) * fact(k)
    return Fraction(num, den)


def rd_constant_mpmath(n: int) -> float:
    """C(q) from the defining series at 50-digit precision."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        q = 2 / (n + mp.sqrt(n * n - 4))
        prod = mp.mpf(1)
        s = 1
        while True:
            term = q ** (2 * s)
            if term < mp.mpf(10) ** -40:
                break
            prod *= 1 - term
            s += 1
        c = (1 - q * q) ** mp.mpf("-0.5") * prod ** mp.mpf("-1.5")
        return float(c)


# ---------------------------------------------------------------------------
# quantum parameter
# ---------------------------------------------------------------------------

def test_quantum_parameter_solves_root_equation():
    for n in range(2, 30):
        p = quantum_parameter(n)
        assert p.q + 1.0 / p.q == pytest.approx(n, rel=RTOL)
        assert 0.0 < p.q <= 1.0


def test_quantum_parameter_known_values():
    assert quantum_parameter(2).q == 1.0
    assert quantum_parameter(3).q == pytest.approx(0.3819660113, abs=1e-9)
    assert quantum_parameter(3).q == pytest.approx((3 - math.sqrt(5)) / 2, rel=RTOL)
    assert quantum_parameter(4).q == pytest.approx(2 - math.sqrt(3), rel=RTOL)


def test_quantum_parameter_matches_alternative_form():
    # same root written as (1/n) * 2 / (1 + sqrt(1 - 4/n^2))
    for n in range(2, 20):
        p = quantum_parameter(n)
        alt = (2.0 / n) / (1.0 + math.sqrt(1.0 - 4.0 / (n * n)))
        assert p.q == pytest.approx(alt, rel=RTOL)


def test_quantum_parameter_rejects_bad_rank():
    with pytest.raises(ValueError):
        quantum_parameter(1)
    with pytest.raises(ValueError):
        quantum_parameter(0)


# ---------------------------------------------------------------------------
# quantum integers and factorials
# ---------------------------------------------------------------------------

def test_q_int_base_cases():
    p = quantum_parameter(5)
    assert q_int(p, 0) == 0.0
    assert q_int(p, 1) == 1.0


def test_q_int_frozen_values():
    p3 = quantum_parameter(3)
    for m, want in [(2, 3), (3, 8), (4, 21), (5, 55), (6, 144)]:
        assert q_int(p3, m) == pytest.approx(want, rel=1e-9)
    p4 = quantum_parameter(4)
    for m, want in [(2, 4), (3, 15), (4, 56), (5, 209), (6, 780), (7, 2911)]:
        assert q_int(p4, m) == pytest.approx(want, rel=1e-9)
    p5 = quantum_parameter(5)
    for m, want in [(2, 5), (3, 24), (4, 115), (5, 551)]:
        assert q_int(p5, m) == pytest.approx(want, rel=1e-9)


def test_q_int_degenerates_at_rank_two():
    p = quantum_parameter(2)
    for m in range(0, 60):
        assert q_int(p, m) == float(m)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 12), m=st.integers(1, 60))
def test_q_int_recursion_invariant(n, m):
    p = quantum_parameter(n)
    lhs = q_int(p, m + 1)
    rhs = n * q_int(p, m) - q_int(p, m - 1)
    assert lhs == pytest.approx(rhs, rel=RECURSION_RTOL)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 9), m=st.integers(0, 40))
def test_q_int_matches_exact_integer_oracle(n, m):
    p = quantum_parameter(n)
    assert q_int(p, m) == pytest.approx(float(qint_exact(n, m)), rel=1e-11)


def test_q_int_overflow_is_loud():
    p = quantum_parameter(3)
    with pytest.raises(OverflowError):
        q_int(p, 900)
    # log-space access still works at that size
    assert math.isfinite(q_factorial_log(p, 900))


def test_q_factorial_log_frozen_values():
    p3 = quantum_parameter(3)
    assert q_factorial_log(p3, 0) == 0.0
    assert q_factorial_log(p3, 3) == pytest.approx(math.log(24.0), rel=RTOL)
    p4 = quantum_parameter(4)
    assert q_factorial_log(p4, 2) == pytest.approx(math.log(4.0), rel=RTOL)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 9), m=st.integers(1, 50))
def test_q_factorial_log_increments_by_log_qint(n, m):
    p = quantum_parameter(n)
    inc = q_factorial_log(p, m) - q_factorial_log(p, m - 1)
    assert inc == pytest.approx(math.log(q_int(p, m)), rel=1e-11)


def test_dim_irrep_frozen_values():
    assert dim_irrep(quantum_parameter(3), 3) == pytest.approx(21.0, rel=1e-9)
    assert dim_irrep(quantum_parameter(4), 2) == pytest.approx(15.0, rel=1e-9)
    assert dim_irrep(quantum_parameter(2), 4) == pytest.approx(5.0, rel=RTOL)


# ---------------------------------------------------------------------------
# admissible triples
# ---------------------------------------------------------------------------

def test_admissible_triple_computes_r():
    t = AdmissibleTriple(2, 3, 3)
    assert t.r == 2


@pytest.mark.parametrize(
    "k,l,m",
    [
        (1, 1, 1), (4, 1, 1), (1, 0, 0), (2, 1, 0), (0, 1, 2),
        # a bool is not a label, and an np.int64 label would make n**k an int64
        (True, 0, 1), (2, True, 1), (np.int64(2), 1, 1),
    ],
)
def test_admissible_triple_rejects_bad_labels(k, l, m):
    with pytest.raises(ValueError):
        AdmissibleTriple(k, l, m)


@pytest.mark.parametrize("l,m", [(True, 1), (1, True)])
def test_admissible_triples_rejects_bool_legs(l, m):
    with pytest.raises(ValueError):
        admissible_triples(l, m)


def test_admissible_triple_rejects_negative():
    with pytest.raises(ValueError):
        AdmissibleTriple(-1, 1, 1)


def test_admissible_triples_enumeration():
    got = [(t.k, t.l, t.m) for t in admissible_triples(1, 1)]
    assert got == [(2, 1, 1), (0, 1, 1)]
    got = [(t.k, t.l, t.m) for t in admissible_triples(2, 3)]
    assert got == [(5, 2, 3), (3, 2, 3), (1, 2, 3)]
    got = [(t.k, t.l, t.m) for t in admissible_triples(0, 4)]
    assert got == [(4, 0, 4)]


@settings(max_examples=100, deadline=None)
@given(l=st.integers(0, 12), m=st.integers(0, 12))
def test_admissible_triples_dimension_count(l, m):
    # multiplicity-one summands: dims [k+1] must add up to [l+1][m+1]
    p = quantum_parameter(4)
    total = sum(dim_irrep(p, t.k) for t in admissible_triples(l, m))
    assert total == pytest.approx(dim_irrep(p, l) * dim_irrep(p, m), rel=1e-9)


# ---------------------------------------------------------------------------
# theta-nets
# ---------------------------------------------------------------------------

def test_theta_net_frozen_values():
    p3 = quantum_parameter(3)
    assert theta_net(p3, AdmissibleTriple(2, 1, 1)) == pytest.approx(8.0, rel=1e-9)
    assert theta_net(p3, AdmissibleTriple(1, 1, 2)) == pytest.approx(8.0, rel=1e-9)
    assert theta_net(p3, AdmissibleTriple(2, 2, 2)) == pytest.approx(56.0 / 3.0, rel=1e-9)
    p4 = quantum_parameter(4)
    assert theta_net(p4, AdmissibleTriple(2, 2, 2)) == pytest.approx(52.5, rel=1e-9)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 7), l=st.integers(0, 8), m=st.integers(0, 8), data=st.data())
def test_theta_net_matches_exact_rational_oracle(n, l, m, data):
    r = data.draw(st.integers(0, min(l, m)))
    t = AdmissibleTriple(l + m - 2 * r, l, m)
    p = quantum_parameter(n)
    want = theta_exact(n, t.k, t.l, t.m)
    assert theta_net(p, t) == pytest.approx(float(want), rel=1e-10)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 7), l=st.integers(0, 10), m=st.integers(0, 10), data=st.data())
def test_theta_net_symmetric_under_leg_permutations(n, l, m, data):
    r = data.draw(st.integers(0, min(l, m)))
    k = l + m - 2 * r
    p = quantum_parameter(n)
    base = theta_net_log(p, AdmissibleTriple(k, l, m))
    import itertools

    for perm in itertools.permutations((k, l, m)):
        try:
            t = AdmissibleTriple(*perm)
        except ValueError:
            continue
        assert theta_net_log(p, t) == pytest.approx(base, rel=1e-10, abs=1e-10)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 7), l=st.integers(0, 10), m=st.integers(0, 10))
def test_theta_net_edge_cases(n, l, m):
    p = quantum_parameter(n)
    assert theta_net(p, AdmissibleTriple(l, l, 0)) == pytest.approx(
        dim_irrep(p, l), rel=1e-10
    )
    assert theta_net(p, AdmissibleTriple(l + m, l, m)) == pytest.approx(
        dim_irrep(p, l + m), rel=1e-10
    )
    if l > 0:
        assert theta_net(p, AdmissibleTriple(0, l, l)) == pytest.approx(
            dim_irrep(p, l), rel=1e-10
        )


# ---------------------------------------------------------------------------
# rapid-decay constant and bounds
# ---------------------------------------------------------------------------

def test_rd_constant_frozen_value():
    # 1.4235376... from the 50-digit series; 4-digit folklore quotes
    # of this constant tend to truncate the product early.
    assert rd_constant(quantum_parameter(3)) == pytest.approx(1.4235376, abs=2e-7)


@pytest.mark.parametrize("n", [3, 4, 5, 7, 9])
def test_rd_constant_matches_mpmath_oracle(n):
    got = rd_constant(quantum_parameter(n))
    assert got == pytest.approx(rd_constant_mpmath(n), rel=1e-12)


def test_rd_constant_rejects_rank_two():
    with pytest.raises(ValueError):
        rd_constant(quantum_parameter(2))


def test_rd_bound_frozen_values():
    p3 = quantum_parameter(3)
    exact, coarse = rd_bound(p3, AdmissibleTriple(1, 1, 2))
    assert exact == pytest.approx(0.375, rel=1e-9)
    assert coarse == pytest.approx(rd_constant(p3) ** 2 * p3.q, rel=1e-12)
    assert coarse == pytest.approx(0.774, abs=5e-4)
    exact, _ = rd_bound(p3, AdmissibleTriple(2, 2, 2))
    assert exact == pytest.approx(3.0 / 7.0, rel=1e-9)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(3, 8), l=st.integers(0, 9), m=st.integers(0, 9), data=st.data())
def test_rd_bound_exact_below_coarse(n, l, m, data):
    r = data.draw(st.integers(0, min(l, m)))
    t = AdmissibleTriple(l + m - 2 * r, l, m)
    p = quantum_parameter(n)
    exact, coarse = rd_bound(p, t)
    assert exact <= coarse * (1 + 1e-12)
    assert exact > 0.0


@settings(max_examples=100, deadline=None)
@given(n=st.integers(3, 12), r=st.integers(0, 20))
def test_qint_reciprocal_brackets(n, r):
    # 1/[r+1]_q = q^r (1-q^2) / (1-q^{2r+2}), so it sits in
    # [q^r (1-q^2), q^r]; the lower end is attained as r -> infinity.
    p = quantum_parameter(n)
    inv = 1.0 / q_int(p, r + 1)
    lo = p.q**r * (1.0 - p.q * p.q)
    hi = p.q**r
    assert lo * (1 - 1e-12) <= inv <= hi * (1 + 1e-12)


def test_theta_bound_ratio_frozen_values():
    p3 = quantum_parameter(3)
    assert theta_bound_ratio(p3, AdmissibleTriple(1, 1, 2)) == pytest.approx(
        9.0 / 8.0, rel=1e-9
    )
    assert theta_bound_ratio(p3, AdmissibleTriple(2, 2, 2)) == pytest.approx(
        9.0 / 7.0, rel=1e-9
    )
    # highest weight: r = 0 and theta = [k+1], so the ratio is exactly 1
    assert theta_bound_ratio(p3, AdmissibleTriple(4, 2, 2)) == pytest.approx(
        1.0, rel=1e-12
    )


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 8), l=st.integers(0, 9), m=st.integers(0, 9), data=st.data())
def test_theta_bound_ratio_at_least_one(n, l, m, data):
    r = data.draw(st.integers(0, min(l, m)))
    t = AdmissibleTriple(l + m - 2 * r, l, m)
    p = quantum_parameter(n)
    assert theta_bound_ratio(p, t) >= 1.0 - 1e-12
