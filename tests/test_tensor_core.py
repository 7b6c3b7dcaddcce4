"""Tests for the row-major leg layout: the reversal permutation and the
ambient oracles of `dense_vertex` (basis vectors, cups, words)."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from dense_vertex import alternating_vector, basis_vector, cup_vector
from hypothesis import given, settings
from hypothesis import strategies as st

from wenzl_lab.errors import DimensionCapError
from wenzl_lab.qnum import quantum_parameter
from wenzl_lab.vertex import reversal_permutation

ATOL = 1e-12


# ---------------------------------------------------------------------------
# basis vectors
# ---------------------------------------------------------------------------

def test_basis_vector_simple():
    v = basis_vector(3, (1,))
    np.testing.assert_array_equal(v, [1.0, 0.0, 0.0])


def test_basis_vector_layout_leftmost_slowest():
    v = basis_vector(2, (1, 2))
    # flat position of (1,2) is 0*2 + 1 = 1 in row-major order
    np.testing.assert_array_equal(v, [0.0, 1.0, 0.0, 0.0])


def test_basis_vector_zero_legs():
    v = basis_vector(3, ())
    np.testing.assert_array_equal(v, [1.0])


def test_basis_vector_rejects_bad_index():
    with pytest.raises(ValueError):
        basis_vector(3, (1, 4))
    with pytest.raises(ValueError):
        basis_vector(3, (0, 1))


# ---------------------------------------------------------------------------
# cup vectors
# ---------------------------------------------------------------------------

def test_cup_vector_scalar():
    v = cup_vector(quantum_parameter(3), 0)
    np.testing.assert_array_equal(v, [1.0])


def test_cup_vector_single():
    p = quantum_parameter(3)
    v = cup_vector(p, 1)
    want = sum(
        np.kron(np.eye(3)[i], np.eye(3)[i]) for i in range(3)
    )
    np.testing.assert_allclose(v, want, atol=ATOL)
    assert np.linalg.norm(v) ** 2 == pytest.approx(3.0)


def test_cup_vector_two_reversal_positions():
    # nonzeros of T_2 sit at (i1, i2, i2, i1)
    p = quantum_parameter(2)
    v = cup_vector(p, 2)
    arr = v.reshape(2, 2, 2, 2)
    for i1, i2, j1, j2 in itertools.product(range(2), repeat=4):
        want = 1.0 if (j1, j2) == (i2, i1) else 0.0
        assert arr[i1, i2, j1, j2] == want
    assert np.linalg.norm(v) ** 2 == pytest.approx(4.0)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_cup_vector_recursion(n, r):
    # T_r = (iota^{r-1} (x) T_1 (x) iota^{r-1}) T_{r-1}, entrywise
    if n**(2 * r) > 4096:
        pytest.skip("over cap")
    p = quantum_parameter(n)
    got = cup_vector(p, r)
    prev = cup_vector(p, r - 1).reshape(n ** (r - 1), n ** (r - 1))
    built = np.zeros((n ** (r - 1), n, n, n ** (r - 1)))
    for i in range(n):
        built[:, i, i, :] = prev
    np.testing.assert_allclose(got, built.reshape(-1), atol=ATOL)


@pytest.mark.parametrize("n,r", [(2, 3), (3, 2), (4, 1)])
def test_cup_matricization_is_reversal_permutation(n, r):
    p = quantum_parameter(n)
    mat = cup_vector(p, r).reshape(n**r, n**r)
    perm = reversal_permutation(n, r)
    want = np.zeros_like(mat)
    want[np.arange(n**r), perm] = 1.0
    np.testing.assert_array_equal(mat, want)
    # permutation matrix: orthogonal with unit row sums
    np.testing.assert_allclose(mat @ mat.T, np.eye(n**r), atol=ATOL)


def test_cup_vector_cap():
    with pytest.raises(DimensionCapError):
        cup_vector(quantum_parameter(4), 7)


# ---------------------------------------------------------------------------
# alternating words
# ---------------------------------------------------------------------------

def test_alternating_vector_examples():
    v = alternating_vector(3, 1, 1, 2)
    np.testing.assert_array_equal(v, basis_vector(3, (1,)))
    v = alternating_vector(3, 3, 1, 2)
    want = basis_vector(3, (1, 2, 1))
    np.testing.assert_array_equal(v, want)
    v = alternating_vector(3, 2, 2, 3)
    want = basis_vector(3, (2, 3))
    np.testing.assert_array_equal(v, want)


def test_alternating_vector_rejects_equal_letters():
    with pytest.raises(ValueError):
        alternating_vector(3, 2, 1, 1)


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(1, 3),
    m=st.integers(1, 3),
    letters=st.tuples(st.integers(1, 3), st.integers(1, 3)).filter(
        lambda t: t[0] != t[1]
    ),
)
def test_alternating_junction_property(k, m, letters):
    # eta_k(i,j) (x) eta_m(i',j') = eta_{k+m}(i,j) iff the second word
    # continues the alternation where the first one stopped
    i, j = letters
    n = 3
    left = alternating_vector(n, k, i, j)
    if k % 2 == 0:
        right = alternating_vector(n, m, i, j)
    else:
        right = alternating_vector(n, m, j, i)
    joined = np.kron(left, right)
    want = alternating_vector(n, k + m, i, j)
    np.testing.assert_array_equal(joined, want)


# ---------------------------------------------------------------------------
# products and cuts of the oracle vectors
# ---------------------------------------------------------------------------

def test_tensor_product_basis_vectors():
    n = 3
    a = basis_vector(n, (1,))
    b = basis_vector(n, (2,))
    want = basis_vector(n, (1, 2))
    np.testing.assert_array_equal(np.kron(a, b), want)


def test_partial_trace_of_cup_projector():
    # tracing the first leg of |T_1><T_1| leaves the identity on C^N
    t1 = cup_vector(quantum_parameter(3), 1)
    blocks = np.outer(t1, t1).reshape(3, 3, 3, 3)
    np.testing.assert_allclose(np.einsum("abad->bd", blocks), np.eye(3), atol=ATOL)


def test_matricize_rank_one():
    # a product vector reshaped along its cut is the rank-1 outer product
    n = 3
    a = basis_vector(n, (2,))
    b = basis_vector(n, (1, 3))
    mat = np.kron(a, b).reshape(n, n**2)
    np.testing.assert_allclose(mat, np.outer(a, b), atol=ATOL)
    assert np.linalg.matrix_rank(mat) == 1


def test_matricize_cup_is_identity():
    p = quantum_parameter(3)
    np.testing.assert_array_equal(cup_vector(p, 1).reshape(3, 3), np.eye(3))
