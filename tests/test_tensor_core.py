"""Tests for the dense tensor kernel: layout, cups, traces, matricization."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wenzl_lab.errors import DimensionCapError
from wenzl_lab.qnum import quantum_parameter
from wenzl_lab.tensor_core import (
    TensorOperator,
    TensorShape,
    TensorVector,
    alternating_vector,
    basis_vector,
    cup_vector,
    identity_operator,
    matricize,
    partial_trace,
    reversal_permutation,
    tensor_product,
)

ATOL = 1e-12


# ---------------------------------------------------------------------------
# shapes and basis vectors
# ---------------------------------------------------------------------------

def test_shape_dim():
    assert TensorShape(3, 4).dim == 81
    assert TensorShape(5, 0).dim == 1
    with pytest.raises(ValueError):
        TensorShape(0, 2)


def test_basis_vector_simple():
    v = basis_vector(TensorShape(3, 1), (1,))
    np.testing.assert_array_equal(v.data, [1.0, 0.0, 0.0])


def test_basis_vector_layout_leftmost_slowest():
    v = basis_vector(TensorShape(2, 2), (1, 2))
    # flat position of (1,2) is 0*2 + 1 = 1 in row-major order
    np.testing.assert_array_equal(v.data, [0.0, 1.0, 0.0, 0.0])


def test_basis_vector_zero_legs():
    v = basis_vector(TensorShape(3, 0), ())
    np.testing.assert_array_equal(v.data, [1.0])


def test_basis_vector_rejects_bad_index():
    with pytest.raises(ValueError):
        basis_vector(TensorShape(3, 2), (1, 4))
    with pytest.raises(ValueError):
        basis_vector(TensorShape(3, 2), (0, 1))
    with pytest.raises(ValueError):
        basis_vector(TensorShape(3, 2), (1,))


def test_vector_data_length_validated():
    with pytest.raises(ValueError):
        TensorVector(TensorShape(2, 2), np.zeros(3))


# ---------------------------------------------------------------------------
# cup vectors
# ---------------------------------------------------------------------------

def test_cup_vector_scalar():
    v = cup_vector(quantum_parameter(3), 0)
    assert v.shape.legs == 0
    np.testing.assert_array_equal(v.data, [1.0])


def test_cup_vector_single():
    p = quantum_parameter(3)
    v = cup_vector(p, 1)
    want = sum(
        np.kron(np.eye(3)[i], np.eye(3)[i]) for i in range(3)
    )
    np.testing.assert_allclose(v.data, want, atol=ATOL)
    assert v.norm() ** 2 == pytest.approx(3.0)


def test_cup_vector_two_reversal_positions():
    # nonzeros of T_2 sit at (i1, i2, i2, i1)
    p = quantum_parameter(2)
    v = cup_vector(p, 2)
    arr = v.data.reshape(2, 2, 2, 2)
    for i1, i2, j1, j2 in itertools.product(range(2), repeat=4):
        want = 1.0 if (j1, j2) == (i2, i1) else 0.0
        assert arr[i1, i2, j1, j2] == want
    assert v.norm() ** 2 == pytest.approx(4.0)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_cup_vector_recursion(n, r):
    # T_r = (iota^{r-1} (x) T_1 (x) iota^{r-1}) T_{r-1}, entrywise
    if n**(2 * r) > 4096:
        pytest.skip("over cap")
    p = quantum_parameter(n)
    got = cup_vector(p, r).data
    prev = cup_vector(p, r - 1).data.reshape(n ** (r - 1), n ** (r - 1))
    built = np.zeros((n ** (r - 1), n, n, n ** (r - 1)))
    for i in range(n):
        built[:, i, i, :] = prev
    np.testing.assert_allclose(got, built.reshape(-1), atol=ATOL)


@pytest.mark.parametrize("n,r", [(2, 3), (3, 2), (4, 1)])
def test_cup_matricization_is_reversal_permutation(n, r):
    p = quantum_parameter(n)
    mat = matricize(cup_vector(p, r), r)
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
    v = alternating_vector(TensorShape(3, 1), 1, 2)
    np.testing.assert_array_equal(v.data, basis_vector(TensorShape(3, 1), (1,)).data)
    v = alternating_vector(TensorShape(3, 3), 1, 2)
    want = basis_vector(TensorShape(3, 3), (1, 2, 1))
    np.testing.assert_array_equal(v.data, want.data)
    v = alternating_vector(TensorShape(3, 2), 2, 3)
    want = basis_vector(TensorShape(3, 2), (2, 3))
    np.testing.assert_array_equal(v.data, want.data)


def test_alternating_vector_rejects_equal_letters():
    with pytest.raises(ValueError):
        alternating_vector(TensorShape(3, 2), 1, 1)


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
    left = alternating_vector(TensorShape(n, k), i, j)
    if k % 2 == 0:
        right = alternating_vector(TensorShape(n, m), i, j)
    else:
        right = alternating_vector(TensorShape(n, m), j, i)
    joined = tensor_product(left, right)
    want = alternating_vector(TensorShape(n, k + m), i, j)
    np.testing.assert_array_equal(joined.data, want.data)


# ---------------------------------------------------------------------------
# tensor products
# ---------------------------------------------------------------------------

def test_tensor_product_basis_vectors():
    n = 3
    a = basis_vector(TensorShape(n, 1), (1,))
    b = basis_vector(TensorShape(n, 1), (2,))
    ab = tensor_product(a, b)
    want = basis_vector(TensorShape(n, 2), (1, 2))
    np.testing.assert_array_equal(ab.data, want.data)


def test_tensor_product_identities():
    sh2 = TensorShape(2, 2)
    sh1 = TensorShape(2, 1)
    got = tensor_product(identity_operator(sh2), identity_operator(sh1))
    np.testing.assert_array_equal(got.data, np.eye(8))
    assert got.out_shape.legs == 3


def test_tensor_product_norm_multiplicative():
    p = quantum_parameter(3)
    t1 = cup_vector(p, 1)
    tt = tensor_product(t1, t1)
    assert tt.norm() ** 2 == pytest.approx(9.0)


def test_tensor_product_mixed_kinds_rejected():
    p = quantum_parameter(3)
    with pytest.raises(TypeError):
        tensor_product(cup_vector(p, 1), identity_operator(TensorShape(3, 1)))


def test_tensor_product_cap():
    a = identity_operator(TensorShape(4, 3))
    with pytest.raises(DimensionCapError):
        tensor_product(a, tensor_product(a, a))


# ---------------------------------------------------------------------------
# partial trace
# ---------------------------------------------------------------------------

def test_partial_trace_product_operators():
    rng = np.random.default_rng(7)
    n = 3
    sh = TensorShape(n, 1)
    a = TensorOperator(sh, sh, rng.standard_normal((n, n)))
    b = TensorOperator(sh, sh, rng.standard_normal((n, n)))
    ab = tensor_product(a, b)
    first = partial_trace(ab, 1, "first")
    np.testing.assert_allclose(first.data, np.trace(a.data) * b.data, atol=ATOL)
    last = partial_trace(ab, 1, "last")
    np.testing.assert_allclose(last.data, np.trace(b.data) * a.data, atol=ATOL)


def test_partial_trace_of_cup_projector():
    p = quantum_parameter(3)
    t1 = cup_vector(p, 1)
    proj = TensorOperator(t1.shape, t1.shape, np.outer(t1.data, t1.data))
    out = partial_trace(proj, 1, "first")
    np.testing.assert_allclose(out.data, np.eye(3), atol=ATOL)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), split=st.integers(0, 3))
def test_partial_trace_preserves_trace_and_psd(seed, split):
    rng = np.random.default_rng(seed)
    n = 2
    legs = 3
    sh = TensorShape(n, legs)
    g = rng.standard_normal((sh.dim, sh.dim))
    psd = g @ g.T
    op = TensorOperator(sh, sh, psd)
    for side in ("first", "last"):
        red = partial_trace(op, split, side)
        assert np.trace(red.data) == pytest.approx(np.trace(psd), rel=1e-12)
        assert np.linalg.eigvalsh(red.data).min() >= -1e-10


def test_partial_trace_rejects_bad_input():
    sh = TensorShape(2, 2)
    rect = TensorOperator(sh, TensorShape(2, 1), np.zeros((4, 2)))
    with pytest.raises(ValueError):
        partial_trace(rect, 1, "first")
    op = identity_operator(sh)
    with pytest.raises(ValueError):
        partial_trace(op, 3, "first")
    with pytest.raises(ValueError):
        partial_trace(op, 1, "middle")


# ---------------------------------------------------------------------------
# matricization
# ---------------------------------------------------------------------------

def test_matricize_rank_one():
    n = 3
    a = basis_vector(TensorShape(n, 1), (2,))
    b = basis_vector(TensorShape(n, 2), (1, 3))
    mat = matricize(tensor_product(a, b), 1)
    np.testing.assert_allclose(mat, np.outer(a.data, b.data), atol=ATOL)
    assert np.linalg.matrix_rank(mat) == 1


def test_matricize_cup_is_identity():
    p = quantum_parameter(3)
    np.testing.assert_array_equal(matricize(cup_vector(p, 1), 1), np.eye(3))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), split=st.integers(0, 4))
def test_matricize_preserves_norm(seed, split):
    rng = np.random.default_rng(seed)
    sh = TensorShape(2, 4)
    v = TensorVector(sh, rng.standard_normal(sh.dim))
    assert np.linalg.norm(matricize(v, split)) == pytest.approx(v.norm(), rel=1e-12)
