"""Tests for the Gram-system helpers against hand-rolled oracles."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from smap.errors import InvalidInputError, SingularSystemError
from smap.linalg import cholesky_stack, gram, solve_cholesky_stack, solve_spd


def loop_gram(X):
    """Triple-loop inner products, no matrix algebra."""
    rows, cols = X.shape
    out = np.zeros((cols, cols))
    for i in range(cols):
        for j in range(cols):
            acc = 0.0
            for t in range(rows):
                acc += X[t, i] * X[t, j]
            out[i, j] = acc
    return out


def eliminate(A, b):
    """Pure-Python partial-pivot elimination."""
    n = len(b)
    A = [list(map(float, row)) for row in A]
    b = list(map(float, b))
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(A[r][col]))
        A[col], A[pivot] = A[pivot], A[col]
        b[col], b[pivot] = b[pivot], b[col]
        for row in range(col + 1, n):
            f = A[row][col] / A[col][col]
            for c in range(col, n):
                A[row][c] -= f * A[col][c]
            b[row] -= f * b[col]
    x = [0.0] * n
    for row in reversed(range(n)):
        s = b[row] - sum(A[row][c] * x[c] for c in range(row + 1, n))
        x[row] = s / A[row][row]
    return np.array(x)


def random_spd(rng, n):
    B = rng.standard_normal((n, n))
    return B @ B.T + 0.5 * np.eye(n)


def test_gram_identity():
    npt.assert_array_equal(gram(np.eye(2)), np.eye(2))


def test_gram_single_column():
    npt.assert_array_equal(gram(np.array([[1.0], [2.0]])), np.array([[5.0]]))


def test_gram_matches_triple_loop(rng):
    X = rng.standard_normal((10, 3))
    npt.assert_allclose(gram(X), loop_gram(X), atol=1e-12)


def test_gram_positive_semidefinite(rng):
    X = rng.standard_normal((4, 6))  # wide, so the Gram matrix is singular
    assert np.linalg.eigvalsh(gram(X)).min() >= -1e-10


@settings(max_examples=50, deadline=None)
@given(arrays(np.float64, (5, 3), elements=st.floats(-1e3, 1e3)))
def test_gram_bitwise_symmetric(X):
    G = gram(X)
    npt.assert_array_equal(G, G.T)


@pytest.mark.parametrize(
    "bad", [np.ones(3), np.ones((3, 0)), np.array([[np.nan], [1.0]])]
)
def test_gram_rejects_bad_input(bad):
    with pytest.raises(InvalidInputError):
        gram(bad)


def test_solve_identity():
    npt.assert_array_equal(solve_spd(np.eye(3), np.arange(3.0)), np.arange(3.0))


def test_solve_diagonal_with_delta():
    got = solve_spd(np.diag([1.0, 3.0]), np.array([2.0, 8.0]), delta=1.0)
    npt.assert_allclose(got, [1.0, 2.0], rtol=1e-14)


def test_solve_matches_elimination(rng):
    for _ in range(20):
        G = random_spd(rng, 3)
        b = rng.standard_normal(3)
        npt.assert_allclose(solve_spd(G, b), eliminate(G, b), rtol=1e-9, atol=1e-12)


def test_solve_stacked_columns(rng):
    G = random_spd(rng, 4)
    B = rng.standard_normal((4, 3))
    sol = solve_spd(G, B)
    assert sol.shape == B.shape
    for j in range(3):
        npt.assert_allclose(sol[:, j], solve_spd(G, B[:, j]), rtol=1e-12)


@pytest.mark.parametrize("delta", [0.0, 1e-12, 1e-4])
def test_solve_residual_bound(rng, delta):
    for _ in range(10):
        G = random_spd(rng, 3)
        b = rng.standard_normal(3)
        y = solve_spd(G, b, delta)
        H = G + delta * np.eye(3)
        assert np.linalg.norm(H @ y - b) <= 1e-9 * (1.0 + np.linalg.norm(b))


def test_solve_rejects_indefinite():
    with pytest.raises(SingularSystemError):
        solve_spd(np.diag([1.0, -1.0]), np.ones(2))


def test_solve_singular_needs_delta():
    G = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(SingularSystemError):
        solve_spd(G, np.ones(2))
    y = solve_spd(G, np.ones(2), delta=1e-8)
    assert np.all(np.isfinite(y))


def test_solve_validation():
    with pytest.raises(InvalidInputError):
        solve_spd(np.ones((2, 3)), np.ones(2))
    with pytest.raises(InvalidInputError):
        solve_spd(np.eye(2), np.ones(3))
    with pytest.raises(InvalidInputError):
        solve_spd(np.eye(2), np.ones(2), delta=-1e-9)


@pytest.mark.parametrize("delta", [0.0, 1e-12])
def test_stacked_factor_solves_like_solve_spd(rng, delta):
    # ensembles rely on these matching the one-system route to the bit
    G = np.stack([random_spd(rng, 3) for _ in range(5)])
    B = rng.standard_normal((5, 3, 2))
    sols = solve_cholesky_stack(cholesky_stack(G, delta), B)
    for Gi, Bi, sol in zip(G, B, sols):
        npt.assert_array_equal(sol, solve_spd(Gi, Bi, delta))
        npt.assert_array_equal(sol[:, 0], solve_spd(Gi, Bi[:, 0], delta))


def test_stacked_factor_rejects_indefinite_member(rng):
    G = np.stack([random_spd(rng, 2), np.diag([1.0, -1.0])])
    with pytest.raises(SingularSystemError):
        cholesky_stack(G)
    cholesky_stack(G[:1])
