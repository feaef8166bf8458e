"""Tests for the Gram-system helpers against hand-rolled oracles."""

import os
import subprocess
import sys

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import cho_factor, cho_solve

import smap
from smap.errors import InvalidInputError, SingularSystemError
from smap.linalg import _cholesky_solve, all_finite, gram, solve_spd, solve_spd_stack


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
    "bad",
    [np.ones(3), np.ones((3, 0)), np.array([[np.nan], [1.0]]), np.array([[np.inf], [-np.inf]])],
)
def test_gram_rejects_bad_input(bad):
    with pytest.raises(InvalidInputError):
        gram(bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_gram_rejects_non_finite_entries_anywhere(bad):
    for index in np.ndindex(4, 3):
        X = np.ones((4, 3))
        X[index] = bad
        with pytest.raises(InvalidInputError, match="must be finite"):
            gram(X)


def test_gram_accepts_finite_data_whose_sum_overflows():
    X = np.array([[1e308, 1.0], [1e308, 0.0]])
    assert all_finite(X)  # its sum overflows, and no sum is taken
    assert not all_finite(np.array([np.inf, -np.inf, 1.0]))  # its sum is nan
    with np.errstate(over="ignore"):  # the product itself overflows
        npt.assert_array_equal(gram(X), X.T @ X)


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
    for delta in (np.inf, np.nan):
        with pytest.raises(InvalidInputError, match="finite"):
            solve_spd(np.eye(2), np.ones(2), delta)


@pytest.mark.parametrize("delta", [0.0, 1e-12])
def test_solves_match_cho_solve_to_the_bit(rng, delta):
    # both routes keep the arithmetic of scipy's cho_factor/cho_solve, which
    # call the same LAPACK pair; ensembles rely on the stack matching one system
    for m in range(1, 10):
        G = np.stack([gram(rng.standard_normal((m + 3, m))) for _ in range(4)])
        # a diagonal Gram with -0.0 off the diagonal, and right-hand sides
        # with -0.0 entries, make the signs of zeros in the solution depend
        # on the signs of the regularized matrix's zeros
        G[-1] = np.where(np.eye(m, dtype=bool), G[-1], -0.0)
        for b in (rng.standard_normal((4, m)), rng.standard_normal((4, m, 3))):
            b[-1, 1:] = -0.0
            sols, singular = solve_spd_stack(G + delta * np.eye(m), b)
            assert not singular.any()
            for Gi, bi, sol in zip(G, b, sols):
                H = Gi + delta * np.eye(m) if delta else Gi  # what solve_spd factors
                expected = cho_solve(cho_factor(H, lower=True), bi)
                got = solve_spd(Gi, bi, delta)
                # bytes, not values: -0.0 == 0.0 would pass an equality test
                assert got.tobytes() == expected.tobytes()
                assert got.tobytes() == _cholesky_solve(H, bi).tobytes()
                # the layout too: dot products over the columns round by it
                assert got.strides == expected.strides
                npt.assert_array_equal(sol, expected)


def test_decoupled_zero_block_is_padded_and_anything_else_raises(rng):
    # the padded lags of an unregularized window: trailing zero rows of the
    # Gram matrix with zeros in the right-hand side too
    for m, j in ((2, 1), (3, 1), (3, 2), (6, 4)):
        G = np.zeros((m, m))
        G[:j, :j] = random_spd(rng, j)
        for b in (rng.standard_normal(m), rng.standard_normal((m, 3))):
            b[j:] = 0.0
            y = solve_spd(G, b)
            assert y[:j].tobytes() == solve_spd(G[:j, :j], b[:j]).tobytes()
            assert y[j:].tobytes() == np.zeros(b[j:].shape).tobytes()
            assert y.strides == np.zeros(b.shape, order="F").strides  # laid out as dpotrs's
            sols, singular = solve_spd_stack(G[None], b[None])
            assert not singular.any() and sols[0].tobytes() == y.tobytes()
            b[-1] = 1.0  # a right-hand side in the zero block has no solution
            with pytest.raises(SingularSystemError):
                solve_spd(G, b)
            assert solve_spd_stack(G[None], b[None])[1].all()
    # no block before the zero rows, a singular one, or a zero row inside
    singular_lead = np.ones((3, 3))
    singular_lead[2] = singular_lead[:, 2] = 0.0
    for G, b in (
        (np.zeros((3, 3)), np.zeros(3)),
        (singular_lead, np.array([1.0, 1.0, 0.0])),
        (np.diag([1.0, 0.0, 1.0]), np.array([1.0, 0.0, 1.0])),
    ):
        with pytest.raises(SingularSystemError):
            solve_spd(G, b)


def test_stacked_factor_rejects_indefinite_member(rng):
    G = np.stack([random_spd(rng, 2), np.diag([1.0, -1.0]), random_spd(rng, 2)])
    b = rng.standard_normal((3, 2))
    sols, singular = solve_spd_stack(G, b)
    npt.assert_array_equal(singular, [False, True, False])
    npt.assert_array_equal(sols[1], 0.0)
    for i in (0, 2):
        npt.assert_array_equal(sols[i], solve_spd(G[i], b[i]))


def _run_python(code):
    """Run ``code`` in a fresh interpreter that imports smap from this checkout."""
    src = os.path.dirname(os.path.dirname(smap.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
    )


@pytest.mark.parametrize("first", ["smap", "scipy"])
def test_lapack_routines_are_scipys_own(first):
    # smap loads scipy's compiled LAPACK and signal modules by file; in either
    # import order its routines must be the very objects scipy exports
    order = [
        "import smap.linalg, smap.sim",
        "import scipy.linalg.lapack as lapack, scipy.signal._sigtools as sigtools",
    ]
    if first == "scipy":
        order.reverse()
    check = (
        "print(smap.linalg.dpotrf is lapack.dpotrf, smap.linalg.dpotrs is lapack.dpotrs,"
        " smap.linalg.dgesv is lapack.dgesv, smap.sim._linear_filter is sigtools._linear_filter)"
    )
    result = _run_python("; ".join(order + [check]))
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["True"] * 4


def test_import_without_scipy_raises_an_import_error_naming_scipy():
    # the compiled modules are found through scipy's package spec, which
    # is None when scipy cannot be imported
    result = _run_python(
        "import sys; sys.modules['scipy'] = None\n"
        "try:\n    import smap\n"
        "except ImportError as err:\n    print(type(err).__name__, err.name, err)"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split()[:2] == ["ImportError", "scipy"]
    assert "scipy" in result.stdout.split(maxsplit=2)[2]


@pytest.mark.parametrize("delta", [1e-12, 0.5])
def test_delta_lands_on_the_diagonal_in_either_memory_order(rng, delta):
    # solve_spd adds delta through a flat view of a copy of G, which must
    # be a view whatever G's layout, or delta would be dropped
    A = rng.standard_normal((5, 3))
    G = A.T @ A
    b = rng.standard_normal(3)
    expected = solve_spd(G, b, delta)
    strided = np.zeros((3, 6))
    strided[:, ::2] = G
    for layout in (np.asfortranarray(G), G.T, strided[:, ::2]):
        assert solve_spd(layout, b, delta).tobytes() == expected.tobytes()
    npt.assert_allclose((G + delta * np.eye(3)) @ expected, b, rtol=1e-9)
