"""Tests for the KKT reference solver used to cross-check updates."""

import warnings
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest

from smap.constrained_ls import ConstrainedLSProblem, solve_constrained
from smap.errors import InvalidInputError, SingularSystemError
from smap.filters import DataWindow, FilterState, smap_update


def reference_solve(problem):
    """The stacked system solved through ``numpy.linalg.solve``, as the solver once did."""
    X = problem.X
    m, p = X.shape
    kkt = np.zeros((m + p, m + p))
    kkt[:m, :m] = np.eye(m)
    kkt[:m, m:] = X
    kkt[m:, :m] = X.T
    target = problem.d - problem.cv
    rhs = np.concatenate([problem.w_prev, target])
    try:
        solution = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError as err:
        raise SingularSystemError("stacked system is singular; inputs are rank deficient") from err
    w = solution[:m]
    residual = float(np.linalg.norm(X.T @ w - target))
    if not residual <= 1e-9 * (1.0 + float(np.linalg.norm(target))):
        raise SingularSystemError(
            f"constraint residual {residual:.3e}; inputs are numerically rank deficient"
        )
    return w


def random_problem(rng, taps, width):
    X = rng.standard_normal((taps, width))
    cv = 0.1 * rng.standard_normal(width)
    return ConstrainedLSProblem(X, rng.standard_normal(width), rng.standard_normal(taps), cv)


def test_constraint_already_met_returns_previous_weights(rng):
    X = rng.standard_normal((6, 2))
    w_prev = rng.standard_normal(6)
    d = X.T @ w_prev  # prior errors are exactly zero
    problem = ConstrainedLSProblem(X, d, w_prev, np.zeros(2))
    w = solve_constrained(problem)
    npt.assert_allclose(w, w_prev, atol=1e-10)


def test_scalar_case_by_hand():
    # one tap, one constraint: w must satisfy x*w = d - cv exactly,
    # and the minimum-distance solution is that unique point
    x = np.array([[2.0]])
    problem = ConstrainedLSProblem(x, np.array([1.6]), np.array([5.0]), np.array([0.0472]))
    w = solve_constrained(problem)
    npt.assert_allclose(w, [(1.6 - 0.0472) / 2.0])


def test_random_instances_are_feasible_and_minimal(rng):
    for _ in range(25):
        taps = int(rng.integers(3, 9))
        width = int(rng.integers(1, taps))
        X = rng.standard_normal((taps, width))
        d = rng.standard_normal(width)
        w_prev = rng.standard_normal(taps)
        cv = 0.1 * rng.standard_normal(width)
        w = solve_constrained(ConstrainedLSProblem(X, d, w_prev, cv))
        target = d - cv
        assert np.max(np.abs(X.T @ w - target)) <= 1e-9 * (1.0 + np.max(np.abs(target)))
        # minimality: the move away from w_prev lies in the column span of X
        move = w - w_prev
        coeffs, *_ = np.linalg.lstsq(X, move, rcond=None)
        npt.assert_allclose(X @ coeffs, move, atol=1e-8)


def test_agrees_with_filter_update(rng, make_instance):
    for _ in range(10):
        inst = make_instance(rng)
        new_state, _ = smap_update(
            inst["state"], inst["window"], inst["cv"], inst["gamma_bar"]
        )
        w_ref = solve_constrained(
            ConstrainedLSProblem(
                inst["window"].X, inst["window"].d, inst["state"].w, inst["cv"]
            )
        )
        npt.assert_allclose(new_state.w, w_ref, atol=1e-8)


def test_rank_deficient_regressors_rejected():
    # LU stops at the last pivot (info 7) and leaves the right-hand side as it was, which
    # misses the constraints too: only the message tells the info test from the residual's
    X = np.ones((5, 2))
    problem = ConstrainedLSProblem(X, np.array([1.0, 2.0]), np.zeros(5), np.zeros(2))
    with pytest.raises(SingularSystemError, match="stacked system is singular"):
        solve_constrained(problem)
    with pytest.raises(SingularSystemError):
        reference_solve(problem)


@pytest.mark.parametrize("seed", [0, 1, 3])
def test_numerically_dependent_columns_leave_a_residual(seed):
    # the stacked system factors, but its solution misses the constraints
    x = np.random.default_rng(seed).standard_normal(5)
    X = np.column_stack([x, x * (1.0 + 1e-15)])
    problem = ConstrainedLSProblem(X, np.array([1.0, 2.0]), np.zeros(5), np.zeros(2))
    with pytest.raises(SingularSystemError, match="constraint residual"):
        solve_constrained(problem)
    with pytest.raises(SingularSystemError):
        reference_solve(problem)


def test_agrees_with_the_numpy_route_on_every_shape():
    # three draws of every shape with 1-12 taps and 1-taps columns, square ones included:
    # 234 instances; the worst gap seen was 4.1e-14 * (1 + max|w_ref|)
    rng = np.random.default_rng(35)
    shapes = [(taps, width) for taps in range(1, 13) for width in range(1, taps + 1)] * 3
    for taps, width in shapes:
        problem = random_problem(rng, taps, width)
        w_ref = reference_solve(problem)
        gap = np.abs(solve_constrained(problem) - w_ref).max()
        assert gap <= 1e-12 * (1.0 + np.abs(w_ref).max()), (taps, width, gap)


def exact_solve(problem):
    """``w`` of the stacked system, by Gauss-Jordan elimination in exact rationals."""
    X = problem.X
    m, p = X.shape
    n = m + p
    rows = [[Fraction(0)] * (n + 1) for _ in range(n)]
    for i in range(m):
        rows[i][i] = Fraction(1)
        rows[i][n] = Fraction(problem.w_prev[i])
        for j in range(p):
            rows[i][m + j] = rows[m + j][i] = Fraction(X[i, j])
    for j in range(p):  # d - cv exactly, not as rounded in floating point
        rows[m + j][n] = Fraction(problem.d[j]) - Fraction(problem.cv[j])
    for c in range(n):
        pivot = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                f = rows[r][c] / rows[c][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return [rows[i][n] / rows[i][i] for i in range(m)]


def test_matches_the_exact_solution_of_small_systems():
    # ten systems with 1-5 taps and 1-3 columns, solved exactly from the same floats;
    # the worst error seen was 2.7e-16 * (1 + max|w|), within 1e-14 (45 units of roundoff)
    rng = np.random.default_rng(11)
    for shape in [(1, 1), (2, 1), (2, 2), (3, 1), (3, 3), (4, 2), (4, 3), (5, 1), (5, 2), (5, 3)]:
        problem = random_problem(rng, *shape)
        w = solve_constrained(problem)
        exact = exact_solve(problem)
        error = max(abs(Fraction(float(a)) - b) for a, b in zip(w, exact))
        assert error <= Fraction(1e-14) * (1 + max(map(abs, exact))), (problem, float(error))


@pytest.mark.parametrize("d, cv", [
    ([1e308, -1e308], [0.0, 0.0]),
    ([0.0, 0.0], [1e308, -1e308]),
])
def test_targets_near_the_float_limit_solve_without_a_warning(d, cv):
    # the residual test once squared the target, which overflowed with a warning
    problem = ConstrainedLSProblem(np.eye(3)[:, :2], np.array(d), np.zeros(3), np.array(cv))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = solve_constrained(problem)
    npt.assert_array_equal(w, [d[0] - cv[0], d[1] - cv[1], 0.0])


@pytest.mark.parametrize("shape", [(3,), (3, 0), (3, 1, 1)])
def test_problem_inputs_must_be_a_matrix_with_columns(shape):
    d = np.zeros(shape[1] if len(shape) > 1 else 1)
    with pytest.raises(InvalidInputError, match="inputs must form a 2-D matrix"):
        ConstrainedLSProblem(np.ones(shape), d, np.zeros(3), d)


def test_problem_validation():
    with pytest.raises(InvalidInputError):
        ConstrainedLSProblem(
            np.ones((2, 3)), np.zeros(3), np.zeros(2), np.zeros(3)
        )  # more constraints than taps
    with pytest.raises(InvalidInputError):
        ConstrainedLSProblem(np.ones((4, 2)), np.zeros(2), np.zeros(3), np.zeros(2))
    with pytest.raises(InvalidInputError):
        ConstrainedLSProblem(np.ones((4, 2)), np.zeros(1), np.zeros(4), np.zeros(2))


@pytest.mark.parametrize("name", ["X", "d", "w_prev", "cv"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_problem_rejects_non_finite_data(name, bad):
    # a NaN or inf once came out as NaN coefficients, with no error: the
    # residual test compared NaN and found it not too large
    arrays = {"X": np.eye(3)[:, :2], "d": np.ones(2), "w_prev": np.zeros(3), "cv": np.zeros(2)}
    arrays[name][-1, ...] = bad
    with pytest.raises(InvalidInputError, match=f"problem {name} must be finite"):
        ConstrainedLSProblem(**arrays)
