"""Tests for the KKT reference solver used to cross-check updates."""

import numpy as np
import numpy.testing as npt
import pytest

from smap.constrained_ls import ConstrainedLSProblem, solve_constrained
from smap.errors import InvalidInputError, SingularSystemError
from smap.filters import DataWindow, FilterState, smap_update


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
    X = np.ones((5, 2))
    problem = ConstrainedLSProblem(X, np.array([1.0, 2.0]), np.zeros(5), np.zeros(2))
    with pytest.raises(SingularSystemError):
        solve_constrained(problem)


@pytest.mark.parametrize("seed", [0, 1, 3])
def test_numerically_dependent_columns_leave_a_residual(seed):
    # the stacked system factors, but its solution misses the constraints
    x = np.random.default_rng(seed).standard_normal(5)
    X = np.column_stack([x, x * (1.0 + 1e-15)])
    problem = ConstrainedLSProblem(X, np.array([1.0, 2.0]), np.zeros(5), np.zeros(2))
    with pytest.raises(SingularSystemError, match="constraint residual"):
        solve_constrained(problem)


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
