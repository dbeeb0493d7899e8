import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import nnls as scipy_nnls

from ellipfit import numerics
from ellipfit.numerics import (InfeasibleError, LpProblem, NoConvergenceError,
                               NotPositiveDefiniteError, cholesky, factor_cholesky, solve_lp,
                               solve_nnls, sym_eigen, sym_matrix)


def test_sym_matrix_symmetrizes():
    m = sym_matrix([[1.0, 2.0], [0.0, 3.0]])
    assert np.array_equal(m, m.T)
    assert m[0, 1] == 1.0
    with pytest.raises(ValueError):
        sym_matrix([[1.0, 2.0]])


def test_cholesky_identity():
    assert np.allclose(cholesky(np.eye(2)), np.eye(2))


def test_cholesky_diagonal():
    assert np.allclose(cholesky(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))


def test_cholesky_singular_rejected():
    with pytest.raises(NotPositiveDefiniteError):
        cholesky(np.diag([1.0, 0.0]))
    with pytest.raises(NotPositiveDefiniteError):
        cholesky(np.array([[0.0, 1.0], [1.0, 0.0]]))
    # positive definite to LAPACK, but the pivot is below 1e-12 * trace / dim
    with pytest.raises(NotPositiveDefiniteError):
        cholesky(np.diag([1.0, 1e-13]))


def test_cholesky_random_spd_roundtrip():
    rng = np.random.default_rng(0)
    for _ in range(40):
        n = rng.integers(1, 7)
        g = rng.standard_normal((n, n))
        s = g.T @ g + 1e-6 * np.eye(n)
        low = cholesky(s)
        err = np.linalg.norm(low @ low.T - s)
        assert err <= 1e-10 * (1.0 + np.linalg.norm(s))
        assert np.allclose(np.triu(low, 1), 0.0)


def test_factor_cholesky_matches_cholesky_of_the_product():
    # the factor of half^T half read off the QR of half: same lower
    # triangle with a positive diagonal, and the same degeneracy test
    rng = np.random.default_rng(3)
    for _ in range(40):
        n = rng.integers(1, 7)
        half = rng.standard_normal((n, n))
        low = factor_cholesky(half)
        assert np.allclose(np.triu(low, 1), 0.0) and np.all(np.diag(low) > 0.0)
        assert np.allclose(low, cholesky(half.T @ half), rtol=0.0,
                           atol=1e-10 * np.linalg.norm(half))
    with pytest.raises(NotPositiveDefiniteError):
        factor_cholesky(np.diag([1.0, 1e-7]))  # pivot 1e-14, below 1e-12 * trace / dim


def test_sym_eigen_diagonal():
    vals, vecs = sym_eigen(np.diag([2.0, 1.0]))
    assert np.allclose(vals, [2.0, 1.0])
    assert np.allclose(np.abs(vecs), np.eye(2))


def test_sym_eigen_exchange_matrix():
    vals, vecs = sym_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(vals, [1.0, -1.0])
    root = 1.0 / np.sqrt(2.0)
    assert abs(abs(vecs[0, 0]) - root) < 1e-12
    assert abs(abs(float(vecs[:, 0] @ [root, root])) - 1.0) < 1e-12


def test_sym_eigen_rotated_diagonal_roundtrip():
    phi = np.pi / 6.0
    rot = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
    s = rot @ np.diag([3.0, 1.0]) @ rot.T
    vals, vecs = sym_eigen(s)
    assert np.allclose(vals, [3.0, 1.0], atol=1e-12)
    assert abs(abs(float(vecs[:, 0] @ rot[:, 0])) - 1.0) < 1e-10
    assert np.linalg.norm(vecs @ np.diag(vals) @ vecs.T - s) < 1e-10


def test_sym_eigen_residual_and_orthogonality():
    rng = np.random.default_rng(1)
    for _ in range(40):
        n = rng.integers(1, 7)
        s = sym_matrix(rng.standard_normal((n, n)))
        vals, vecs = sym_eigen(s)
        for i in range(n):
            assert np.linalg.norm(s @ vecs[:, i] - vals[i] * vecs[:, i]) <= 1e-9 * (
                1.0 + np.linalg.norm(s))
        assert np.linalg.norm(vecs.T @ vecs - np.eye(n)) <= 1e-10
        assert np.all(np.diff(vals) <= 1e-12)
        assert abs(vals.sum() - np.trace(s)) <= 1e-9 * (1.0 + abs(np.trace(s)))
        det = np.linalg.det(s)
        assert abs(np.prod(vals) - det) <= 1e-8 * (1.0 + abs(det))


def test_solve_lp_single_constraint():
    sol = solve_lp(LpProblem(np.array([1.0]), ((np.array([1.0]), 1.0),), box=10.0))
    assert abs(sol.x[0] - 1.0) < 1e-9
    assert sol.active == (0,)


def test_solve_lp_separable():
    p = LpProblem(np.array([1.0, 1.0]),
                  ((np.array([1.0, 0.0]), 0.25), (np.array([0.0, 1.0]), 1.0)), box=10.0)
    sol = solve_lp(p)
    assert abs(float(p.objective @ sol.x) - 1.25) < 1e-9


def test_solve_lp_box_saturation():
    sol = solve_lp(LpProblem(np.array([-1.0]), (), box=10.0))
    assert abs(sol.x[0] - 10.0) < 1e-9
    assert sol.box_active == (0,)


def test_solve_lp_infeasible():
    p = LpProblem(np.array([1.0]),
                  ((np.array([1.0]), 1.0), (np.array([-1.0]), 0.0)), box=10.0)
    with pytest.raises(InfeasibleError):
        solve_lp(p)


def _enumerate_optimum(c, rows, box):
    """Exhaustive 2-d LP oracle: intersect every pair of boundary lines
    (constraints plus the four box edges), keep feasible points, minimize."""
    lines = [(a, b) for a, b in rows]
    lines += [(np.array([1.0, 0.0]), box), (np.array([1.0, 0.0]), -box),
              (np.array([0.0, 1.0]), box), (np.array([0.0, 1.0]), -box)]
    best = None
    for (a1, b1), (a2, b2) in itertools.combinations(lines, 2):
        m = np.array([a1, a2])
        if abs(np.linalg.det(m)) < 1e-9:
            continue
        x = np.linalg.solve(m, np.array([b1, b2]))
        if np.max(np.abs(x)) > box + 1e-9:
            continue
        if any(a @ x < b - 1e-9 for a, b in rows):
            continue
        val = float(c @ x)
        if best is None or val < best:
            best = val
    return best


def test_solve_lp_matches_vertex_enumeration():
    rng = np.random.default_rng(2)
    box = 10.0
    for _ in range(60):
        c = rng.uniform(-1.0, 1.0, 2)
        k = rng.integers(1, 7)
        rows = tuple((rng.uniform(-1.0, 1.0, 2), float(rng.uniform(-1.0, 1.0)))
                     for _ in range(k))
        expected = _enumerate_optimum(c, rows, box)
        try:
            sol = solve_lp(LpProblem(c, rows, box=box))
        except InfeasibleError:
            assert expected is None
            continue
        assert expected is not None
        got = float(c @ sol.x)
        assert abs(got - expected) <= 1e-8 * (1.0 + abs(expected))
        for a, b in rows:
            assert a @ sol.x >= b - 1e-9


def test_solve_nnls_examples():
    sol = solve_nnls([np.array([1.0, 0.0]), np.array([0.0, 1.0])], np.array([1.0, 1.0]))
    assert np.allclose(sol.weights, [1.0, 1.0])
    assert sol.residual < 1e-12
    sol = solve_nnls([np.array([1.0, 0.0])], np.array([1.0, -1.0]))
    assert np.allclose(sol.weights, [1.0])
    assert abs(sol.residual - 1.0) < 1e-12
    sol = solve_nnls([np.array([1.0, 0.0]), np.array([-1.0, 0.0])], np.array([2.0, 0.0]))
    assert np.allclose(sol.weights, [2.0, 0.0])
    assert sol.residual < 1e-12
    assert sol.support == (0,)


def test_solve_nnls_matches_lstsq_when_interior():
    rng = np.random.default_rng(3)
    for _ in range(40):
        k = rng.integers(1, 5)
        m = rng.integers(k + 1, k + 5)  # overdetermined: least squares is unique
        a = rng.standard_normal((m, k))
        w_true = rng.uniform(0.5, 2.0, k)
        b = a @ w_true + 1e-3 * rng.standard_normal(m)
        ls = np.linalg.lstsq(a, b, rcond=None)[0]
        if np.any(ls < 1e-6):
            continue
        sol = solve_nnls(list(a.T), b)
        assert np.allclose(sol.weights, ls, atol=1e-8)
        resid = np.linalg.norm(a @ ls - b)
        assert abs(sol.residual - resid) <= 1e-8 * (1.0 + resid)


def test_solve_nnls_validates_input():
    with pytest.raises(ValueError):
        solve_nnls([], np.array([1.0]))
    with pytest.raises(ValueError):
        solve_nnls([np.array([1.0, 0.0]), np.array([1.0])], np.array([1.0, 0.0]))


def _nnls_problem(seed, rows, cols, kind):
    """A (rows x cols) system: random, small integers (exact ties), with
    duplicated columns, of lower rank, with a zero target, or consistent
    with nonnegative weights some of which are zero."""
    rng = np.random.default_rng(seed)
    if kind == "integer":
        a = rng.integers(-2, 3, (rows, cols)).astype(float)
    elif kind == "rank_deficient":
        rank = int(rng.integers(1, max(2, min(rows, cols))))
        a = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
    else:
        a = rng.standard_normal((rows, cols))
    if kind == "duplicated":
        copy = rng.random(cols) < 0.5
        a[:, copy] = a[:, rng.integers(0, cols, cols)[copy]]
    if kind == "zero_target":
        b = np.zeros(rows)
    elif kind == "consistent":
        b = a @ (rng.uniform(0.0, 2.0, cols) * (rng.random(cols) < 0.6))
    else:
        b = rng.standard_normal(rows)
    return a, b


# the two examples need the refinement step of the normal equations to reach round-off
@settings(max_examples=300, deadline=None)
@example(seed=24, rows=6, cols=7, kind="random")
@example(seed=6425, rows=7, cols=8, kind="consistent")
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 15), cols=st.integers(1, 20),
       kind=st.sampled_from(["random", "integer", "duplicated", "rank_deficient",
                             "zero_target", "consistent"]))
def test_solve_nnls_agrees_with_scipy(seed, rows, cols, kind):
    a, b = _nnls_problem(seed, rows, cols, kind)
    sol = solve_nnls(a.T, b)
    x = sol.weights
    ref, _ = scipy_nnls(a, b, maxiter=50 * cols)
    assert np.all(x >= 0.0)
    r = b - a @ x
    assert sol.residual == pytest.approx(np.linalg.norm(r), rel=1e-12, abs=1e-15)
    # scipy's reported rnorm can disagree with its own weights on rank-deficient
    # input, so its residual is recomputed from the weights
    assert sol.residual <= np.linalg.norm(b - a @ ref) + 1e-12 * (1.0 + np.linalg.norm(b))
    # KKT: no column improves the fit, and the support columns are stationary
    grad = a.T @ r
    scale = np.linalg.norm(a) * (np.linalg.norm(b) + np.linalg.norm(a) * np.linalg.norm(x))
    assert np.all(grad <= 1e-10 * scale)
    assert np.all(np.abs(grad[x > 0]) <= 1e-10 * scale)
    assert sol.support == tuple(np.flatnonzero(x > 0))
    # with independent columns the minimizer is unique; where scipy's answer is
    # strictly complementary, its support is Lawson-Hanson's and must be ours
    if cols <= rows and np.linalg.matrix_rank(a) == cols and np.any(ref > 0):
        on = ref > 0
        ref_grad = a.T @ (b - a @ ref)
        if ref[on].min() > 1e-6 * ref.max() and np.all(ref_grad[~on] < -1e-6 * scale):
            assert sol.support == tuple(np.flatnonzero(on))


def test_solve_nnls_iteration_cap_raises():
    # more columns than rows, so the active-set loop runs, and it needs two solves
    columns = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    target = np.array([1.0, 2.0])
    assert solve_nnls(columns, target).support == (0, 1)
    assert np.array_equal(numerics._lawson_hanson(columns, target, 2), [1.0, 2.0, 0.0])
    with pytest.raises(NoConvergenceError):
        numerics._lawson_hanson(columns, target, 1)
    assert issubclass(NoConvergenceError, RuntimeError)
