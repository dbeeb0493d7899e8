"""Dense symmetric linear algebra and the small constrained solvers that
every other module builds on: Cholesky, the symmetric eigendecomposition
and inverse square root, a bounded linear-program solver and nonnegative
least squares.

Everything operates on plain float ndarrays at desk scale (matrix order
<= ~20).  All kernels are deterministic: Cholesky, the eigensolver and the
least-squares solves inside nonnegative least squares (Lawson-Hanson,
written here in numpy) are LAPACK through numpy.linalg, and the LP backend
is scipy's HiGHS, single-threaded and reproducible.  scipy is imported
only inside `solve_lp`, so a process that runs no LP never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class NotPositiveDefiniteError(ValueError):
    """A factorization met a pivot at or below the degeneracy threshold."""


class NoConvergenceError(RuntimeError):
    """An iterative kernel exhausted its iteration cap."""


class InfeasibleError(RuntimeError):
    """A linear program has no feasible point inside its box."""


def sym_matrix(entries) -> np.ndarray:
    """Square float matrix symmetrized by averaging with its transpose."""
    m = np.array(entries, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return 0.5 * (m + m.T)


def cholesky(s: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L @ L.T == s.

    Raises NotPositiveDefiniteError when any pivot L_ii^2 falls at or below
    1e-12 * trace(s) / dim, which signals a degenerate or indefinite form.
    """
    a = np.asarray(s, dtype=float)
    try:
        low = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"not positive definite: {exc}") from exc
    return _nondegenerate(low, np.trace(a))


def factor_cholesky(half: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L @ L.T == half.T @ half, read off the QR of
    `half` without rounding the product; degenerate as in `cholesky`."""
    low = np.linalg.qr(half, mode="r").T
    return _nondegenerate(low * np.copysign(1.0, np.diag(low)), np.sum(half * half))


def _nondegenerate(low: np.ndarray, trace: float) -> np.ndarray:
    thresh = 1e-12 * trace / low.shape[0]
    pivots = np.diag(low) ** 2
    i = int(np.argmin(pivots))
    if pivots[i] <= thresh:
        raise NotPositiveDefiniteError(
            f"pivot {pivots[i]:.3e} at index {i} is not above {thresh:.3e}")
    return low


def sym_eigen(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decomposition of a symmetric matrix (LAPACK via numpy.linalg.eigh).

    Returns (values, vectors) with eigenvalues sorted descending (equal
    values keep eigh's order) and the matching orthonormal eigenvectors as
    columns.
    """
    vals, vecs = np.linalg.eigh(sym_matrix(s))
    order = np.argsort(-vals, kind="stable")
    return vals[order], vecs[:, order]


def inv_sqrt(s: np.ndarray) -> np.ndarray:
    """Symmetric inverse square root S^{-1/2} of a positive-definite matrix:
    the whitening map that takes {x : x^T S x <= 1} to the unit ball."""
    vals, vecs = sym_eigen(s)
    return vecs @ np.diag(vals**-0.5) @ vecs.T


@dataclass(frozen=True)
class LpProblem:
    """min objective . x  s.t.  a . x >= b for each (a, b), and |x_k| <= box.

    The box is mandatory and keeps every instance bounded; callers detect
    box-active solutions and react (the cutting-plane loops add cuts).
    """

    objective: np.ndarray
    constraints: tuple = ()
    box: float = 1e6

    def __post_init__(self):
        obj = np.asarray(self.objective, dtype=float)
        rows = tuple((np.asarray(a, dtype=float), float(b)) for a, b in self.constraints)
        for a, _ in rows:
            if a.shape != obj.shape:
                raise ValueError("constraint length does not match objective")
        if not np.isfinite(self.box) or self.box <= 0:
            raise ValueError("box bound must be finite and positive")
        object.__setattr__(self, "objective", obj)
        object.__setattr__(self, "constraints", rows)


@dataclass(frozen=True)
class LpSolution:
    x: np.ndarray
    status: str
    active: tuple[int, ...]
    box_active: tuple[int, ...]
    iterations: int


_HIGHS_OPTS = {
    "presolve": True,
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve the boxed LP; raises InfeasibleError when no point satisfies
    all constraints within the box.

    On success the solution is feasible to ~1e-9 and optimal to ~1e-8
    relative; `active` lists constraints tight at the solution and
    `box_active` the variables sitting on the box.
    """
    from scipy.optimize import linprog

    c = problem.objective
    k = c.size
    bounds = [(-problem.box, problem.box)] * k
    if problem.constraints:
        a = np.vstack([row for row, _ in problem.constraints])
        b = np.array([rhs for _, rhs in problem.constraints])
        res = linprog(c, A_ub=-a, b_ub=-b, bounds=bounds, method="highs",
                      options=_HIGHS_OPTS)
    else:
        a = b = None
        res = linprog(c, bounds=bounds, method="highs", options=_HIGHS_OPTS)
    if res.status == 2:
        raise InfeasibleError("no feasible point inside the box")
    if res.status != 0:
        raise NoConvergenceError(f"LP solver failed: {res.message}")
    x = np.asarray(res.x, dtype=float)
    if a is not None:
        resid = a @ x - b
        active = tuple(int(i) for i in np.flatnonzero(np.abs(resid) <= 1e-7 * (1.0 + np.abs(b))))
    else:
        active = ()
    box_active = tuple(int(i) for i in np.flatnonzero(
        np.abs(x) >= problem.box - 1e-7 * (1.0 + problem.box)))
    iters = int(getattr(res, "nit", 0) or 0)
    return LpSolution(x=x, status="optimal", active=active, box_active=box_active,
                      iterations=iters)


@dataclass(frozen=True)
class NnlsSolution:
    weights: np.ndarray
    residual: float
    support: tuple[int, ...]


# The normal equations G x = A^T b, G = A^T A, serve while cond(G) = cond(A)^2 <= 1e6, read off the
# bound |G|_F |G^-1|_F >= cond(G); past cond(G) = 1e2 one step of refinement keeps the residual at
# round-off.
_GRAM_COND, _GRAM_REFINE = 1e6, 1e2


def solve_nnls(columns, target) -> NnlsSolution:
    """Least squares over the nonnegative orthant (Lawson & Hanson, *Solving
    Least Squares Problems*, 1974, ch. 23).

    `columns` is a (k, d) array whose rows are the k columns, or a nonempty
    sequence of k equal-length vectors; returns the weights, the residual
    2-norm and the support (indices of positive weights).  Raises
    NoConvergenceError after max(300, 30 k) least-squares solves.

    When the columns are well conditioned and their least-squares answer is
    nonnegative, that answer is the unique minimizer and is returned at once.
    Otherwise the active-set loop starts from the empty passive set and adds
    one column at a time, so the support is the one Lawson-Hanson finds.
    """
    try:
        a = np.asarray(columns, dtype=float)
    except ValueError as exc:
        raise ValueError("columns must all have the same length") from exc
    if a.ndim != 2 or a.shape[0] == 0:
        raise ValueError("columns must be a nonempty sequence of vectors")
    b = np.asarray(target, dtype=float)
    if b.shape != (a.shape[1],):
        raise ValueError("target length does not match columns")
    if not (math.isfinite(np.vdot(a, a)) and math.isfinite(b @ b)):
        raise ValueError("columns and target must be finite")
    x = _least_squares(a, b)
    if x is None or min(x.tolist()) < 0:
        x = _lawson_hanson(a, b, max(300, 30 * a.shape[0]))
    r = b - x @ a
    return NnlsSolution(weights=x, residual=math.sqrt(r @ r),
                        support=tuple(i for i, w in enumerate(x.tolist()) if w > 0))


def _least_squares(a, b):
    """argmin_x |x @ a - b| from the normal equations, or None unless the
    bound shows the rows of `a` independent with condition number <= 1e3."""
    g = a @ a.T
    try:
        g_inv = np.linalg.inv(g)
    except np.linalg.LinAlgError:
        return None
    bound = np.vdot(g, g) * np.vdot(g_inv, g_inv)
    if not bound <= _GRAM_COND**2:
        return None
    x = g_inv @ (a @ b)
    if bound > _GRAM_REFINE**2:
        x += g_inv @ (a @ (b - x @ a))
    return x


def _lawson_hanson(a, b, maxiter):
    """Weights of the columns (rows of `a`) by Lawson-Hanson's active-set loop
    from the empty passive set, in at most `maxiter` least-squares solves."""
    k = a.shape[0]
    tol = 10.0 * np.finfo(float).eps * max(a.shape) * math.sqrt(np.vdot(a, a) * (b @ b))
    cols, weights = [], []  # the passive set in entry order, and its weights
    rejected = set()  # columns turned away since the weights last moved
    grad = (a @ b).tolist()
    solves = 0

    def solve(trial):
        """Least-squares weights on the columns `trial`, and whether they are independent."""
        nonlocal solves
        solves += 1
        if solves > maxiter:
            raise NoConvergenceError(f"nonnegative least squares took {maxiter} solves")
        sub = a[trial]
        s = _least_squares(sub, b)
        if s is not None:
            return s.tolist(), True
        s, _, rank, _ = np.linalg.lstsq(sub.T, b, rcond=None)
        return s.tolist(), rank == len(trial)

    while True:
        skip = rejected.union(cols)
        j = max((i for i in range(k) if i not in skip and grad[i] > tol),
                key=grad.__getitem__, default=None)
        if j is None:
            break
        trial = cols + [j]
        s, independent = solve(trial)
        if not independent or s[-1] <= 0:
            # Lawson-Hanson's column test: j adds no direction or takes no positive weight
            rejected.add(j)
            continue
        x = weights + [0.0]
        while min(s) <= 0:
            # move from x toward s until the first weight reaches zero, and drop it
            alpha, drop = min((xi / (xi - si), p) for p, (xi, si) in enumerate(zip(x, s)) if si <= 0)
            x = [xi + alpha * (si - xi) for xi, si in zip(x, s)]
            x[drop] = 0.0
            trial = [c for c, xi in zip(trial, x) if xi > 0]
            x = [xi for xi in x if xi > 0]
            s, _ = solve(trial)
        cols, weights = trial, s
        rejected.clear()
        grad = (a @ (b - np.array(weights) @ a[cols])).tolist()
    x = np.zeros(k)
    x[cols] = weights
    return x
